// perfbench: the end-to-end benchmark of the RETIA stack. See README.md.
//
//   perfbench --workload train|serve_hot|serve_cold|stream --seed N
//             --seconds S --trace 0|1
//   perfbench selftest
//   perfbench replica ...        (spawned by the serve workloads)
//
// Prints report lines prefixed with '#', then one JSON result line:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Exits non-zero when an oracle rejects an output.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

const char* SourceName(Source source) {
  switch (source) {
    case Source::kMeasured: return "measured";
    case Source::kSpan: return "benchmark span";
    case Source::kReplicaStats: return "replica StatsJson";
    case Source::kObsRegistry: return "obs registry";
    case Source::kNotReached: return "layer not reached";
  }
  return "?";
}

// The metrics BENCHMARK.json names, in its order. Every untraced run
// prints each end-to-end metric; every traced run prints each per-layer
// metric, and one of a layer the workload does not reach reads 0.
struct MetricName {
  const char* name;
  const char* unit;
};
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_ms", "ms"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricName kPerLayer[] = {
    {"graph.prefetch.us", "us"},
    {"core.evolve.us", "us"},
    {"core.loss.us", "us"},
    {"core.score.us", "us"},
    {"core.decode.entity.us", "us"},
    {"core.decode.relation.us", "us"},
    {"eval.topk.us", "us"},
    {"eval.rank.us", "us"},
    {"tensor.backward.us", "us"},
    {"nn.clip.us", "us"},
    {"nn.adam.us", "us"},
    {"tensor.gemm.us", "us"},
    {"tensor.gemm_bwd.us", "us"},
    {"tensor.conv1d.us", "us"},
    {"tensor.softmax.us", "us"},
    {"tensor.gather.us", "us"},
    {"tensor.scatter_add.us", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.engine.queue_wait.us", "us"},
    {"serve.engine.compute.us", "us"},
    {"serve.engine.batch_size", "queries"},
    {"serve.router.frame_size", "queries"},
    {"serve.wire.us", "us"},
    {"serve.transport.us", "us"},
    {"stream.ingest.us", "us"},
    {"stream.advance.us", "us"},
    {"stream.finetune.us", "us"},
    {"stream.publish.us", "us"},
    {"ckpt.save.us", "us"},
    {"ckpt.save.bytes", "bytes"},
};

void Usage() {
  std::cerr << "usage: perfbench --workload train|serve_hot|serve_cold|stream"
               " --seed N --seconds S --trace 0|1\n"
               "       perfbench selftest\n";
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return options->workload == "train" || options->workload == "serve_hot" ||
         options->workload == "serve_cold" || options->workload == "stream";
}

int Run(const Options& options) {
  // Before any pool exists (bench.h, kProcessThreads).
  const std::string threads = std::to_string(kProcessThreads);
  setenv("RETIA_NUM_THREADS", threads.c_str(), 1);
  setenv("RETIA_INTEROP_THREADS", threads.c_str(), 1);
  Outcome outcome;
  if (options.workload == "train") {
    outcome = RunTrain(options);
  } else if (options.workload == "stream") {
    outcome = RunStream(options);
  } else {
    outcome = RunServe(options, options.workload == "serve_hot");
  }
  outcome.Add("peak_rss_mb", PeakRssMb(), "MB");

  for (const std::string& line : HostStamp()) std::cout << "# " << line << "\n";
  for (const std::string& line : outcome.notes) {
    std::cout << "# " << line << "\n";
  }
  for (const std::string& error : outcome.errors) {
    std::cout << "# ORACLE FAILED: " << error << "\n";
    std::cerr << "perfbench: oracle failed: " << error << "\n";
  }
  // End-to-end metrics come from untraced runs only, per-layer metrics
  // from traced ones.
  std::vector<Metric> reported;
  if (options.trace) {
    for (const MetricName& spec : kPerLayer) {
      reported.push_back({spec.name, 0.0, spec.unit, Source::kNotReached});
    }
  } else {
    for (const MetricName& spec : kEndToEnd) {
      reported.push_back({spec.name, std::nan(""), spec.unit});
    }
  }
  for (const Metric& m : outcome.metrics) {
    auto it = std::find_if(reported.begin(), reported.end(),
                           [&](const Metric& r) { return r.name == m.name; });
    if (it == reported.end()) {
      // A per-layer metric in an untraced run (or the reverse) is dropped;
      // one the manifest does not name is a bug of this benchmark.
      const bool known =
          std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd),
                      [&](const MetricName& n) { return m.name == n.name; }) ||
          std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                      [&](const MetricName& n) { return m.name == n.name; });
      if (!known) {
        std::cerr << "perfbench: metric " << m.name << " is not in the manifest\n";
        return 1;
      }
      continue;
    }
    if (m.unit != it->unit) {
      std::cerr << "perfbench: metric " << m.name << " in " << m.unit
                << ", the manifest says " << it->unit << "\n";
      return 1;
    }
    *it = m;
  }
  std::string metrics;
  char buf[64];
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is missing or not finite\n";
      return 1;
    }
    std::cout << "# " << m.name << " = " << m.value << " " << m.unit << "  ["
              << SourceName(m.source) << "]\n";
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "replica") == 0) {
    return perfbench::ReplicaMain(argc - 2, argv + 2);
  }
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) {
    return perfbench::SelfTest();
  }
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    perfbench::Usage();
    return 2;
  }
  try {
    return perfbench::Run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
