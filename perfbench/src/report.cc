#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.h"
#include "par/task_graph.h"
#include "par/thread_pool.h"
#include "simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

// Nearest-rank quantile of values weighted by their query counts (the
// same figure as repeating each value `queries` times).
double WeightedQuantile(std::vector<std::pair<double, int64_t>> values,
                        double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  int64_t total = 0;
  for (const auto& v : values) total += v.second;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(total))));
  int64_t seen = 0;
  for (const auto& v : values) {
    seen += v.second;
    if (seen >= rank) return v.first;
  }
  return values.back().first;
}

}  // namespace

Windowed WindowedStats(const std::vector<Completion>& done, double seconds,
                       int windows) {
  std::vector<double> qps, p50, p99;
  const double width = seconds / windows;
  for (int w = 0; w < windows; ++w) {
    const double lo = w * width, hi = (w + 1) * width;
    std::vector<std::pair<double, int64_t>> ms;
    int64_t queries = 0;
    for (const Completion& c : done) {
      // The last slice also takes completions just past the deadline.
      if (c.at_s < lo || (c.at_s >= hi && w + 1 < windows)) continue;
      queries += c.queries;
      ms.emplace_back(c.ms, c.queries);
    }
    if (ms.empty()) continue;
    qps.push_back(queries / width);
    p50.push_back(WeightedQuantile(ms, 0.50));
    p99.push_back(WeightedQuantile(std::move(ms), 0.99));
  }
  return {Median(qps), Median(p50), Median(p99)};
}

double PeakRssMb() {
  struct rusage self {}, children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- Spans -----------------------------------------------------------------

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<int64_t> g_next_thread_tag{1};
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t ThreadTag() {
  thread_local const int64_t tag = g_next_thread_tag.fetch_add(1);
  return tag;
}

Tracer* Tracer::Active() { return g_tracer.load(std::memory_order_acquire); }
void Tracer::SetActive(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize(int64_t from_ns,
                                                        int64_t to_ns) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (s.start_ns >= from_ns && s.end_ns <= to_ns) spans.push_back(s);
    }
  }
  // Outer spans first: by thread, then start, then the longer one.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<size_t> open;  // stack of enclosing spans on this thread
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].tid != spans[i].tid ||
            spans[open.back()].end_ns <= spans[i].start_ns)) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += spans[i].end_ns - spans[i].start_ns;
    }
    open.push_back(i);
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    Totals& t = out[spans[i].name];
    const double dur_us = (spans[i].end_ns - spans[i].start_ns) / 1e3;
    ++t.count;
    t.total_us += dur_us;
    t.self_us += dur_us - child_ns[i] / 1e3;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::ofstream out(path);
  if (!out.good()) return false;
  const int64_t origin =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start_ns < b.start_ns;
                                       })->start_ns;
  out << "{\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                  (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3);
    out << (i > 0 ? "," : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << buf
        << ",\"args\":{\"id\":" << s.id << "}}";
  }
  out << "]}\n";
  return out.good();
}

void WriteTrace(const Tracer& tracer, const Options& options, Outcome* out) {
  std::filesystem::create_directories(".bench_build");
  const std::string path = ".bench_build/trace-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  if (tracer.WriteChromeTrace(path)) {
    out->Note("chrome trace: " + path + " (" + std::to_string(tracer.size()) +
              " spans)");
  } else {
    out->Note("chrome trace: could not write " + path);
  }
}

void Account(const std::string& label, double untraced_ms, double traced_ms,
             double layers_ms, const std::string& remainder_name,
             Outcome* out) {
  const double overhead = traced_ms - untraced_ms;
  const double gap = untraced_ms > 0 ? std::abs(overhead) / untraced_ms : 1.0;
  // layers + remainder is the traced total by construction; the bound is
  // on the tracing overhead, and the shares show how much of the untraced
  // time the named layers explain.
  const double remainder_ms = traced_ms - layers_ms;
  auto share = [&](double ms) {
    return untraced_ms > 0 ? 100.0 * ms / untraced_ms : 0.0;
  };
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "accounting %s: untraced %.4f ms; traced %.4f ms = layers "
                "%.4f ms (%.1f%% of untraced) + remainder %.4f ms (%.1f%% of "
                "untraced) [%s]; tracing overhead %+.4f ms (%+.1f%%) within "
                "%.0f%%: %s",
                label.c_str(), untraced_ms, traced_ms, layers_ms,
                share(layers_ms), remainder_ms, share(remainder_ms),
                remainder_name.c_str(), overhead, share(overhead),
                100.0 * kAccountingBound,
                gap <= kAccountingBound ? "yes" : "NO");
  out->Note(buf);
}

// ---- Host and build stamp --------------------------------------------------

int HostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int ClientsFor(const std::string& workload) {
  if (workload == "serve_hot" || workload == "serve_cold") {
    return std::min(2, HostCpus());
  }
  return workload == "stream" ? 1 : 0;
}

std::vector<std::string> HostStamp() {
  std::vector<std::string> lines;
  lines.push_back(std::string("build: CMAKE_BUILD_TYPE=") +
                  PERFBENCH_BUILD_TYPE + " flags='" + PERFBENCH_CXX_FLAGS +
                  "' compiler=" + PERFBENCH_COMPILER);
  std::string quota = "absent";
  {
    std::ifstream in("/sys/fs/cgroup/cpu.max");
    std::string line;
    if (in.good() && std::getline(in, line)) quota = line;
  }
  lines.push_back("host: nproc=" + std::to_string(HostCpus()) +
                  " cgroup_cpu.max=" + quota);
  lines.push_back(std::string("simd backend: ") +
                  retia::simd::BackendName(retia::simd::ActiveBackend()));
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(name) + "=" + (v != nullptr ? v : "unset");
  };
  lines.push_back("threads (benchmark process): " + env("RETIA_NUM_THREADS") +
                  " " + env("RETIA_INTEROP_THREADS") + " pool=" +
                  std::to_string(retia::par::DefaultThreads()) +
                  " interop=" + std::to_string(retia::par::InteropThreads()));
  return lines;
}

}  // namespace perfbench
