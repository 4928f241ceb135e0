// Workload `stream`: stream::StreamPipeline with trainer checkpoints on,
// in rounds. Each round builds a fresh pipeline and runs kWindowsPerRound
// windows; each window offers the next timestep's bucket of a generated
// event stream and calls AdvanceTo, which seals it, fine-tunes on it,
// checkpoints the trainer, clones the model and swaps it into the engine.
// Meanwhile ClientsFor("stream") reader threads query engine().Submit at
// the newest timestep in a closed loop; every swap makes the next read
// re-encode. The engine's prediction cache is off: a cache hit racing a
// swap can be answered by the previous epoch (README.md, "Known faults").
// Rounds keep every run on the
// same windows: the fine-tune slows down as a stream goes on (see
// kStreamInitSeed), so one long stream would tie the figures to how many
// windows a run got through.
//
// After its timed windows, each round runs one more window carrying
// kNewsCopies copies of one fixed fact, bench/bench_stream.cc's (7, 3, 42);
// its own query, (s, r, ?) at the fact's timestamp, should rank the fact's
// object higher after that window than before it (bench_stream makes the
// check one timestep later). On some generated streams it does not, so
// the outcome is counted and reported, not failed (README.md, "Known
// faults"). The model starts untrained: fine-tune and publish cost do not
// depend on parameter values.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "serve/engine.h"
#include "stream/pipeline.h"
#include "tkg/synthetic.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using retia::serve::Query;

constexpr int64_t kHistoryTimestamps = 30;
constexpr int64_t kWindowsPerRound = 16;
constexpr int64_t kNewsCopies = 24;  // copies of the final window's fact
constexpr int64_t kTopK = 10;
constexpr int kSetupsPerRound = 3;  // setup_s: median over all of them
constexpr int64_t kOracleQueries = 32;

// The first kHistoryTimestamps timesteps of one generated event stream
// become the live dataset; the next kWindowsPerRound are what a round
// offers, one timestep per window.
struct StreamInputs {
  std::unique_ptr<retia::tkg::TkgDataset> live;
  std::vector<std::vector<retia::tkg::Quadruple>> buckets;
};

StreamInputs StreamData(uint64_t seed) {
  retia::tkg::SyntheticConfig config;
  config.name = "perfbench-stream";
  config.num_entities = 120;
  config.num_relations = 12;
  config.num_timestamps = kHistoryTimestamps + kWindowsPerRound;
  config.facts_per_timestamp = 30;
  config.num_schemas = 120;
  config.seed = 42 + seed;
  const retia::tkg::TkgDataset all = retia::tkg::GenerateSynthetic(config);
  StreamInputs in;
  std::vector<retia::tkg::Quadruple> history;
  for (int64_t t : all.all_times()) {
    if (t < kHistoryTimestamps) {
      const auto& facts = all.FactsAt(t);
      history.insert(history.end(), facts.begin(), facts.end());
    } else {
      in.buckets.push_back(all.FactsAt(t));
    }
  }
  in.live = std::make_unique<retia::tkg::TkgDataset>(
      config.name, all.num_entities(), all.num_relations(), std::move(history),
      std::vector<retia::tkg::Quadruple>{}, std::vector<retia::tkg::Quadruple>{});
  return in;
}

// The init seed is fixed, not drawn from --seed: from some inits the
// fine-tune steps run through subnormal floats and every window costs a
// third more (flush-to-zero removes the difference), so a per-seed init
// made the figures swing between seeds. This init is one of those, so the
// cost shows in every run.
constexpr uint64_t kStreamInitSeed = 13;

std::unique_ptr<retia::core::RetiaModel> StreamModel(
    const retia::tkg::TkgDataset& ds) {
  retia::core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 24;
  config.history_len = 3;
  config.dropout = 0.0f;
  config.seed = kStreamInitSeed;
  return std::make_unique<retia::core::RetiaModel>(config);
}

// 0-based position of `id` in an answer, or -1.
int64_t PositionOf(const retia::serve::QueryResult& r, int64_t id) {
  for (size_t i = 0; i < r.candidates.size(); ++i) {
    if (r.candidates[i].id == id) return static_cast<int64_t>(i);
  }
  return -1;
}

// One closed-loop reader. Every kReadSample-th read is kept (standing for
// the kReadSample reads around it), so memory does not grow with the read
// rate; epochs are checked as they arrive.
constexpr int64_t kReadSample = 16;
constexpr std::chrono::microseconds kThinkTime{200};
struct Reader {
  std::vector<Completion> done;
  int64_t issued = 0, ok = 0, regressions = 0;
  std::string first_regression;
};

double HistSum(const std::map<std::string, retia::obs::Histogram::Snapshot>& h,
               const char* name) {
  auto it = h.find(name);
  return it == h.end() ? 0.0 : it->second.sum;
}

// One round's pipeline over freshly generated inputs.
struct Round {
  std::unique_ptr<retia::stream::StreamPipeline> pipeline;
  std::vector<std::vector<retia::tkg::Quadruple>> buckets;
  int64_t t0 = 0, n = 0, m = 0;
};

Round MakeRound(uint64_t seed, int64_t index, const std::string& dir) {
  Round round;
  // Each round streams other generated events, so a run's figures average
  // over several streams instead of hanging on one seed's.
  StreamInputs inputs = StreamData(seed * 1000 + static_cast<uint64_t>(index));
  round.buckets = std::move(inputs.buckets);
  round.t0 = inputs.live->max_time();
  round.n = inputs.live->num_entities();
  round.m = inputs.live->num_relations();
  std::unique_ptr<retia::core::RetiaModel> model = StreamModel(*inputs.live);
  retia::stream::StreamPipelineConfig config;
  config.window = 1;
  config.trainer.steps_per_time = 4;
  config.trainer.lr = 0.02f;
  config.trainer.checkpoint_path = dir + "/trainer.ckpt";
  config.serve.max_k = round.n;  // full depth for the rank check
  config.serve.quantized_decode = 0;
  // Without the cache every read decodes on the store it pins, so a
  // reader's epochs cannot go back; with it, a hit racing SwapSnapshot
  // could return the previous epoch after a read of the new one.
  config.serve.enable_cache = false;
  round.pipeline = std::make_unique<retia::stream::StreamPipeline>(
      std::move(model), std::move(inputs.live), config);
  round.pipeline->engine().Warmup(round.t0 + 1);
  return round;
}

// Readers querying `engine` at `query_t` until `stop`.
void ReadLoop(retia::serve::ServeEngine* engine, int64_t n, int64_t m,
              const std::atomic<int64_t>* query_t, const std::atomic<bool>* stop,
              uint64_t seed, Clock::time_point start, Reader* me) {
  retia::util::Rng rng(seed);
  // Epochs restart with each round's engine.
  int64_t last_epoch = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const Query q = Query::Entity(rng.Zipf(n, 1.1), rng.UniformInt(0, 2 * m - 1),
                                  query_t->load(), kTopK);
    const Clock::time_point sent = Clock::now();
    const retia::serve::Result<retia::serve::QueryResult> r = engine->Submit(q);
    const double ms = MillisSince(sent);
    if (me->issued++ % kReadSample == 0) {
      me->done.push_back({SecondsSince(start), ms, kReadSample});
    }
    // Think time between reads: a reader stands for callers that read now
    // and then, not a spin loop on the cache (which took a core from the
    // writer and made the writer's figures swing with the read rate).
    std::this_thread::sleep_for(kThinkTime);
    if (!r.ok()) continue;
    ++me->ok;
    std::string why;
    if (!oracle::CheckEpochsNonDecreasing({last_epoch, r.value().epoch}, &why) &&
        me->regressions++ == 0) {
      me->first_regression = "epoch " + std::to_string(r.value().epoch) +
                             " after " + std::to_string(last_epoch) +
                             " at read " + std::to_string(me->issued);
    }
    last_epoch = std::max(last_epoch, r.value().epoch);
  }
}

}  // namespace

Outcome RunStream(const Options& options) {
  Outcome out;
  const int clients = ClientsFor(options.workload);
  const std::string dir = ".bench_build/run-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  out.Note("threads: writer pool RETIA_NUM_THREADS=" +
           std::to_string(kProcessThreads) + ", " + std::to_string(clients) +
           " reader threads");

  std::vector<double> setup_s, window_ms, traced_window_ms, facts_per_s,
      staleness_ms;
  std::vector<Reader> readers(clients);
  int64_t rounds = 0, windows = 0, streamed_facts = 0, collapsed = 0,
          unmoved = 0;
  Tracer tracer;
  const auto obs_before = retia::obs::MetricsRegistry::Get().HistogramSnapshots();
  const int64_t bytes_before =
      retia::obs::MetricsRegistry::Get().GetCounter("ckpt.save.bytes")->Value();
  const Clock::time_point start = Clock::now();
  while (rounds == 0 || SecondsSince(start) < options.seconds) {
    Round round;
    for (int setup = 0; setup < kSetupsPerRound; ++setup) {
      round = Round{};
      const Clock::time_point t = Clock::now();
      round = MakeRound(options.seed, rounds, dir);
      setup_s.push_back(SecondsSince(t));
    }
    retia::stream::StreamPipeline& pipeline = *round.pipeline;
    retia::serve::ServeEngine& engine = pipeline.engine();
    const int64_t t0 = round.t0, n = round.n, m = round.m;

    // ---- Timed windows with concurrent readers -------------------------------
    std::atomic<int64_t> query_t{t0 + 1};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(ReadLoop, &engine, n, m, &query_t, &stop,
                           options.seed * 7919 + rounds * 31 + c, start,
                           &readers[c]);
    }
    for (int64_t w = 0; w < kWindowsPerRound; ++w, ++windows) {
      // A traced run spans every other window.
      const bool traced = options.trace && windows % 2 == 1;
      Tracer::SetActive(traced ? &tracer : nullptr);
      const int64_t t = t0 + w + 1;
      std::vector<retia::tkg::Quadruple> bucket = round.buckets.at(w);
      for (retia::tkg::Quadruple& q : bucket) q.time = t;
      const Clock::time_point w0 = Clock::now();
      {
        ScopedSpan span("stream.ingest", t);
        pipeline.OfferBatch(bucket);
      }
      {
        ScopedSpan span("stream.advance", t);
        pipeline.AdvanceTo(t + 1);
      }
      const double ms = MillisSince(w0);
      (traced ? traced_window_ms : window_ms).push_back(ms);
      facts_per_s.push_back(bucket.size() / ms * 1e3);
      streamed_facts += static_cast<int64_t>(bucket.size());
      query_t.store(t + 1);
    }
    Tracer::SetActive(nullptr);
    stop.store(true);
    for (std::thread& t : threads) t.join();
    for (int64_t us : pipeline.staleness_us()) staleness_ms.push_back(us / 1e3);

    // ---- The final window: one fact, its own query -----------------------------
    // The fact's own query is (s, r, ?) at its timestamp, whose history the
    // window's fine-tune steps predict it from.
    const int64_t s = 7 % n, r = 3 % m, o = 42 % n;
    const int64_t t_news = t0 + kWindowsPerRound + 1;
    const Query news_query = Query::Entity(s, r, t_news, n);
    const auto before = engine.Submit(news_query);
    pipeline.OfferBatch(std::vector<retia::tkg::Quadruple>(
        kNewsCopies, retia::tkg::Quadruple{s, r, o, t_news}));
    pipeline.AdvanceTo(t_news + 1);
    const auto after = engine.Submit(news_query);
    if (!before.ok() || !after.ok()) {
      out.Fail("stream: the ingested fact's query failed");
    } else if (before.value().candidates.front().score ==
               before.value().candidates.back().score) {
      // Every candidate scores the same: fine-tuning has collapsed the
      // model to uniform predictions, and no fact can move its rank.
      ++collapsed;
      out.Note("KNOWN FAULT: stream round " + std::to_string(rounds) +
               ": the model collapsed to uniform predictions (every score " +
               std::to_string(before.value().candidates.front().score) + ")");
    } else if (!(PositionOf(after.value(), o) < PositionOf(before.value(), o))) {
      ++unmoved;
      out.Note("KNOWN FAULT: stream round " + std::to_string(rounds) +
               ": ingested fact did not improve its query's rank (" +
               std::to_string(PositionOf(before.value(), o)) + " -> " +
               std::to_string(PositionOf(after.value(), o)) + ")");
    }

    // ---- Oracles ---------------------------------------------------------------
    const retia::stream::StreamStatus status = pipeline.Status();
    if (status.publishes != kWindowsPerRound + 1) {
      out.Fail("stream: " + std::to_string(status.publishes) +
               " publishes for " + std::to_string(kWindowsPerRound + 1) +
               " windows");
    }
    {
      // Post-run answers against the trainer's live model and dataset.
      std::unique_ptr<retia::core::RetiaModel> live_model =
          pipeline.trainer().PublishClone();
      retia::graph::GraphCache cache(&pipeline.live());
      const int64_t tq = t_news + 1;
      const std::vector<int64_t> history =
          cache.HistoryBefore(tq, live_model->history_len());
      // A traced run also spans this encode: the one a reader pays after
      // each swap, over a fresh graph cache.
      Tracer::SetActive(options.trace ? &tracer : nullptr);
      {
        ScopedSpan span("graph.prefetch", tq);
        cache.Prefetch(history, live_model->uses_hypergraphs());
      }
      retia::tensor::NoGradGuard guard;
      std::vector<retia::core::EvolutionModel::StepState> states;
      {
        ScopedSpan span("core.evolve", tq);
        states = live_model->Evolve(cache, history);
      }
      Tracer::SetActive(nullptr);
      retia::util::Rng rng(options.seed + static_cast<uint64_t>(rounds));
      for (int64_t i = 0; i < kOracleQueries; ++i) {
        const Query q = Query::Entity(rng.UniformInt(0, n - 1),
                                      rng.UniformInt(0, 2 * m - 1), tq, kTopK);
        const auto got = engine.Submit(q);
        const retia::tensor::Tensor ref =
            live_model->ScoreObjectsFrozen(states, {{q.s, q.r_or_o}});
        std::string why;
        if (!got.ok()) {
          out.Fail("stream: post-run query failed: " + got.ToString());
          break;
        }
        if (!oracle::CheckAnswer(got.value(), ref.Data(), ref.Dim(1), kTopK,
                                 status.publishes, -1, &why)) {
          out.Fail("stream: post-run answer to (" + std::to_string(q.s) + ", " +
                   std::to_string(q.r_or_o) + "): " + why);
          break;
        }
      }
    }
    ++rounds;
  }
  const double loop_seconds = SecondsSince(start);
  const auto obs_after = retia::obs::MetricsRegistry::Get().HistogramSnapshots();
  const int64_t bytes_after =
      retia::obs::MetricsRegistry::Get().GetCounter("ckpt.save.bytes")->Value();

  int64_t issued = 0, answered = 0;
  std::vector<Completion> reads;
  for (size_t c = 0; c < readers.size(); ++c) {
    std::string why;
    // A read answered by an older epoch than the reader's previous one is
    // a failed read (README.md, "Known faults").
    if (readers[c].regressions > 0) {
      out.Fail("stream reader " + std::to_string(c) + ": " +
               std::to_string(readers[c].regressions) +
               " epoch regressions, first: " + readers[c].first_regression);
    }
    if (!oracle::CheckNoDrops(readers[c].issued, readers[c].ok, &why)) {
      out.Fail("stream reader " + std::to_string(c) + ": " + why);
    }
    issued += readers[c].issued;
    answered += readers[c].ok;
    reads.insert(reads.end(), readers[c].done.begin(), readers[c].done.end());
  }
  out.attempted = streamed_facts + rounds * kNewsCopies + issued;
  out.failed = issued - answered;
  for (const Reader& reader : readers) out.failed += reader.regressions;

  out.Note("stream: of " + std::to_string(rounds) +
           " rounds, the ingested fact moved up in " +
           std::to_string(rounds - collapsed - unmoved) + ", did not in " +
           std::to_string(unmoved) + ", and " + std::to_string(collapsed) +
           " ended on a collapsed model");
  out.Note("stream: " + std::to_string(rounds) + " rounds of " +
           std::to_string(kWindowsPerRound) + " timed windows, " +
           std::to_string(streamed_facts) + " facts in " +
           std::to_string(loop_seconds) + " s; " + std::to_string(issued) +
           " reads; " + std::to_string(staleness_ms.size()) +
           " staleness samples; facts/s from the median window");
  const Windowed w = WindowedStats(reads, loop_seconds, WindowsFor(loop_seconds));
  // latency: a fact's arrival to publish, median.
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("latency_ms", Median(staleness_ms), "ms");
  // Reported, not pinned: facts/s is the window time that latency_ms
  // already follows, and the reader's figures depend on its think time
  // more than on the program (README.md, "Dropped metrics").
  char reads_line[200];
  std::snprintf(reads_line, sizeof(reads_line),
                "stream (not pinned): %.1f facts/s (median window); reads "
                "%.0f queries/s, p50 %.4f ms, p99 %.4f ms",
                Median(facts_per_s), w.qps, w.p50_ms, w.p99_ms);
  out.Note(reads_line);

  if (options.trace) {
    // Layers inside AdvanceTo are read from the program's own obs timers
    // (whole-µs samples), per AdvanceTo call.
    const double calls = static_cast<double>(rounds * (kWindowsPerRound + 1));
    auto per_window = [&](const char* name) {
      return (HistSum(obs_after, name) - HistSum(obs_before, name)) / calls;
    };
    std::map<std::string, Tracer::Totals> spans = tracer.Summarize();
    auto mean_us = [&](const char* name) {
      const Tracer::Totals& t = spans[name];
      return t.count > 0 ? t.total_us / t.count : 0.0;
    };
    out.Add("stream.ingest.us", mean_us("stream.ingest"), "us", Source::kSpan);
    out.Add("stream.advance.us", mean_us("stream.advance"), "us", Source::kSpan);
    out.Add("stream.finetune.us", per_window("stream.finetune.us"), "us",
            Source::kObsRegistry);
    out.Add("stream.publish.us", per_window("stream.publish.us"), "us",
            Source::kObsRegistry);
    out.Add("ckpt.save.us", per_window("ckpt.save.us"), "us",
            Source::kObsRegistry);
    out.Add("ckpt.save.bytes", (bytes_after - bytes_before) / calls, "bytes",
            Source::kObsRegistry);
    out.Add("graph.prefetch.us", mean_us("graph.prefetch"), "us", Source::kSpan);
    out.Add("core.evolve.us", mean_us("core.evolve"), "us", Source::kSpan);
    WriteTrace(tracer, options, &out);
    Account("stream window", Mean(window_ms), Mean(traced_window_ms),
            (mean_us("stream.ingest") + per_window("stream.finetune.us") +
             per_window("stream.publish.us")) / 1e3,
            "sealing, staleness bookkeeping", &out);
  }
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
