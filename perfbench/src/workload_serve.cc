// Workloads `serve_hot` and `serve_cold`: a serve::Router in this process
// in front of two replica processes (this binary in `replica` mode) over
// AF_UNIX sockets, driven in a closed loop by ClientsFor(workload)
// client threads.
//
//   serve_hot   a 200-entity snapshot; per-query Router::Route with
//               zipfian subjects and uniform relations at one timestamp,
//               after a warm-up that fills the prediction cache with
//               every key. Measures router, wire, socket and cache probe.
//   serve_cold  a 5000-entity snapshot; each client owns 8 of 16
//               timestamps and sends Router::RouteBatch frames of 8
//               same-timestamp queries (6 entity, 2 relation) with uniform
//               ids. A first round from one client, one frame per shard
//               per timestamp, pays each (timestamp, shard)'s history
//               encode; in the timed loop each client keeps to a replica
//               of its own.
//               The cache almost never hits.
//
// Snapshots carry random-init weights: serving cost does not depend on
// parameter values, and the oracle compares against the same snapshot.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/retia.h"
#include "eval/metrics.h"
#include "graph/graph_cache.h"
#include "oracle.h"
#include "serve/engine.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "tkg/synthetic.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using retia::serve::Query;
using retia::serve::QueryResult;
using retia::serve::Result;

constexpr int64_t kTopK = 10;
constexpr int64_t kShards = 2;
constexpr int64_t kColdTimestamps = 16;
constexpr int64_t kColdBatch = 8;          // queries per RouteBatch frame
constexpr int64_t kColdRelationQueries = 2;  // of which relation queries
constexpr double kZipfAlpha = 1.1;
constexpr int64_t kHotSample = 16;
constexpr size_t kMaxSamples = 256;  // answers kept per client for the oracle
constexpr int kSetups = 7;  // setup_s is the median of this many set-ups

retia::tkg::SyntheticConfig ServeData(bool hot, uint64_t seed) {
  retia::tkg::SyntheticConfig c;
  if (hot) {
    c.name = "perfbench-serve-hot";
    c.num_entities = 200;
    c.num_relations = 8;
    c.num_timestamps = 24;
    c.facts_per_timestamp = 60;
    c.num_schemas = 120;
    c.max_period = 6;
  } else {
    c.name = "perfbench-serve-cold";
    c.num_entities = 5000;
    c.num_relations = 8;
    c.num_timestamps = kColdTimestamps + 16;
    c.facts_per_timestamp = 200;
    c.num_schemas = 3000;
    c.max_period = 12;
  }
  c.seed = 29 + seed;
  return c;
}

retia::core::RetiaConfig ServeModel(const retia::tkg::TkgDataset& ds,
                                    uint64_t seed) {
  retia::core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 24;
  config.history_len = 5;
  config.num_bases = 2;
  config.conv_kernels = 8;
  config.seed = 3 + seed;
  return config;
}

retia::serve::ServeConfig EngineConfig() {
  retia::serve::ServeConfig config;  // defaults, not the environment
  config.max_k = kTopK;
  // Small enough that serve_cold fills it within its first second, so a
  // replica's resident set does not depend on how many queries a run got
  // through; serve_hot's 3200 keys fit.
  config.cache_capacity = 8192;
  config.quantized_decode = 0;  // f32 decode; int8 is pinned elsewhere
  return config;
}

// Timestamps serve_cold spreads its traffic over (the newest ones, all
// with a full history), plus the warm-up timestamp just before them.
std::vector<int64_t> ColdTimes(const retia::tkg::TkgDataset& ds) {
  const std::vector<int64_t>& all = ds.all_times();
  return std::vector<int64_t>(all.end() - kColdTimestamps, all.end());
}

// ---- Replica processes -----------------------------------------------------

std::string SelfExe() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

// Starts one replica and waits for its READY line; returns its pid.
pid_t SpawnReplica(const std::string& workload, uint64_t seed,
                   const std::string& prefix, const std::string& socket) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const std::string exe = SelfExe();
  const std::string seed_s = std::to_string(seed);
  const std::string threads_env =
      "RETIA_NUM_THREADS=" + std::to_string(kProcessThreads);
  const std::string interop_env =
      "RETIA_INTEROP_THREADS=" + std::to_string(kProcessThreads);
  std::vector<std::string> env_strings = {threads_env, interop_env};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("RETIA_", 0) != 0) env_strings.push_back(kv);
  }
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = {exe, "replica", workload, seed_s, prefix,
                                   socket};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execve(exe.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  close(fds[1]);
  std::string line;
  char c;
  while (read(fds[0], &c, 1) == 1 && c != '\n') line += c;
  close(fds[0]);
  if (line.rfind("READY", 0) != 0) {
    int status = 0;
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    throw std::runtime_error("replica did not start: '" + line + "'");
  }
  return pid;
}

// Waits for a replica to exit (it was asked to shut down), killing it
// after a grace period so no child outlives the run.
void Reap(pid_t pid) {
  for (int i = 0; i < 200; ++i) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
}

// One serving tier: two replica processes and the router in front of
// them. The destructor shuts the replicas down and reaps them.
class Tier {
 public:
  Tier(const std::string& workload, uint64_t seed, const std::string& dir,
       const std::string& prefix, int clients) {
    retia::serve::RouterConfig config;  // defaults, not the environment
    config.connections_per_replica = clients;
    std::vector<std::unique_ptr<retia::serve::ReplicaChannel>> channels;
    try {
      for (int64_t i = 0; i < kShards; ++i) {
        const std::string socket = dir + "/r" + std::to_string(i) + ".sock";
        replicas_.push_back(SpawnReplica(workload, seed, prefix, socket));
        auto channel =
            std::make_unique<retia::serve::SocketChannel>(socket, config);
        sockets_.push_back(channel.get());
        channels.push_back(std::move(channel));
      }
      router_ =
          std::make_unique<retia::serve::Router>(std::move(channels), config);
      for (retia::serve::SocketChannel* s : sockets_) {
        Result<int64_t> pong = s->Ping();
        if (!pong.ok()) {
          throw std::runtime_error("replica ping: " + pong.ToString());
        }
      }
    } catch (...) {
      // No destructor runs for a half-built tier: end the children here.
      for (pid_t pid : replicas_) {
        kill(pid, SIGKILL);
        Reap(pid);
      }
      throw;
    }
  }
  ~Tier() {
    for (retia::serve::SocketChannel* s : sockets_) s->Shutdown();
    for (pid_t pid : replicas_) Reap(pid);
  }
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  retia::serve::Router& router() { return *router_; }

 private:
  std::vector<pid_t> replicas_;
  std::vector<retia::serve::SocketChannel*> sockets_;
  std::unique_ptr<retia::serve::Router> router_;
};

// ---- Stats JSON ------------------------------------------------------------

// Numbers of one field, in document order, from a StatsJson blob.
std::vector<double> Field(const std::string& json, const std::string& name) {
  std::vector<double> out;
  const std::regex re("\"" + name + "\":(-?[0-9.eE+-]+)");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), re);
       it != std::sregex_iterator(); ++it) {
    out.push_back(std::stod((*it)[1].str()));
  }
  return out;
}

// Router::StatsJson is {"router": {...}, "replicas": [{...}, {...}]};
// every numeric field appears once per object, router first.
struct TierStats {
  double router_frame_size = 0;
  double hits = 0, misses = 0;
  double queue_wait_ms = 0, compute_ms = 0, batch_size = 0;  // replica means
};
TierStats ParseStats(const std::string& json) {
  TierStats s;
  const std::vector<double> batch = Field(json, "mean_batch_size");
  const std::vector<double> wait = Field(json, "p50_queue_wait_ms");
  const std::vector<double> compute = Field(json, "p50_compute_ms");
  const std::vector<double> hits = Field(json, "hits");
  const std::vector<double> misses = Field(json, "misses");
  if (batch.size() != kShards + 1 || wait.size() != kShards + 1) return s;
  s.router_frame_size = batch[0];
  for (int64_t i = 1; i <= kShards; ++i) {
    s.batch_size += batch[i] / kShards;
    s.queue_wait_ms += wait[i] / kShards;
    s.compute_ms += compute[i] / kShards;
  }
  for (double h : hits) s.hits += h;
  for (double m : misses) s.misses += m;
  return s;
}

// ---- Load ------------------------------------------------------------------

struct Sample {
  Query query;
  QueryResult result;
};

// What one timed loop produced, merged over clients.
struct LoadResult {
  std::vector<Completion> done;    // warm frames (Route/RouteBatch calls)
  // Under a tracer, every other warm frame is spanned; their latency sums
  // against the unspanned ones give the tracing overhead.
  double spanned_ms = 0, plain_ms = 0;
  int64_t spanned = 0, plain = 0;
  std::vector<double> cold_ms;     // round-0 frames of serve_cold
  std::vector<Sample> samples;     // answers kept for the oracle
  std::vector<std::vector<Query>> frames;  // frames kept for the replay
  int64_t attempted = 0, failed = 0;
  double seconds = 0;
  std::vector<std::string> errors;
};

struct LoadSpec {
  bool hot = true;
  const retia::tkg::TkgDataset* ds = nullptr;
  retia::serve::Router* router = nullptr;
  std::vector<int64_t> times;                  // hot: one; cold: all
  std::vector<std::vector<int64_t>> subjects;  // per shard (cold)
  int clients = 1;
  bool skip_cold_round = false;  // state store already warm
};

void ClientLoop(const LoadSpec& spec, int client, uint64_t seed,
                Clock::time_point start, Clock::time_point deadline,
                LoadResult* out) {
  retia::util::Rng rng(seed * 1000003 + static_cast<uint64_t>(client));
  const int64_t n = spec.ds->num_entities();
  const int64_t m = spec.ds->num_relations();
  int64_t frames = 0;
  auto account = [&](const std::vector<Query>& queries,
                     const std::vector<Result<QueryResult>>& results,
                     double ms, bool cold) {
    // Cold frames have their own metric; the query figures describe
    // answers from an encoded timestamp.
    if (!cold) {
      (frames % 2 == 0 ? out->spanned_ms : out->plain_ms) += ms;
      ++(frames % 2 == 0 ? out->spanned : out->plain);
    }
    if (cold) {
      out->cold_ms.push_back(ms);
    } else if (spec.hot) {
      // serve_hot keeps every kHotSample-th round trip (standing for the
      // ones around it), so memory does not grow with throughput.
      if (frames % kHotSample == 0) {
        out->done.push_back({SecondsSince(start), ms, kHotSample});
      }
    } else {
      out->done.push_back({SecondsSince(start), ms,
                           static_cast<int64_t>(results.size())});
    }
    for (size_t i = 0; i < results.size(); ++i) {
      ++out->attempted;
      const Result<QueryResult>& r = results[i];
      if (!r.ok()) {
        ++out->failed;
        if (out->errors.size() < 3) out->errors.push_back(r.ToString());
        continue;
      }
      std::string why;
      const int32_t shard =
          static_cast<int32_t>(spec.router->ShardFor(queries[i].s));
      if (r.value().epoch != 0 || r.value().shard != shard) {
        ++out->failed;
        if (out->errors.size() < 3) {
          out->errors.push_back("answer from epoch " +
                                std::to_string(r.value().epoch) + " shard " +
                                std::to_string(r.value().shard));
        }
      }
    }
    // Every answer of a sampled frame goes to the oracle: on serve_cold
    // that is entity and relation queries at every position of the batch.
    if (frames % 37 == 0 && out->samples.size() < kMaxSamples) {
      for (size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok()) out->samples.push_back({queries[i], results[i].value()});
      }
      if (out->frames.size() < 256) out->frames.push_back(queries);
    }
    ++frames;
  };

  if (spec.hot) {
    while (Clock::now() < deadline) {
      const Query q = Query::Entity(rng.Zipf(n, kZipfAlpha),
                                    rng.UniformInt(0, 2 * m - 1),
                                    spec.times[0], kTopK);
      ScopedSpan span("serve.request", frames, frames % 2 == 0);
      const Clock::time_point sent = Clock::now();
      std::vector<Result<QueryResult>> results;
      results.push_back(spec.router->Route(q));
      account({q}, results, MillisSince(sent), false);
    }
    return;
  }
  // serve_cold: whole rounds over this client's timestamps, one frame per
  // shard per timestamp.
  std::vector<int64_t> mine;
  for (size_t i = client; i < spec.times.size(); i += spec.clients) {
    mine.push_back(spec.times[i]);
  }
  for (int64_t round = 0; round == 0 || Clock::now() < deadline; ++round) {
    for (int64_t t : mine) {
      for (int64_t j = 0; j < kShards; ++j) {
        // The cold round covers every (timestamp, shard); later rounds
        // keep each client on a replica of its own, so no frame queues
        // behind another client's.
        const int64_t shard = round == 0 && !spec.skip_cold_round
                                  ? (client + j) % kShards
                                  : client % kShards;
        const std::vector<int64_t>& subjects = spec.subjects[shard];
        std::vector<Query> queries;
        for (int64_t i = 0; i < kColdBatch; ++i) {
          const int64_t s = subjects[rng.UniformInt(
              0, static_cast<int64_t>(subjects.size()) - 1)];
          queries.push_back(
              i < kColdBatch - kColdRelationQueries
                  ? Query::Entity(s, rng.UniformInt(0, 2 * m - 1), t, kTopK)
                  : Query::Relation(s, rng.UniformInt(0, n - 1), t, kTopK));
        }
        ScopedSpan span("serve.request", frames, frames % 2 == 0);
        const Clock::time_point sent = Clock::now();
        const std::vector<Result<QueryResult>> results =
            spec.router->RouteBatch(queries);
        account(queries, results, MillisSince(sent),
                round == 0 && !spec.skip_cold_round);
      }
    }
  }
}

LoadResult RunLoad(const LoadSpec& spec, uint64_t seed, double seconds) {
  std::vector<LoadResult> per_client(spec.clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back(ClientLoop, std::cref(spec), c, seed, start,
                         deadline, &per_client[c]);
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  out.seconds = SecondsSince(start);
  for (LoadResult& r : per_client) {
    auto append = [](auto& into, auto& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    append(out.done, r.done);
    out.spanned_ms += r.spanned_ms;
    out.plain_ms += r.plain_ms;
    out.spanned += r.spanned;
    out.plain += r.plain;
    append(out.cold_ms, r.cold_ms);
    append(out.samples, r.samples);
    append(out.frames, r.frames);
    append(out.errors, r.errors);
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
  return out;
}

// ---- In-process reference --------------------------------------------------

// The snapshot loaded into this process, with states evolved on demand:
// the oracle's reference and the traced run's decode replay.
class Reference {
 public:
  Reference(const std::string& prefix, const retia::tkg::TkgDataset* ds)
      : cache_(ds) {
    const retia::ckpt::Result loaded =
        retia::serve::LoadModelSnapshot(prefix, &model_);
    if (!loaded.ok()) throw std::runtime_error(loaded.ToString());
  }
  const std::vector<retia::core::EvolutionModel::StepState>& States(int64_t t) {
    auto it = states_.find(t);
    if (it != states_.end()) return it->second;
    ScopedSpan span("core.evolve", t);
    retia::tensor::NoGradGuard guard;
    return states_[t] =
               model_->Evolve(cache_, cache_.HistoryBefore(t, model_->history_len()));
  }
  retia::tensor::Tensor Score(const Query& q) {
    retia::tensor::NoGradGuard guard;
    const auto& states = States(q.t);
    return q.kind == retia::serve::QueryKind::kEntity
               ? model_->ScoreObjectsFrozen(states, {{q.s, q.r_or_o}})
               : model_->ScoreRelationsFrozen(states, {{q.s, q.r_or_o}});
  }
  retia::core::RetiaModel& model() { return *model_; }

 private:
  std::unique_ptr<retia::core::RetiaModel> model_;
  retia::graph::GraphCache cache_;
  std::map<int64_t, std::vector<retia::core::EvolutionModel::StepState>> states_;
};

void CheckSamples(Reference& ref, const retia::serve::Router& router,
                  const std::vector<Sample>& samples, Outcome* out) {
  for (const Sample& s : samples) {
    const retia::tensor::Tensor scores = ref.Score(s.query);
    std::string why;
    if (!oracle::CheckAnswer(s.result, scores.Data(), scores.Dim(1), s.query.k,
                             /*epoch=*/0,
                             static_cast<int32_t>(router.ShardFor(s.query.s)),
                             &why)) {
      out->Fail("answer to (" + std::to_string(s.query.s) + ", " +
                std::to_string(s.query.r_or_o) + ", t=" +
                std::to_string(s.query.t) + "): " + why);
      return;
    }
  }
}

// Spanned replay of the wire codecs on `frames`, answered by `ref`; per
// frame, both directions, both ends.
void ReplayWire(Reference& ref, const std::vector<std::vector<Query>>& frames,
                bool hot) {
  namespace wire = retia::serve::wire;
  for (size_t f = 0; f < frames.size(); ++f) {
    std::vector<Result<QueryResult>> answers;
    for (const Query& q : frames[f]) {
      const retia::tensor::Tensor scores = ref.Score(q);
      QueryResult r;
      for (int64_t id : oracle::TopK(scores.Data(), scores.Dim(1), q.k)) {
        r.candidates.push_back({id, scores.Data()[id]});
      }
      answers.emplace_back(std::move(r));
    }
    ScopedSpan span("serve.wire", static_cast<int64_t>(f));
    std::vector<uint8_t> bytes;
    if (hot) {
      wire::AppendFrame(wire::MsgType::kQuery, wire::EncodeQuery(frames[f][0]),
                        &bytes);
      wire::AppendFrame(wire::MsgType::kQueryReply,
                        wire::EncodeQueryReply(answers[0]), &bytes);
    } else {
      wire::AppendFrame(wire::MsgType::kQueryBatch,
                        wire::EncodeQueryBatch(frames[f]), &bytes);
      wire::AppendFrame(wire::MsgType::kResultBatch,
                        wire::EncodeResultBatch(answers), &bytes);
    }
    size_t at = 0;
    while (at < bytes.size()) {
      wire::Frame frame;
      size_t used = 0;
      std::string detail;
      if (wire::DecodeFrame(bytes.data() + at, bytes.size() - at, &frame, &used,
                            &detail) != wire::DecodeStatus::kFrame) {
        break;
      }
      at += used;
      switch (frame.type) {
        case wire::MsgType::kQuery: (void)wire::DecodeQuery(frame.body); break;
        case wire::MsgType::kQueryReply:
          (void)wire::DecodeQueryReply(frame.body);
          break;
        case wire::MsgType::kQueryBatch:
          (void)wire::DecodeQueryBatch(frame.body);
          break;
        default: (void)wire::DecodeResultBatch(frame.body); break;
      }
    }
  }
}

// Spanned replay of serve_cold's decode on the kept frames: the engine's
// per-(timestamp, kind) micro-batches through the frozen decoders, then
// top-k on every row.
void ReplayDecode(Reference& ref, const std::vector<std::vector<Query>>& frames) {
  retia::tensor::NoGradGuard guard;
  for (size_t f = 0; f < frames.size(); ++f) {
    const auto& states = ref.States(frames[f][0].t);
    for (retia::serve::QueryKind kind :
         {retia::serve::QueryKind::kEntity, retia::serve::QueryKind::kRelation}) {
      std::vector<std::pair<int64_t, int64_t>> batch;
      for (const Query& q : frames[f]) {
        if (q.kind == kind) batch.emplace_back(q.s, q.r_or_o);
      }
      if (batch.empty()) continue;
      retia::tensor::Tensor scores;
      if (kind == retia::serve::QueryKind::kEntity) {
        ScopedSpan span("core.decode.entity", static_cast<int64_t>(f));
        scores = ref.model().ScoreObjectsFrozen(states, batch);
      } else {
        ScopedSpan span("core.decode.relation", static_cast<int64_t>(f));
        scores = ref.model().ScoreRelationsFrozen(states, batch);
      }
      const int64_t cols = scores.Dim(1);
      for (int64_t row = 0; row < scores.Dim(0); ++row) {
        ScopedSpan span("eval.topk", static_cast<int64_t>(f));
        (void)retia::eval::TopKIndices(scores.Data() + row * cols, cols, kTopK);
      }
    }
  }
}

}  // namespace

// ---- Replica child -----------------------------------------------------------

int ReplicaMain(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "replica: expected <workload> <seed> <prefix> <socket>\n";
    return 2;
  }
  const bool hot = std::string(argv[0]) == "serve_hot";
  const uint64_t seed = std::strtoull(argv[1], nullptr, 10);
  const retia::tkg::TkgDataset dataset =
      retia::tkg::GenerateSynthetic(ServeData(hot, seed));
  retia::serve::SnapshotLoader loader =
      [&dataset](const std::string& prefix)
      -> Result<retia::serve::EngineSnapshot> {
    std::unique_ptr<retia::core::RetiaModel> model;
    const retia::ckpt::Result loaded =
        retia::serve::LoadModelSnapshot(prefix, &model);
    if (!loaded.ok()) {
      return Result<retia::serve::EngineSnapshot>::Error(
          retia::serve::StatusCode::kInternal, loaded.ToString());
    }
    retia::serve::EngineSnapshot snapshot;
    snapshot.dataset = std::make_unique<retia::tkg::TkgDataset>(dataset);
    snapshot.graph_cache =
        std::make_unique<retia::graph::GraphCache>(snapshot.dataset.get());
    snapshot.model = std::move(model);
    return snapshot;
  };
  Result<retia::serve::EngineSnapshot> initial = loader(argv[2]);
  if (!initial.ok()) {
    std::cerr << "replica: " << initial.ToString() << "\n";
    return 1;
  }
  retia::serve::ServeEngine engine(initial.take(), EngineConfig());
  retia::serve::ReplicaServer server(&engine, loader, argv[3]);
  Result<bool> started = server.Start();
  if (!started.ok()) {
    std::cerr << "replica: " << started.ToString() << "\n";
    return 1;
  }
  std::cout << "READY " << argv[3] << std::endl;
  server.WaitForShutdown();
  server.Stop();
  return 0;
}

// ---- Workload ----------------------------------------------------------------

Outcome RunServe(const Options& options, bool hot) {
  Outcome out;
  const int clients = ClientsFor(options.workload);
  const std::string dir = ".bench_build/run-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  const std::string prefix = dir + "/snap";
  out.Note("threads: " + std::to_string(clients) + " clients; " +
           std::to_string(kShards) + " replicas with RETIA_NUM_THREADS=" +
           std::to_string(kProcessThreads) + ", connections per replica " +
           std::to_string(clients));

  std::unique_ptr<retia::tkg::TkgDataset> ds;
  std::unique_ptr<Tier> tier;
  std::vector<double> setup_s;
  LoadSpec spec;
  spec.hot = hot;
  spec.clients = clients;
  for (int setup = 0; setup < kSetups; ++setup) {
    tier.reset();  // a previous set-up's replicas exit first
    const Clock::time_point start = Clock::now();
    ds = std::make_unique<retia::tkg::TkgDataset>(
        retia::tkg::GenerateSynthetic(ServeData(hot, options.seed)));
    {
      retia::core::RetiaModel model(ServeModel(*ds, options.seed));
      const retia::ckpt::Result saved =
          retia::serve::SaveModelSnapshot(model, prefix, ds->name());
      if (!saved.ok()) throw std::runtime_error(saved.ToString());
    }
    tier = std::make_unique<Tier>(options.workload, options.seed, dir, prefix,
                                  clients);
    retia::serve::Router& router = tier->router();
    spec.ds = ds.get();
    spec.router = &router;
    if (hot) {
      // Warm-up: every (subject, relation) key once, so the timed phase
      // is served from the prediction cache.
      spec.times = {ds->test_times().front()};
      std::vector<Query> sweep;
      for (int64_t s = 0; s < ds->num_entities(); ++s) {
        for (int64_t r = 0; r < 2 * ds->num_relations(); ++r) {
          sweep.push_back(Query::Entity(s, r, spec.times[0], kTopK));
          if (sweep.size() == 64) {
            (void)router.RouteBatch(sweep);
            sweep.clear();
          }
        }
      }
      if (!sweep.empty()) (void)router.RouteBatch(sweep);
    } else {
      // Warm-up on a timestamp outside the measured set: connections,
      // arenas and graph snapshots, but no measured timestamp.
      spec.times = ColdTimes(*ds);
      spec.subjects.assign(kShards, {});
      for (int64_t s = 0; s < ds->num_entities(); ++s) {
        spec.subjects[router.ShardFor(s)].push_back(s);
      }
      const int64_t warm_t = spec.times.front() - 1;
      for (int i = 0; i < 20; ++i) {
        std::vector<Query> batch;
        for (int64_t j = 0; j < kColdBatch; ++j) {
          batch.push_back(Query::Entity(spec.subjects[i % kShards][j], j,
                                        warm_t, kTopK));
        }
        (void)router.RouteBatch(batch);
      }
    }
    setup_s.push_back(SecondsSince(start));
  }
  retia::serve::Router& router = tier->router();

  // serve_cold first pays its cold round on its own; the timed loop then
  // runs on encoded timestamps. A traced run spans every other frame of
  // its loop.
  LoadResult cold_pass;
  Tracer tracer;
  if (!hot) {
    // One client sends the cold round, so each encode runs alone: with
    // two, concurrent encodes on four vCPUs made its latency swing.
    LoadSpec cold_spec = spec;
    cold_spec.clients = 1;
    cold_pass = RunLoad(cold_spec, options.seed + 2, 0.0);
    spec.skip_cold_round = true;
  }
  const TierStats before = ParseStats(router.StatsJson());
  Tracer::SetActive(options.trace ? &tracer : nullptr);
  LoadResult load = RunLoad(spec, options.seed, options.seconds);
  Tracer::SetActive(nullptr);
  const std::string stats_json = router.StatsJson();
  const TierStats after = ParseStats(stats_json);

  // Oracle: every answer's epoch and shard (in the loop), and sampled
  // answers against the in-process snapshot.
  Reference ref(prefix, ds.get());
  for (const LoadResult* r : {&cold_pass, &load}) {
    out.attempted += r->attempted;
    out.failed += r->failed;
    for (const std::string& e : r->errors) out.Fail("serve: " + e);
    CheckSamples(ref, router, r->samples, &out);
  }
  tier.reset();  // replicas exit; their peak RSS is now visible
  const Windowed w =
      WindowedStats(load.done, load.seconds, WindowsFor(load.seconds));
  int64_t warm_queries = 0;
  for (const Completion& c : load.done) warm_queries += c.queries;
  out.Note(options.workload + ": " + std::to_string(warm_queries) +
           " timed queries in " + std::to_string(load.spanned + load.plain) +
           " frames over " + std::to_string(load.seconds) + " s (medians of " +
           std::to_string(WindowsFor(load.seconds)) + " slices); " +
           std::to_string(cold_pass.cold_ms.size()) + " cold frames; " +
           std::to_string(cold_pass.samples.size() + load.samples.size()) +
           " answers checked against the reference");
  if (warm_queries < 1000 * WindowsFor(load.seconds)) {
    out.Note("WARNING: fewer than 1000 latency samples per slice; p99 is no tail");
  }
  // Throughput and the p99 tail are reported, not pinned: on a shared
  // host both follow the vCPU wake-up stalls of the ping-pong between
  // client and replica and swung between runs far more than the median
  // round trip (README.md, "Dropped metrics").
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s (not pinned): %.1f queries/s, p99 %.4f ms",
                options.workload.c_str(), w.qps, w.p99_ms);
  out.Note(line);
  if (!hot) {
    // Tens of samples, one per (timestamp, shard): reported, not pinned.
    std::snprintf(line, sizeof(line),
                  "serve_cold (not pinned): first frame per (timestamp, "
                  "shard), which pays Evolve, p50 %.4f ms over %zu frames",
                  Median(cold_pass.cold_ms), cold_pass.cold_ms.size());
    out.Note(line);
  }
  // latency: a query's client round trip, median over the run's slices.
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("latency_ms", w.p50_ms, "ms");
  if (!options.trace) {
    std::filesystem::remove_all(dir);
    return out;
  }

  // ---- Traced figures ---------------------------------------------------------
  // A fresh copy, so each replayed timestamp pays its history encode (and
  // graph snapshot build) once, as on a replica.
  Reference fresh(prefix, ds.get());
  const int64_t replay_start = NowNs();
  Tracer::SetActive(&tracer);
  ReplayWire(ref, load.frames, hot);
  if (!hot) ReplayDecode(fresh, load.frames);
  Tracer::SetActive(nullptr);
  std::filesystem::remove_all(dir);
  WriteTrace(tracer, options, &out);
  std::map<std::string, Tracer::Totals> replay = tracer.Summarize(replay_start);
  auto mean_us = [&](const char* name) {
    const Tracer::Totals& t = replay[name];
    return t.count > 0 ? t.total_us / t.count : 0.0;
  };

  const double hits = after.hits - before.hits;
  const double misses = after.misses - before.misses;
  const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out.Add("serve.cache.hit_ratio", hit_ratio, "ratio", Source::kReplicaStats);
  out.Add("serve.engine.queue_wait.us", after.queue_wait_ms * 1e3, "us",
          Source::kReplicaStats);
  out.Add("serve.engine.compute.us", after.compute_ms * 1e3, "us",
          Source::kReplicaStats);
  out.Add("serve.engine.batch_size", after.batch_size, "queries",
          Source::kReplicaStats);
  out.Add("serve.router.frame_size", after.router_frame_size, "queries",
          Source::kReplicaStats);
  const double wire_us = mean_us("serve.wire");
  out.Add("serve.wire.us", wire_us, "us", Source::kSpan);

  // Per frame: the replica's engine time is its queue wait plus one
  // compute per micro-batch, paid only by cache misses; the transport
  // (sockets, scheduling, router) is what the client waits beyond it.
  const double untraced_frame_ms = load.plain > 0 ? load.plain_ms / load.plain : 0.0;
  const double traced_frame_ms =
      load.spanned > 0 ? load.spanned_ms / load.spanned : 0.0;
  const double micro_batches =
      after.batch_size > 0 ? after.router_frame_size / after.batch_size : 1.0;
  const double engine_ms =
      (1.0 - hit_ratio) * (after.queue_wait_ms + micro_batches * after.compute_ms);
  const double transport_us = (traced_frame_ms - engine_ms) * 1e3 - wire_us;
  out.Add("serve.transport.us", transport_us, "us", Source::kSpan);
  if (!hot) {
    out.Add("core.evolve.us", mean_us("core.evolve"), "us", Source::kSpan);
    out.Add("core.decode.entity.us", mean_us("core.decode.entity"), "us",
            Source::kSpan);
    out.Add("core.decode.relation.us", mean_us("core.decode.relation"), "us",
            Source::kSpan);
    out.Add("eval.topk.us", mean_us("eval.topk"), "us", Source::kSpan);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "share of a frame's client latency spent in the replica "
                "engine (encode + decode + top-k + queueing): %.1f%%",
                traced_frame_ms > 0 ? 100.0 * engine_ms / traced_frame_ms : 0.0);
  out.Note(buf);
  Account(options.workload + " frame", untraced_frame_ms, traced_frame_ms,
          engine_ms + wire_us / 1e3, "transport: sockets, router, scheduling",
          &out);
  return out;
}

}  // namespace perfbench
