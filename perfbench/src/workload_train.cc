// Workload `train`: general training of full RETIA on the ICEWS14-like
// profile at the bench sweep's parameters (bench/bench_common.cc
// ParamsFor: d=24, k=5, 8 conv kernels, 2 bases), then ranking of the
// test split. Each round builds a fresh dataset, model and graph cache,
// evaluates the untrained model, trains kEpochs epochs of
// train::Trainer::TrainGeneral, and evaluates again.
//
// The traced run adds a serial replay of the same epochs through the calls
// the trainer makes (Prefetch, Evolve, ComputeLoss, Backward, ClipGradNorm,
// Adam::Step), spanned per call, and an evaluation whose score functions
// are spanned; the replay's epoch losses must equal the plain run's bit
// for bit.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/retia.h"
#include "eval/evaluator.h"
#include "graph/graph_cache.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "tkg/synthetic.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

using retia::core::EvolutionModel;
using Queries = std::vector<std::pair<int64_t, int64_t>>;

constexpr int64_t kEpochs = 2;
constexpr int kSetups = 21;
constexpr int kEvalRepeats = 12;

retia::tkg::SyntheticConfig Profile(uint64_t seed) {
  retia::tkg::SyntheticConfig profile = retia::tkg::SyntheticConfig::Icews14Like();
  profile.seed += seed;
  return profile;
}

retia::core::RetiaConfig ModelConfig(const retia::tkg::TkgDataset& ds,
                                     uint64_t seed) {
  retia::core::RetiaConfig config;
  config.num_entities = ds.num_entities();
  config.num_relations = ds.num_relations();
  config.dim = 24;
  config.history_len = 5;
  config.num_bases = 2;
  config.conv_kernels = 8;
  config.seed = 7 + seed;
  return config;
}

retia::train::TrainConfig TrainerConfig() {
  retia::train::TrainConfig config;
  config.max_epochs = kEpochs;
  config.patience = kEpochs;
  return config;
}

// Gradient steps one epoch takes: training timestamps with facts and a
// non-empty history (Trainer::StepOnTimestamp skips the rest).
int64_t StepsPerEpoch(const retia::graph::GraphCache& cache, int64_t k) {
  int64_t steps = 0;
  for (int64_t t : cache.dataset().train_times()) {
    if (!cache.dataset().FactsAt(t).empty() &&
        !cache.HistoryBefore(t, k).empty()) {
      ++steps;
    }
  }
  return steps;
}

// Entity + relation queries one test-split evaluation ranks.
int64_t EvalQueries(const retia::tkg::TkgDataset& ds) {
  int64_t queries = 0;
  for (int64_t t : ds.test_times()) {
    queries += 3 * static_cast<int64_t>(ds.FactsAt(t).size());
  }
  return queries;
}

// Score functions shaped like Trainer::Evaluate's: evolve the history in
// eval mode, then decode. Each call is spanned as core.score, and every
// score matrix is kept so its ranks can be recomputed.
struct ScoreCapture {
  std::map<int64_t, std::vector<float>> entity, relation;
};

retia::eval::EvalResult EvaluateCapturing(EvolutionModel* model,
                                          retia::graph::GraphCache* cache,
                                          const std::vector<int64_t>& times,
                                          bool relations,
                                          ScoreCapture* capture) {
  auto evolve = [&](int64_t t) {
    model->SetTraining(false);
    return model->Evolve(*cache, cache->HistoryBefore(t, model->history_len()));
  };
  auto keep = [](std::map<int64_t, std::vector<float>>* into, int64_t t,
                 const retia::tensor::Tensor& scores) {
    if (into != nullptr) {
      (*into)[t].assign(scores.Data(), scores.Data() + scores.Dim(0) * scores.Dim(1));
    }
  };
  retia::eval::ObjectScoreFn object_fn = [&](int64_t t, const Queries& q) {
    ScopedSpan span("core.score", t);
    retia::tensor::NoGradGuard guard;
    retia::tensor::Tensor scores = model->ScoreObjects(evolve(t), q);
    keep(capture != nullptr ? &capture->entity : nullptr, t, scores);
    return scores;
  };
  retia::eval::RelationScoreFn relation_fn = [&](int64_t t, const Queries& q) {
    ScopedSpan span("core.score", t);
    retia::tensor::NoGradGuard guard;
    retia::tensor::Tensor scores = model->ScoreRelations(evolve(t), q);
    keep(capture != nullptr ? &capture->relation : nullptr, t, scores);
    return scores;
  };
  retia::eval::EvalOptions options;
  options.evaluate_relations = relations;
  retia::eval::EvalResult result = [&] {
    ScopedSpan span("eval.evaluate", 0);
    return retia::eval::EvaluateTimes(cache->dataset(), times, object_fn,
                                      relation_fn, options);
  }();
  model->SetTraining(true);
  return result;
}

// Recomputes every raw rank from the captured matrices and checks the
// evaluator's reported MRRs against them.
void CheckRanks(const retia::tkg::TkgDataset& ds, const ScoreCapture& capture,
                const retia::eval::EvalResult& reported, Outcome* out) {
  std::vector<int64_t> entity_ranks, relation_ranks;
  const int64_t n = ds.num_entities(), m = ds.num_relations();
  for (int64_t t : ds.test_times()) {
    const std::vector<retia::tkg::Quadruple>& facts = ds.FactsAt(t);
    if (facts.empty()) continue;
    const std::vector<float>& e = capture.entity.at(t);
    const std::vector<float>& r = capture.relation.at(t);
    for (size_t i = 0; i < facts.size(); ++i) {
      entity_ranks.push_back(
          oracle::RawRank(&e[(2 * i) * n], n, facts[i].object));
      entity_ranks.push_back(
          oracle::RawRank(&e[(2 * i + 1) * n], n, facts[i].subject));
    }
    for (size_t i = 0; i < facts.size(); ++i) {
      relation_ranks.push_back(oracle::RawRank(&r[i * m], m, facts[i].relation));
    }
  }
  std::string why;
  if (!oracle::CheckMrr(reported.entity.Mrr(), entity_ranks, &why)) {
    out->Fail("train entity " + why);
  }
  if (!oracle::CheckMrr(reported.relation.Mrr(), relation_ranks, &why)) {
    out->Fail("train relation " + why);
  }
}

std::map<std::string, retia::obs::Histogram::Snapshot> ObsHistograms() {
  return retia::obs::MetricsRegistry::Get().HistogramSnapshots();
}

struct ReplayResult {
  std::vector<double> epoch_joint_loss;
  double seconds = 0.0;
  double first_epoch_prefetch_us = 0.0;
};

// Serial replay of TrainGeneral's steps and per-epoch validation through
// the same public calls, each spanned (ids: step number).
ReplayResult ReplayTraining(const retia::tkg::TkgDataset& ds, uint64_t seed) {
  retia::core::RetiaModel model(ModelConfig(ds, seed));
  retia::graph::GraphCache cache(&ds);
  std::vector<retia::tensor::Tensor> params = model.Parameters();
  const retia::train::TrainConfig tc = TrainerConfig();
  retia::nn::Adam adam(params, retia::nn::Adam::Options{.lr = tc.lr});
  ReplayResult out;
  const Clock::time_point start = Clock::now();
  int64_t step = 0;
  for (int64_t epoch = 0; epoch < kEpochs; ++epoch) {
    ScopedSpan epoch_span("train.epoch", epoch);
    double joint = 0.0;
    int64_t batches = 0;
    for (int64_t t : ds.train_times()) {
      const std::vector<retia::tkg::Quadruple>& facts = ds.FactsAt(t);
      const std::vector<int64_t> history =
          cache.HistoryBefore(t, model.history_len());
      if (facts.empty() || history.empty()) continue;
      ScopedSpan step_span("train.step", step);
      {
        const Clock::time_point p = Clock::now();
        ScopedSpan span("graph.prefetch", step);
        cache.Prefetch(history, model.uses_hypergraphs());
        if (epoch == 0) out.first_epoch_prefetch_us += MillisSince(p) * 1e3;
      }
      model.SetTraining(true);
      model.ZeroGrad();
      std::vector<EvolutionModel::StepState> states;
      {
        ScopedSpan span("core.evolve", step);
        states = model.Evolve(cache, history);
      }
      EvolutionModel::LossParts loss;
      {
        ScopedSpan span("core.loss", step);
        loss = model.ComputeLoss(states, facts);
      }
      {
        ScopedSpan span("tensor.backward", step);
        loss.joint.Backward();
      }
      {
        ScopedSpan span("nn.clip", step);
        retia::nn::ClipGradNorm(params, tc.grad_clip);
      }
      {
        ScopedSpan span("nn.adam", step);
        adam.Step();
      }
      joint += loss.joint.Item();
      ++batches;
      ++step;
    }
    out.epoch_joint_loss.push_back(batches > 0 ? joint / batches : 0.0);
    ScopedSpan span("eval.validate", epoch);
    EvaluateCapturing(&model, &cache, ds.valid_times(), /*relations=*/false,
                      nullptr);
  }
  out.seconds = SecondsSince(start);
  out.first_epoch_prefetch_us /= std::max<int64_t>(1, step / kEpochs);
  return out;
}

}  // namespace

Outcome RunTrain(const Options& options) {
  Outcome out;
  std::vector<double> setup_s;
  double train_seconds = 0.0;
  std::vector<double> eval_rates;  // queries/s of each test-split ranking
  int64_t steps = 0, queries = 0, rounds = 0;
  // Traced runs keep the last round's inputs and plain-run figures for the
  // replay and the accounting.
  std::unique_ptr<retia::tkg::TkgDataset> last_ds;
  std::vector<retia::train::EpochRecord> last_records;
  double last_train_seconds = 0.0;
  int64_t last_steps = 0;
  std::map<std::string, retia::obs::Histogram::Snapshot> obs_before, obs_after;

  const Clock::time_point start = Clock::now();
  while (rounds == 0 || (!options.trace && SecondsSince(start) < options.seconds)) {
    // Set-up (dataset, model, graph cache) is repeated and the last copy
    // kept, so setup_s is a median of several.
    std::unique_ptr<retia::tkg::TkgDataset> ds;
    std::unique_ptr<retia::core::RetiaModel> model_ptr;
    std::unique_ptr<retia::graph::GraphCache> cache_ptr;
    for (int setup = 0; setup < kSetups; ++setup) {
      const Clock::time_point setup_start = Clock::now();
      cache_ptr.reset();
      ds = std::make_unique<retia::tkg::TkgDataset>(
          retia::tkg::GenerateSynthetic(Profile(options.seed)));
      model_ptr = std::make_unique<retia::core::RetiaModel>(
          ModelConfig(*ds, options.seed));
      cache_ptr = std::make_unique<retia::graph::GraphCache>(ds.get());
      setup_s.push_back(SecondsSince(setup_start));
    }
    retia::core::RetiaModel& model = *model_ptr;
    retia::graph::GraphCache& cache = *cache_ptr;

    retia::train::Trainer trainer(&model, &cache, TrainerConfig());
    const int64_t eval_queries = EvalQueries(*ds);
    Clock::time_point t0 = Clock::now();
    const retia::eval::EvalResult untrained =
        trainer.Evaluate(ds->test_times(), /*online=*/false);
    eval_rates.push_back(eval_queries / SecondsSince(t0));

    obs_before = ObsHistograms();
    t0 = Clock::now();
    const std::vector<retia::train::EpochRecord> records = trainer.TrainGeneral();
    const double round_train_seconds = SecondsSince(t0);
    obs_after = ObsHistograms();
    train_seconds += round_train_seconds;
    const int64_t round_steps =
        StepsPerEpoch(cache, model.history_len()) *
        static_cast<int64_t>(records.size());
    steps += round_steps;

    // The trained model ranks the test split kEvalRepeats times: one
    // ranking takes about 0.2 s, too short to time alone on a
    // shared host. Every repeat must give the same metrics.
    retia::eval::EvalResult trained;
    for (int repeat = 0; repeat < kEvalRepeats; ++repeat) {
      t0 = Clock::now();
      retia::eval::EvalResult r =
          trainer.Evaluate(ds->test_times(), /*online=*/false);
      eval_rates.push_back(eval_queries / SecondsSince(t0));
      if (repeat == 0) {
        trained = r;
      } else if (r.entity.Mrr() != trained.entity.Mrr() ||
                 r.relation.Mrr() != trained.relation.Mrr()) {
        out.Fail("repeated test ranking changed the MRR");
      }
    }
    queries += (1 + kEvalRepeats) * eval_queries;
    out.attempted += round_steps + (1 + kEvalRepeats) * eval_queries;
    ++rounds;

    // Oracles.
    if (static_cast<int64_t>(records.size()) != kEpochs) {
      out.Fail("train ran " + std::to_string(records.size()) + " epochs");
    } else if (!(records.back().joint_loss < records.front().joint_loss)) {
      out.Fail("joint loss did not fall: " +
               std::to_string(records.front().joint_loss) + " -> " +
               std::to_string(records.back().joint_loss));
    }
    if (!(trained.entity.Mrr() > untrained.entity.Mrr())) {
      out.Fail("trained entity MRR " + std::to_string(trained.entity.Mrr()) +
               " does not beat untrained " +
               std::to_string(untrained.entity.Mrr()));
    }
    ScoreCapture capture;
    EvaluateCapturing(&model, &cache, ds->test_times(), /*relations=*/true,
                      &capture);
    CheckRanks(*ds, capture, trained, &out);
    if (rounds == 1) {
      out.Note("train: test entity MRR untrained " +
               std::to_string(untrained.entity.Mrr()) + " -> trained " +
               std::to_string(trained.entity.Mrr()) + ", joint loss " +
               std::to_string(records.front().joint_loss) + " -> " +
               std::to_string(records.back().joint_loss));
    }
    last_ds = std::move(ds);
    last_records = records;
    last_train_seconds = round_train_seconds;
    last_steps = round_steps;
  }
  out.Note("train: " + std::to_string(rounds) + " rounds of " +
           std::to_string(kEpochs) + " epochs; " + std::to_string(steps) +
           " steps, " + std::to_string(queries) + " ranked queries");
  {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "train (not pinned): %.3f steps/s; %zu test rankings, %.0f "
                  "to %.0f queries/s, median %.1f",
                  steps / train_seconds, eval_rates.size(),
                  *std::min_element(eval_rates.begin(), eval_rates.end()),
                  *std::max_element(eval_rates.begin(), eval_rates.end()),
                  Median(eval_rates));
    out.Note(line);
  }
  // latency: wall time per gradient step of TrainGeneral (one step per
  // training timestamp with history, per-epoch validation included).
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("latency_ms", train_seconds * 1e3 / steps, "ms");
  if (!options.trace) return out;

  // ---- Traced replay ------------------------------------------------------
  Tracer tracer;
  Tracer::SetActive(&tracer);
  const ReplayResult replay = ReplayTraining(*last_ds, options.seed);
  const int64_t replay_end_ns = NowNs();
  for (size_t e = 0; e < replay.epoch_joint_loss.size(); ++e) {
    if (replay.epoch_joint_loss[e] != last_records[e].joint_loss) {
      out.Fail("replayed epoch " + std::to_string(e) + " joint loss " +
               std::to_string(replay.epoch_joint_loss[e]) +
               " differs from the trainer's " +
               std::to_string(last_records[e].joint_loss));
    }
  }
  // A spanned test-split evaluation (same calls as Trainer::Evaluate).
  retia::core::RetiaModel eval_model(ModelConfig(*last_ds, options.seed));
  retia::graph::GraphCache eval_cache(last_ds.get());
  EvaluateCapturing(&eval_model, &eval_cache, last_ds->test_times(),
                    /*relations=*/true, nullptr);
  Tracer::SetActive(nullptr);
  WriteTrace(tracer, options, &out);

  std::map<std::string, Tracer::Totals> train = tracer.Summarize(0, replay_end_ns);
  std::map<std::string, Tracer::Totals> test =
      tracer.Summarize(replay_end_ns, NowNs());
  const double n_steps = static_cast<double>(last_steps);
  auto per_step = [&](const char* name) { return train[name].self_us / n_steps; };
  out.Add("graph.prefetch.us", replay.first_epoch_prefetch_us, "us", Source::kSpan);
  out.Add("core.evolve.us", per_step("core.evolve"), "us", Source::kSpan);
  out.Add("core.loss.us", per_step("core.loss"), "us", Source::kSpan);
  out.Add("tensor.backward.us", per_step("tensor.backward"), "us", Source::kSpan);
  out.Add("nn.clip.us", per_step("nn.clip"), "us", Source::kSpan);
  out.Add("nn.adam.us", per_step("nn.adam"), "us", Source::kSpan);
  const double score_calls = std::max<int64_t>(1, test["core.score"].count);
  out.Add("core.score.us", test["core.score"].total_us / score_calls, "us",
          Source::kSpan);
  out.Add("eval.rank.us", test["eval.evaluate"].self_us / score_calls, "us",
          Source::kSpan);
  // Kernel timers of the plain TrainGeneral, per gradient step.
  for (const char* name : {"tensor.gemm.us", "tensor.gemm_bwd.us",
                           "tensor.conv1d.us", "tensor.softmax.us",
                           "tensor.gather.us", "tensor.scatter_add.us"}) {
    const double delta = obs_after[name].sum - obs_before[name].sum;
    out.Add(name, delta / n_steps, "us", Source::kObsRegistry);
  }

  // Accounting of one epoch: the spanned layers plus the named remainder
  // (loop bookkeeping and unspanned time) against the untraced epoch.
  const double untraced_ms = last_train_seconds / kEpochs * 1e3;
  const double traced_ms = replay.seconds / kEpochs * 1e3;
  double layers_ms = train["eval.validate"].total_us / kEpochs / 1e3;
  for (const char* name : {"graph.prefetch", "core.evolve", "core.loss",
                           "tensor.backward", "nn.clip", "nn.adam"}) {
    layers_ms += train[name].self_us / kEpochs / 1e3;
  }
  Account("train epoch", untraced_ms, traced_ms, layers_ms,
          "loop bookkeeping + pipeline scheduling", &out);
  return out;
}

}  // namespace perfbench
