// `perfbench selftest`: every oracle must accept a correct result and
// reject a deliberately corrupted one (swapped top-k pair, off-by-one
// rank, stale epoch, dropped read); the reference top-k and rank must
// agree with the program's own on rows with ties; then a short run of
// every workload, plain and traced, must finish with correct results.

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "eval/metrics.h"
#include "oracle.h"
#include "util/rng.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

std::vector<float> TiedRow(retia::util::Rng& rng, int64_t n) {
  std::vector<float> row(n);
  // Few distinct values, so ties are everywhere.
  for (float& v : row) v = static_cast<float>(rng.UniformInt(0, 7)) * 0.125f;
  return row;
}

retia::serve::QueryResult AnswerFor(const std::vector<float>& row, int64_t k,
                                    int64_t epoch, int32_t shard) {
  retia::serve::QueryResult r;
  for (int64_t id : oracle::TopK(row.data(), static_cast<int64_t>(row.size()), k)) {
    r.candidates.push_back({id, row[id]});
  }
  r.epoch = epoch;
  r.shard = shard;
  return r;
}

void OracleChecks() {
  retia::util::Rng rng(5);
  const int64_t n = 300, k = 10;
  std::string why;
  // The reason is read after the check has run.
  auto rejects = [&why](bool accepted, const std::string& what) {
    Expect(!accepted, what + " (" + why + ")");
  };

  // The references agree with the program's own selection and rank.
  bool topk_agrees = true, rank_agrees = true;
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<float> row = TiedRow(rng, n);
    topk_agrees &= oracle::TopK(row.data(), n, k) ==
                   retia::eval::TopKIndices(row.data(), n, k);
    const int64_t target = rng.UniformInt(0, n - 1);
    rank_agrees &= oracle::RawRank(row.data(), n, target) ==
                   retia::eval::RankOf(row.data(), n, target);
  }
  Expect(topk_agrees, "reference top-k equals eval::TopKIndices on tied rows");
  Expect(rank_agrees, "reference rank equals eval::RankOf on tied rows");

  // Swapped top-k pair.
  std::vector<float> row(n);
  for (int64_t i = 0; i < n; ++i) row[i] = static_cast<float>((i * 37) % 101);
  retia::serve::QueryResult good = AnswerFor(row, k, 3, 1);
  Expect(oracle::CheckAnswer(good, row.data(), n, k, 3, 1, &why),
         "answer oracle accepts the reference answer");
  retia::serve::QueryResult swapped = good;
  std::swap(swapped.candidates[0], swapped.candidates[1]);
  rejects(oracle::CheckAnswer(swapped, row.data(), n, k, 3, 1, &why),
          "answer oracle rejects a swapped top-k pair");
  retia::serve::QueryResult truncated = good;
  truncated.candidates.pop_back();
  rejects(oracle::CheckAnswer(truncated, row.data(), n, k, 3, 1, &why),
          "answer oracle rejects a short answer");

  // Stale epoch, wrong shard.
  retia::serve::QueryResult stale = good;
  stale.epoch = 2;
  rejects(oracle::CheckAnswer(stale, row.data(), n, k, 3, 1, &why),
          "answer oracle rejects a stale epoch");
  retia::serve::QueryResult moved = good;
  moved.shard = 0;
  rejects(oracle::CheckAnswer(moved, row.data(), n, k, 3, 1, &why),
          "answer oracle rejects the wrong shard");
  Expect(oracle::CheckEpochsNonDecreasing({0, 0, 1, 1, 2}, &why),
         "epoch oracle accepts non-decreasing epochs");
  rejects(oracle::CheckEpochsNonDecreasing({0, 1, 2, 1}, &why),
          "epoch oracle rejects a stale epoch");

  // Off-by-one rank.
  std::vector<int64_t> ranks;
  for (int i = 0; i < 500; ++i) ranks.push_back(rng.UniformInt(1, 300));
  const double reported = oracle::MrrX100(ranks);
  Expect(oracle::CheckMrr(reported, ranks, &why), "MRR oracle accepts the true ranks");
  std::vector<int64_t> off = ranks;
  off[17] += 1;
  rejects(oracle::CheckMrr(reported, off, &why),
          "MRR oracle rejects an off-by-one rank");

  // Dropped read.
  Expect(oracle::CheckNoDrops(1000, 1000, &why), "read oracle accepts zero drops");
  rejects(oracle::CheckNoDrops(1000, 999, &why),
          "read oracle rejects a dropped read");
}

// Runs one short workload in a child process; true when it exits 0 with
// a correct result line.
bool ShortRun(const std::string& workload, int trace) {
  const std::string cmd =
      std::filesystem::read_symlink("/proc/self/exe").string() +
      " --workload " + workload + " --seed 3 --seconds 1 --trace " +
      std::to_string(trace) + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string last, line;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    line = buf;
    if (!line.empty() && line[0] == '{') last = line;
  }
  const int status = pclose(pipe);
  return status == 0 && last.find("\"correct\": true") != std::string::npos;
}

}  // namespace

int SelfTest() {
  OracleChecks();
  for (const char* workload : {"train", "serve_hot", "serve_cold", "stream"}) {
    for (int trace : {0, 1}) {
      Expect(ShortRun(workload, trace),
             std::string("short run: ") + workload + " --trace " +
                 std::to_string(trace));
    }
  }
  std::cout << (g_failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
