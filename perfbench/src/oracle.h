#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Correctness oracles of the benchmark, written apart from the code they
// check: the reference top-k is a std::partial_sort, the reference rank a
// plain count, and neither calls into eval:: or simd::. Every checker
// returns false with a reason instead of aborting, so the self-test can
// feed them corrupted results and expect a rejection.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/query.h"

namespace perfbench::oracle {

// Indices of the k highest scores, best first, ties to the lower index.
std::vector<int64_t> TopK(const float* scores, int64_t n, int64_t k);

// Raw-setting rank: one plus the number of strictly higher scores.
int64_t RawRank(const float* scores, int64_t n, int64_t target);

// MRR x100, accumulated in rank order exactly as eval::Metrics does.
double MrrX100(const std::vector<int64_t>& ranks);

// A served answer against the reference row it must equal: same ids in
// the same order, bit-equal scores, and the expected epoch and shard.
bool CheckAnswer(const retia::serve::QueryResult& got, const float* row,
                 int64_t n, int64_t k, int64_t epoch, int32_t shard,
                 std::string* why);

// The reported MRR equals the one recomputed from `ranks`, exactly.
bool CheckMrr(double reported, const std::vector<int64_t>& ranks,
              std::string* why);

// A reader's epochs never go back.
bool CheckEpochsNonDecreasing(const std::vector<int64_t>& epochs,
                              std::string* why);

// Every issued read came back ok.
bool CheckNoDrops(int64_t issued, int64_t answered_ok, std::string* why);

}  // namespace perfbench::oracle

#endif  // PERFBENCH_ORACLE_H_
