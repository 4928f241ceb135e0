#include "oracle.h"

#include <algorithm>
#include <numeric>

namespace perfbench::oracle {

std::vector<int64_t> TopK(const float* scores, int64_t n, int64_t k) {
  std::vector<int64_t> idx(static_cast<size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  const int64_t take = std::min(k, n);
  std::partial_sort(idx.begin(), idx.begin() + take, idx.end(),
                    [scores](int64_t a, int64_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(static_cast<size_t>(take));
  return idx;
}

int64_t RawRank(const float* scores, int64_t n, int64_t target) {
  int64_t higher = 0;
  for (int64_t i = 0; i < n; ++i) higher += scores[i] > scores[target] ? 1 : 0;
  return higher + 1;
}

double MrrX100(const std::vector<int64_t>& ranks) {
  if (ranks.empty()) return 0.0;
  double sum = 0.0;
  for (int64_t r : ranks) sum += 1.0 / static_cast<double>(r);
  return 100.0 * sum / static_cast<double>(ranks.size());
}

bool CheckAnswer(const retia::serve::QueryResult& got, const float* row,
                 int64_t n, int64_t k, int64_t epoch, int32_t shard,
                 std::string* why) {
  if (got.epoch != epoch) {
    *why = "epoch " + std::to_string(got.epoch) + ", expected " +
           std::to_string(epoch);
    return false;
  }
  if (got.shard != shard) {
    *why = "shard " + std::to_string(got.shard) + ", expected " +
           std::to_string(shard);
    return false;
  }
  const std::vector<int64_t> ref = TopK(row, n, k);
  if (got.candidates.size() != ref.size()) {
    *why = std::to_string(got.candidates.size()) + " candidates, expected " +
           std::to_string(ref.size());
    return false;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (got.candidates[i].id != ref[i] ||
        got.candidates[i].score != row[ref[i]]) {
      *why = "candidate " + std::to_string(i) + " is id " +
             std::to_string(got.candidates[i].id) + ", reference id " +
             std::to_string(ref[i]);
      return false;
    }
  }
  return true;
}

bool CheckMrr(double reported, const std::vector<int64_t>& ranks,
              std::string* why) {
  const double recomputed = MrrX100(ranks);
  if (reported != recomputed) {
    *why = "reported MRR " + std::to_string(reported) + " != recomputed " +
           std::to_string(recomputed);
    return false;
  }
  return true;
}

bool CheckEpochsNonDecreasing(const std::vector<int64_t>& epochs,
                              std::string* why) {
  for (size_t i = 1; i < epochs.size(); ++i) {
    if (epochs[i] < epochs[i - 1]) {
      *why = "epoch went back from " + std::to_string(epochs[i - 1]) + " to " +
             std::to_string(epochs[i]) + " at read " + std::to_string(i);
      return false;
    }
  }
  return true;
}

bool CheckNoDrops(int64_t issued, int64_t answered_ok, std::string* why) {
  if (issued != answered_ok) {
    *why = std::to_string(issued - answered_ok) + " of " +
           std::to_string(issued) + " reads were not answered";
    return false;
  }
  return true;
}

}  // namespace perfbench::oracle
