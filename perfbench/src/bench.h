#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the end-to-end benchmark: options, the outcome every
// workload returns, sample statistics, the in-memory span recorder used by
// traced runs, and process helpers for the replica tier.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Where a reported number comes from. Spans are timed by this benchmark
// around public calls; replica and obs figures are read from the program's
// own stats, whose histograms keep whole microseconds and power-of-two
// buckets (see README.md). kNotReached marks a per-layer metric of a
// layer the workload never calls, reported as 0.
enum class Source { kMeasured, kSpan, kReplicaStats, kObsRegistry, kNotReached };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Source source = Source::kMeasured;
};

// Everything one workload run reports. `correct` goes false on the first
// oracle mismatch; `errors` says which.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  // Free-form report lines (sample counts, accounting, overhead), printed
  // before the result line.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           Source source = Source::kMeasured) {
    metrics.push_back({name, value, unit, source});
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Sample statistics. Quantile uses the nearest-rank rule on a sorted copy.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// One completed operation of a closed loop: when it completed (seconds
// since the loop started), its latency, and how many queries it carried.
struct Completion {
  double at_s = 0.0;
  double ms = 0.0;
  int64_t queries = 1;
};

// Throughput and latency percentiles of a loop, each the median over
// `windows` equal slices of its duration, so a burst of host noise moves
// one slice and not the figure. Percentiles weight each completion by its
// queries.
struct Windowed {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
Windowed WindowedStats(const std::vector<Completion>& done, double seconds,
                       int windows);

// Slices a run of `seconds` is cut into: one per two seconds.
inline int WindowsFor(double seconds) {
  return seconds >= 4.0 ? static_cast<int>(seconds / 2.0) : 1;
}

// Largest peak resident set of this process and every child it has
// waited for, in MiB.
double PeakRssMb();

// ---- Spans -----------------------------------------------------------------

// In-memory span recorder of a traced run. Spans of one request or step
// share an id; a span's self time is its duration minus what its nested
// spans (same thread, contained interval) cover. Only traced runs install
// one; with none installed ScopedSpan records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t tid = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct Totals {
    int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };

  void Record(Span span);
  // Per-name totals with self times, over the spans that lie within
  // [from_ns, to_ns] (NowNs clock).
  std::map<std::string, Totals> Summarize(int64_t from_ns = 0,
                                          int64_t to_ns = INT64_MAX) const;
  // Chrome trace-event JSON ("X" events, one per span).
  bool WriteChromeTrace(const std::string& path) const;
  size_t size() const;

  static Tracer* Active();
  static void SetActive(Tracer* tracer);

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

int64_t NowNs();
int64_t ThreadTag();

class ScopedSpan {
 public:
  // `enabled` false records nothing even under a tracer: loops that
  // compare traced and untraced operations span every other one.
  ScopedSpan(const char* name, int64_t id, bool enabled = true)
      : tracer_(enabled ? Tracer::Active() : nullptr), name_(name), id_(id),
        start_ns_(tracer_ != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record({name_, id_, ThreadTag(), start_ns_, NowNs()});
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t id_;
  int64_t start_ns_;
};

// Writes the tracer's spans as a Chrome trace under .bench_build/ and
// notes the path.
void WriteTrace(const Tracer& tracer, const Options& options, Outcome* out);

// Largest accepted gap between a traced run's time and the untraced run's
// for the same work (README.md, "Accounting").
inline constexpr double kAccountingBound = 0.25;

// Notes how the spanned layers plus one named remainder account for the
// untraced end-to-end time of `label`, and the tracing overhead.
void Account(const std::string& label, double untraced_ms, double traced_ms,
             double layers_ms, const std::string& remainder_name,
             Outcome* out);

// ---- Host and build stamp --------------------------------------------------

// Lines describing the build (type, flags, compiler), the host (nproc,
// cgroup CPU quota), the selected simd backend and this process's thread
// settings.
std::vector<std::string> HostStamp();

// Every process of a workload (the benchmark and each replica) runs a
// 1-thread pool, pinned through RETIA_NUM_THREADS / RETIA_INTEROP_THREADS
// before any pool exists: on a shared host, stolen CPU time grows with the
// threads a run keeps busy, and with it the run-to-run spread.
inline constexpr int kProcessThreads = 1;

// Load-generating threads of a workload: two serve clients (each waits
// while its replica works, so two keep about two threads busy; one would
// leave the host idle between round trips and measure wake-up latency
// instead), one stream reader; train has none.
int ClientsFor(const std::string& workload);
int HostCpus();

// ---- Workloads -------------------------------------------------------------

Outcome RunTrain(const Options& options);
Outcome RunServe(const Options& options, bool hot);
Outcome RunStream(const Options& options);

// Entry point of a replica child process (argv after "replica").
int ReplicaMain(int argc, char** argv);

// Oracle rejection checks plus a short run of every workload.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
