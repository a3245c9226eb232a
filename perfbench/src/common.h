// Shared pieces of the end-to-end benchmark: run arguments, the result
// line, order statistics, the seeded generator of range predicates, the
// in-memory span recorder used by traced runs, and registry-counter
// snapshots.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"

namespace perfbench {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Steady-clock time, seconds since an arbitrary epoch.
double NowSec();
/// Steady-clock time captured when the process started (first use in main).
double ProcessStartSec();

/// Rows in every generated SALE table; the day domain is [0, 100000) and
/// the amount domain [0, 10000) (relation::SaleGenOptions defaults).
inline constexpr uint64_t kRows = 1'000'000;
inline constexpr double kDayMax = 100000.0;
inline constexpr double kAmountMax = 10000.0;

/// The result of one run: correctness, operation counts and metrics, in
/// the order they are printed.
class Report {
 public:
  /// Records a failed check (printed to stderr) and clears `correct`.
  void Fail(const std::string& what);
  /// Checks `ok`; on failure records `what` (at most a few are printed).
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Add(const std::string& name, const std::string& unit, double value);

  /// Prints the single JSON result line to stdout.
  void Print() const;

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Metric> metrics_;
  uint64_t problems_ = 0;
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Process high-water resident set size (VmHWM), in MB.
double PeakRssMb();

/// Sum of the sizes of every file in `env` whose name starts with `prefix`.
uint64_t FilesBytes(msv::io::Env* env, const std::string& prefix);

/// SplitMix64: the benchmark's own seeded generator (independent of the
/// program's RNGs so inputs stay fixed when the program changes).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Mixes a run seed with a stream tag so each session and input family
/// draws from its own sequence.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// An inclusive integer range [lo, hi] on one attribute. Integer bounds
/// are printed and parsed exactly, so the oracle sees the same predicate
/// as the program.
struct Range {
  double lo = 0;
  double hi = 0;
};

/// A day range holding about `selectivity` of a uniform day domain.
Range DayRange(Rng& rng, double selectivity);
/// A (day, amount) box holding about `selectivity` of the uniform square.
void Box(Rng& rng, double selectivity, Range* day, Range* amount);
/// Selectivity drawn log-uniformly from [lo, hi].
double LogUniform(Rng& rng, double lo, double hi);

/// "day BETWEEN a AND b" with integer bounds.
std::string Between(const char* column, const Range& r);

/// One recorded span: a timed call made by the benchmark into a layer.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< shared by every span of one statement
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Keeps spans in memory; written out once at the end of a traced run.
/// Thread-safe. A disabled recorder records nothing and costs one branch.
class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  /// Writes {"spans": [...], "self_ns": {name: ns}} to `path`, where a
  /// span's self time is its duration less the time its children cover.
  /// Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<uint64_t, size_t> open_;  ///< id -> index in spans_
  uint64_t next_id_ = 1;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, uint64_t parent,
             uint64_t request)
      : rec_(rec), id_(rec.Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  uint64_t id_;
};

/// Values of named registry counters at one instant; the difference of two
/// snapshots gives what happened between them.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  /// Counter `name` now minus its value in `before` (0 if never created).
  uint64_t Since(const CounterSnapshot& before, const std::string& name) const;

 private:
  std::map<std::string, uint64_t> values_;
};

/// Histogram count and sum of registry histogram `name` (0, 0 if absent).
void HistogramTotals(const std::string& name, uint64_t* count, uint64_t* sum);

/// Creates `dir` if needed; returns false on failure.
bool EnsureDir(const std::string& dir);

/// 100 * (traced / untraced - 1); 0 when either side has no samples.
double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
