// Exact-answer oracle for the benchmark's correctness checks.
//
// Built from the generated SALE relation file, read through
// storage::HeapFile; it never touches an ACE tree or a view. Answers
// COUNT, SUM and AVG of `amount` (and COUNT of rows) for any inclusive
// `day` range or (day, amount) box, and looks rows up by row_id.
//
// Layout: the rows sorted by day with prefix sums of amount answer a day
// range with two binary searches. For boxes the day order is cut into
// blocks of kBlock rows, each holding its amounts sorted with prefix sums:
// blocks wholly inside the day range are answered by binary search on
// amount, and the two partial blocks at the ends are scanned.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "io/env.h"
#include "util/result.h"

namespace perfbench {

class Oracle {
 public:
  struct Answer {
    uint64_t count = 0;
    long double sum = 0;  ///< SUM(amount)
    double Avg() const {
      return count == 0 ? 0.0 : static_cast<double>(sum / count);
    }
  };

  /// Reads heap file `relation` of SALE records from `env`.
  static msv::Result<std::unique_ptr<Oracle>> Build(
      msv::io::Env* env, const std::string& relation);

  /// Rows with day in [day.lo, day.hi].
  Answer Range1D(const Range& day) const;
  /// Rows with day in [day.lo, day.hi] and amount in [amount.lo, amount.hi].
  Answer Box(const Range& day, const Range& amount) const;

  uint64_t rows() const { return by_id_day_.size(); }
  /// Day and amount of the row with `row_id`; false if no such row.
  bool Lookup(uint64_t row_id, double* day, double* amount) const;

 private:
  static constexpr size_t kBlock = 1024;

  /// Index of the first row (in day order) with day >= v / day > v.
  size_t LowerDay(double v) const;
  size_t UpperDay(double v) const;
  /// Rows [from, to) in day order with amount in `amount`, by scanning.
  Answer ScanAmounts(size_t from, size_t to, const Range& amount) const;

  std::vector<double> day_;                // sorted ascending
  std::vector<double> amount_;             // in day order
  std::vector<long double> amount_prefix_;  // prefix sums, size n + 1
  std::vector<double> block_amounts_;      // per block, sorted ascending
  std::vector<long double> block_prefix_;  // per block, prefix sums (+1 each)
  std::vector<double> by_id_day_;
  std::vector<double> by_id_amount_;
};

/// Checks the oracle against brute force over a small generated table:
/// random and boundary ranges and boxes must give the exact count and the
/// same sum. Returns an empty string on success, else a description.
std::string OracleSelfTest(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
