#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "relation/sale_generator.h"
#include "storage/heap_file.h"
#include "storage/record.h"

namespace perfbench {

using msv::Result;
using msv::Status;
using msv::storage::SaleRecord;

Result<std::unique_ptr<Oracle>> Oracle::Build(msv::io::Env* env,
                                              const std::string& relation) {
  MSV_ASSIGN_OR_RETURN(std::unique_ptr<msv::storage::HeapFile> file,
                       msv::storage::HeapFile::Open(env, relation));
  if (file->record_size() != SaleRecord::kSize) {
    return Status::InvalidArgument("not a SALE relation: " + relation);
  }
  const uint64_t n = file->record_count();
  auto oracle = std::unique_ptr<Oracle>(new Oracle());
  oracle->by_id_day_.assign(n, std::nan(""));
  oracle->by_id_amount_.assign(n, std::nan(""));
  std::vector<std::pair<double, double>> rows;  // (day, amount)
  rows.reserve(n);
  auto scanner = file->NewScanner();
  for (;;) {
    MSV_ASSIGN_OR_RETURN(const char* rec, scanner.Next());
    if (rec == nullptr) break;
    const SaleRecord r = SaleRecord::DecodeFrom(rec);
    if (r.row_id >= n || !std::isnan(oracle->by_id_day_[r.row_id])) {
      return Status::Corruption("row ids are not 0..n-1 exactly once");
    }
    oracle->by_id_day_[r.row_id] = r.day;
    oracle->by_id_amount_[r.row_id] = r.amount;
    rows.emplace_back(r.day, r.amount);
  }
  if (rows.size() != n) return Status::Corruption("short relation scan");
  std::sort(rows.begin(), rows.end());

  oracle->day_.resize(n);
  oracle->amount_.resize(n);
  oracle->amount_prefix_.assign(n + 1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    oracle->day_[i] = rows[i].first;
    oracle->amount_[i] = rows[i].second;
    oracle->amount_prefix_[i + 1] = oracle->amount_prefix_[i] + rows[i].second;
  }
  oracle->block_amounts_ = oracle->amount_;
  const size_t blocks = (n + kBlock - 1) / kBlock;
  oracle->block_prefix_.assign(blocks * (kBlock + 1), 0);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t from = b * kBlock;
    const size_t to = std::min<size_t>(from + kBlock, n);
    std::sort(oracle->block_amounts_.begin() + from,
              oracle->block_amounts_.begin() + to);
    long double* prefix = &oracle->block_prefix_[b * (kBlock + 1)];
    for (size_t i = from; i < to; ++i) {
      prefix[i - from + 1] = prefix[i - from] + oracle->block_amounts_[i];
    }
  }
  return oracle;
}

size_t Oracle::LowerDay(double v) const {
  return std::lower_bound(day_.begin(), day_.end(), v) - day_.begin();
}

size_t Oracle::UpperDay(double v) const {
  return std::upper_bound(day_.begin(), day_.end(), v) - day_.begin();
}

Oracle::Answer Oracle::Range1D(const Range& day) const {
  Answer a;
  const size_t i = LowerDay(day.lo);
  const size_t j = UpperDay(day.hi);
  if (i >= j) return a;
  a.count = j - i;
  a.sum = amount_prefix_[j] - amount_prefix_[i];
  return a;
}

Oracle::Answer Oracle::ScanAmounts(size_t from, size_t to,
                                   const Range& amount) const {
  Answer a;
  for (size_t k = from; k < to; ++k) {
    const double v = amount_[k];
    if (v >= amount.lo && v <= amount.hi) {
      ++a.count;
      a.sum += v;
    }
  }
  return a;
}

Oracle::Answer Oracle::Box(const Range& day, const Range& amount) const {
  const size_t i = LowerDay(day.lo);
  const size_t j = UpperDay(day.hi);
  if (i >= j) return Answer{};
  const size_t first_block = i / kBlock;
  const size_t last_block = (j - 1) / kBlock;
  if (first_block == last_block) return ScanAmounts(i, j, amount);
  Answer a = ScanAmounts(i, (first_block + 1) * kBlock, amount);
  for (size_t b = first_block + 1; b < last_block; ++b) {
    const auto begin = block_amounts_.begin() + b * kBlock;
    const auto end = begin + kBlock;  // only the last block can be short
    const size_t lo = std::lower_bound(begin, end, amount.lo) - begin;
    const size_t hi = std::upper_bound(begin, end, amount.hi) - begin;
    if (lo >= hi) continue;
    const long double* prefix = &block_prefix_[b * (kBlock + 1)];
    a.count += hi - lo;
    a.sum += prefix[hi] - prefix[lo];
  }
  const Answer tail = ScanAmounts(last_block * kBlock, j, amount);
  a.count += tail.count;
  a.sum += tail.sum;
  return a;
}

bool Oracle::Lookup(uint64_t row_id, double* day, double* amount) const {
  if (row_id >= by_id_day_.size()) return false;
  *day = by_id_day_[row_id];
  *amount = by_id_amount_[row_id];
  return true;
}

std::string OracleSelfTest(uint64_t seed) {
  auto env = msv::io::NewMemEnv();
  msv::relation::SaleGenOptions gen;
  gen.num_records = 5000;  // about five oracle blocks, so every path runs
  gen.seed = seed;
  if (Status s = msv::relation::GenerateSaleRelation(env.get(), "t", gen);
      !s.ok()) {
    return "generate: " + s.ToString();
  }
  auto oracle = Oracle::Build(env.get(), "t");
  if (!oracle.ok()) return "build: " + oracle.status().ToString();
  auto file = msv::storage::HeapFile::Open(env.get(), "t");
  if (!file.ok()) return "open: " + file.status().ToString();
  std::vector<SaleRecord> all;
  auto scanner = (*file)->NewScanner();
  for (;;) {
    auto rec = scanner.Next();
    if (!rec.ok()) return "scan: " + rec.status().ToString();
    if (*rec == nullptr) break;
    all.push_back(SaleRecord::DecodeFrom(*rec));
  }
  if ((*oracle)->rows() != all.size()) return "row count differs";

  Rng rng(StreamSeed(seed, 99));
  auto pick = [&](bool on_record, bool is_day) {
    if (on_record) {  // a bound exactly on a record's value: inclusivity
      const SaleRecord& r = all[rng.Below(all.size())];
      return is_day ? r.day : r.amount;
    }
    const double domain = is_day ? kDayMax : kAmountMax;
    return std::floor(rng.Uniform() * domain * 1.1) - domain * 0.05;
  };
  for (int t = 0; t < 400; ++t) {
    Range day{pick(t % 3 == 0, true), pick(t % 5 == 0, true)};
    Range amount{pick(t % 4 == 0, false), pick(t % 7 == 0, false)};
    if (t % 2 == 0) std::swap(day.lo, day.hi);  // empty ranges too
    if (day.lo > day.hi && t % 4 == 1) std::swap(day.lo, day.hi);
    if (amount.lo > amount.hi) std::swap(amount.lo, amount.hi);
    Oracle::Answer want1, want2;
    for (const SaleRecord& r : all) {
      if (r.day < day.lo || r.day > day.hi) continue;
      ++want1.count;
      want1.sum += r.amount;
      if (r.amount < amount.lo || r.amount > amount.hi) continue;
      ++want2.count;
      want2.sum += r.amount;
    }
    const Oracle::Answer got1 = (*oracle)->Range1D(day);
    const Oracle::Answer got2 = (*oracle)->Box(day, amount);
    auto same = [](const Oracle::Answer& a, const Oracle::Answer& b) {
      return a.count == b.count &&
             std::fabs(static_cast<double>(a.sum - b.sum)) <=
                 1e-9 * std::max(1.0L, std::fabs(b.sum));
    };
    if (!same(got1, want1) || !same(got2, want2)) {
      return "query " + std::to_string(t) + " disagrees with brute force";
    }
  }
  for (const SaleRecord& r : all) {
    double day = 0, amount = 0;
    if (!(*oracle)->Lookup(r.row_id, &day, &amount) || day != r.day ||
        amount != r.amount) {
      return "lookup of row " + std::to_string(r.row_id) + " is wrong";
    }
  }
  return "";
}

}  // namespace perfbench
