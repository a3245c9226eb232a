// CPU hot-path microbench: wall-clock throughput of the in-memory
// scan→filter→sample→estimate loops, before vs after the DESIGN.md §15
// rework (batched branch-free predicate kernels, arena-backed zero-copy
// emission, compiled field accessors).
//
// Each loop keeps a faithful replica of the pre-change code path callable
// for in-bench A/B:
//
//   filter     baseline: per-record RangeQuery::Matches + std::string
//              append (the old CombineEngine::AddLeaf filter).
//              new:      RangeQuery::MatchBatchAt + one arena gather, at
//              every dispatch level the host can execute.
//   emit       baseline: per-record SampleBatch::Append of a shuffled
//              round with no pre-sizing (the old EmitShuffled).
//              new:      SampleBatch::Reserve then Append.
//   estimate   baseline: OnlineAggregator's std::function ctor fed the
//              executor's pre-change lambda (TableSchema::Value behind an
//              indirect call, per record, into the per-record Welford
//              fold).
//              new:      compiled storage::FieldAccessor ctor (batch
//              moments + one Chan merge per batch).
//              Both consume the same cache-resident batch — in the real
//              pipeline a batch is consumed right after the combiner
//              wrote it, so the estimate loop is a CPU benchmark, not a
//              memory-bandwidth one.
//   leaf_verify baseline: the CRC-32C table loop over one ~49 KB leaf
//              blob (about a leaf of the 1M-row SALE view).
//              new:      the dispatched Crc32c (the SSE4.2 instruction
//              where the host has it).
//
// Times are the min across --reps repetitions (suppresses scheduler
// noise). Writes bench_results/BENCH_cpu_hotpath.json with per-level
// throughput and the filter/estimate/leaf-verify speedups; under --smoke
// (CI) the bench additionally asserts the filter and estimate speedups
// are >= 2x, that every kernel level agrees with the scalar reference
// byte for byte, and, on hosts with SSE4.2, that leaf verify is >= 5x.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "query/catalog.h"
#include "sampling/online_aggregator.h"
#include "sampling/range_query.h"
#include "sampling/sample_stream.h"
#include "storage/record.h"
#include "storage/record_view.h"
#include "util/arena.h"
#include "util/coding.h"
#include "util/cpu.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/random.h"

namespace msv::bench {
namespace {

using sampling::RangeQuery;
using sampling::SampleBatch;
using storage::SaleRecord;

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Min wall ms of `fn` across `reps` runs.
double MinMs(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    double ms = WallMsSince(start);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

double MRecsPerSec(uint64_t records, double ms) {
  return ms > 0 ? static_cast<double>(records) / (ms * 1e3) : 0.0;
}

/// Records in the leaf_verify blob: 49,100 bytes, about one leaf of the
/// 1M-row SALE view.
constexpr uint64_t kLeafRecords = 491;

/// Densely packed SALE records with uniform keys; `day_hit` fraction land
/// inside the bench query's day interval by construction.
std::string MakeRelation(uint64_t n, uint64_t seed) {
  std::string data(n * SaleRecord::kSize, '\0');
  Pcg64 rng(seed);
  for (uint64_t i = 0; i < n; ++i) {
    SaleRecord rec;
    rec.day = rng.DoubleInRange(0.0, 100000.0);
    rec.amount = rng.DoubleInRange(0.0, 10000.0);
    rec.cust = rng.Below(1u << 20);
    rec.part = rng.Below(1u << 20);
    rec.supp = rng.Below(1u << 10);
    rec.row_id = i;
    rec.EncodeTo(data.data() + i * SaleRecord::kSize);
  }
  return data;
}

}  // namespace

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"records", "2000000"},
               {"reps", "5"},
               {"selectivity", "0.5"},
               {"smoke", "0"}});
  const bool smoke = flags.GetInt("smoke") != 0;
  const uint64_t n = smoke ? 400'000 : flags.GetInt("records");
  const int reps = smoke ? 3 : static_cast<int>(flags.GetInt("reps"));
  const double selectivity = flags.GetDouble("selectivity");

  const storage::RecordLayout layout = SaleRecord::Layout1D();
  const size_t record_size = layout.record_size;
  const std::string relation = MakeRelation(n, /*seed=*/42);
  const char* base = relation.data();

  // Query matching ~selectivity of the day domain.
  const RangeQuery query = RangeQuery::OneDim(0.0, 100000.0 * selectivity);

  const util::CpuLevel detected = util::DetectCpuLevel();
  const util::CpuLevel active = util::ActiveCpuLevel();
  std::printf("cpu: detected=%s active=%s  records=%llu reps=%d\n",
              util::CpuLevelName(detected), util::CpuLevelName(active),
              static_cast<unsigned long long>(n), reps);

  obs::Json numbers = obs::Json::Object();
  numbers["records"] = obs::Json(n);
  numbers["reps"] = obs::Json(static_cast<uint64_t>(reps));
  numbers["selectivity"] = obs::Json(selectivity);
  numbers["smoke"] = obs::Json(smoke);
  numbers["cpu_detected"] = obs::Json(std::string(util::CpuLevelName(detected)));
  numbers["cpu_active"] = obs::Json(std::string(util::CpuLevelName(active)));

  // ---------------------------------------------------------------- filter
  // Baseline: the pre-change CombineEngine filter — per-record Matches,
  // matching bytes appended to a std::string.
  uint64_t baseline_matches = 0;
  std::string baseline_bytes;  // NOLINT(msv-hot-path-alloc) baseline replica
  double filter_base_ms = MinMs(reps, [&] {
    std::string filtered;
    for (uint64_t i = 0; i < n; ++i) {
      const char* rec = base + i * record_size;
      if (query.Matches(layout, rec)) filtered.append(rec, record_size);
    }
    baseline_matches = filtered.size() / record_size;
    baseline_bytes = std::move(filtered);
  });
  std::printf("filter  baseline(scalar+string)  %8.1f ms  %7.1f Mrec/s\n",
              filter_base_ms, MRecsPerSec(n, filter_base_ms));
  numbers["filter_baseline_mrecs"] =
      obs::Json(MRecsPerSec(n, filter_base_ms));

  // New path at every level the host can run: batched kernel into an
  // index buffer, then one arena gather (what FilterSection does).
  std::vector<uint32_t> idx(n);
  double filter_active_ms = 0.0;
  for (int l = 0; l <= static_cast<int>(detected); ++l) {
    const util::CpuLevel level = static_cast<util::CpuLevel>(l);
    util::Arena arena;
    uint64_t matches = 0;
    const char* gathered = nullptr;
    double ms = MinMs(reps, [&] {
      arena.Reset();
      matches = query.MatchBatchAt(level, layout, base, n, idx.data());
      char* dst = arena.Allocate(matches * record_size, alignof(double));
      for (uint64_t m = 0; m < matches; ++m) {
        std::memcpy(dst + m * record_size,
                    base + static_cast<size_t>(idx[m]) * record_size,
                    record_size);
      }
      gathered = dst;
    });
    MSV_CHECK_MSG(matches == baseline_matches,
                  "kernel match count diverged from scalar reference");
    MSV_CHECK_MSG(matches == 0 ||
                      std::memcmp(gathered, baseline_bytes.data(),
                                  matches * record_size) == 0,
                  "kernel match bytes diverged from scalar reference");
    std::printf("filter  batch/%-6s             %8.1f ms  %7.1f Mrec/s\n",
                util::CpuLevelName(level), ms, MRecsPerSec(n, ms));
    numbers[std::string("filter_batch_") + util::CpuLevelName(level) +
            "_mrecs"] = obs::Json(MRecsPerSec(n, ms));
    if (level == active) filter_active_ms = ms;
  }
  const double filter_speedup =
      filter_active_ms > 0 ? filter_base_ms / filter_active_ms : 0.0;
  std::printf("filter  speedup (active level)   %8.2fx\n", filter_speedup);
  numbers["filter_speedup"] = obs::Json(filter_speedup);

  // ------------------------------------------------------------------ emit
  // Round emission: shuffled order over the filtered records. Baseline is
  // the old EmitShuffled (growing appends); new path pre-sizes.
  const uint64_t matches = baseline_matches;
  std::vector<uint32_t> order(matches);
  for (uint64_t i = 0; i < matches; ++i) order[i] = static_cast<uint32_t>(i);
  {
    Pcg64 rng(7);
    Shuffle(&order, &rng);
  }
  double emit_base_ms = MinMs(reps, [&] {
    SampleBatch out;
    out.record_size = record_size;
    for (uint32_t i : order) {
      out.Append(baseline_bytes.data() +
                 static_cast<size_t>(i) * record_size);
    }
    MSV_CHECK(out.count() == matches);
  });
  double emit_new_ms = MinMs(reps, [&] {
    SampleBatch out;
    out.record_size = record_size;
    out.Reserve(matches);
    for (uint32_t i : order) {
      out.Append(baseline_bytes.data() +
                 static_cast<size_t>(i) * record_size);
    }
    MSV_CHECK(out.count() == matches);
  });
  std::printf("emit    baseline(append)         %8.1f ms  %7.1f Mrec/s\n",
              emit_base_ms, MRecsPerSec(matches, emit_base_ms));
  std::printf("emit    reserve+append           %8.1f ms  %7.1f Mrec/s\n",
              emit_new_ms, MRecsPerSec(matches, emit_new_ms));
  numbers["emit_baseline_mrecs"] = obs::Json(MRecsPerSec(matches, emit_base_ms));
  numbers["emit_reserve_mrecs"] = obs::Json(MRecsPerSec(matches, emit_new_ms));

  // -------------------------------------------------------------- estimate
  // A cache-resident batch of filtered records, consumed repeatedly until
  // `n` records have been folded (mirrors streamed consumption of
  // combiner-fresh batches; reps take the min on top).
  const uint64_t est_batch_records = std::min<uint64_t>(matches, 20'000);
  SampleBatch batch;
  batch.record_size = record_size;
  batch.data.assign(baseline_bytes.data(), est_batch_records * record_size);
  const uint64_t est_rounds =
      est_batch_records ? (n + est_batch_records - 1) / est_batch_records : 0;
  const uint64_t est_total = est_rounds * est_batch_records;

  // Pre-change path: the executor's schema lambda behind std::function.
  const query::TableSchema& schema = query::TableSchema::Sale();
  const query::Column* amount = schema.Find("amount");
  MSV_CHECK(amount != nullptr);
  double base_avg = 0.0, new_avg = 0.0;
  double est_base_ms = MinMs(reps, [&] {
    sampling::OnlineAggregator agg(
        [&schema, amount](const char* rec) {
          return schema.Value(rec, *amount);
        },
        /*population=*/est_total);
    for (uint64_t r = 0; r < est_rounds; ++r) agg.Consume(batch);
    base_avg = agg.Avg().value;
  });
  double est_new_ms = MinMs(reps, [&] {
    sampling::OnlineAggregator agg(
        storage::FieldAccessor::Double(SaleRecord::kAmountOffset),
        /*population=*/est_total);
    for (uint64_t r = 0; r < est_rounds; ++r) agg.Consume(batch);
    new_avg = agg.Avg().value;
  });
  // The two forms accumulate the same moments in a different association:
  // equal to rounding error, not bit-for-bit.
  MSV_CHECK_MSG(std::abs(base_avg - new_avg) <=
                    1e-9 * std::max(1.0, std::abs(base_avg)),
                "accessor estimate diverged from the std::function fold");
  const double est_speedup = est_new_ms > 0 ? est_base_ms / est_new_ms : 0.0;
  std::printf("estimate baseline(std::function) %8.1f ms  %7.1f Mrec/s\n",
              est_base_ms, MRecsPerSec(est_total, est_base_ms));
  std::printf("estimate accessor                %8.1f ms  %7.1f Mrec/s\n",
              est_new_ms, MRecsPerSec(est_total, est_new_ms));
  std::printf("estimate speedup                 %8.2fx\n", est_speedup);
  numbers["estimate_baseline_mrecs"] =
      obs::Json(MRecsPerSec(est_total, est_base_ms));
  numbers["estimate_accessor_mrecs"] =
      obs::Json(MRecsPerSec(est_total, est_new_ms));
  numbers["estimate_speedup"] = obs::Json(est_speedup);

  // ----------------------------------------------------------- leaf_verify
  // The checksum every leaf read verifies, over one leaf-sized blob.
  const std::string leaf = MakeRelation(kLeafRecords, /*seed=*/9);
  const uint32_t table_crc =
      Crc32cAt(util::CpuLevel::kScalar, leaf.data(), leaf.size());
  MSV_CHECK_MSG(Crc32c(leaf.data(), leaf.size()) == table_crc,
                "dispatched CRC-32C diverged from the table loop");
  const int table_leaves = smoke ? 100 : 1000;
  const int dispatched_leaves = smoke ? 1000 : 10000;
  uint32_t sink = 0;  // keeps the checksums live
  const double table_ms = MinMs(reps, [&] {
    for (int i = 0; i < table_leaves; ++i) {
      sink += Crc32cAt(util::CpuLevel::kScalar, leaf.data(), leaf.size());
    }
  });
  const double dispatched_ms = MinMs(reps, [&] {
    for (int i = 0; i < dispatched_leaves; ++i) {
      sink += Crc32c(leaf.data(), leaf.size());
    }
  });
  const double table_us = 1e3 * table_ms / table_leaves;
  const double dispatched_us = 1e3 * dispatched_ms / dispatched_leaves;
  const auto mb_per_s = [&](double us) {
    return us > 0 ? static_cast<double>(leaf.size()) / us : 0.0;
  };
  const double verify_speedup =
      dispatched_us > 0 ? table_us / dispatched_us : 0.0;
  const bool crc_hardware =
      Crc32cHardwareAvailable() && active != util::CpuLevel::kScalar;
  std::printf("verify  table(%zu B leaf)        %8.2f us/leaf %7.0f MB/s\n",
              leaf.size(), table_us, mb_per_s(table_us));
  std::printf("verify  dispatched/%-8s      %8.2f us/leaf %7.0f MB/s\n",
              crc_hardware ? "sse4.2" : "table", dispatched_us,
              mb_per_s(dispatched_us));
  std::printf("verify  speedup                  %8.2fx  (sink %08x)\n",
              verify_speedup, sink);
  numbers["leaf_verify_leaf_bytes"] = obs::Json(uint64_t{leaf.size()});
  numbers["leaf_verify_hardware"] = obs::Json(crc_hardware);
  numbers["leaf_verify_table_us_per_leaf"] = obs::Json(table_us);
  numbers["leaf_verify_table_mb_s"] = obs::Json(mb_per_s(table_us));
  numbers["leaf_verify_dispatched_us_per_leaf"] = obs::Json(dispatched_us);
  numbers["leaf_verify_dispatched_mb_s"] = obs::Json(mb_per_s(dispatched_us));
  numbers["leaf_verify_speedup"] = obs::Json(verify_speedup);

  WriteBenchJson("cpu_hotpath", numbers);

  if (smoke) {
    MSV_CHECK_MSG(filter_speedup >= 2.0,
                  "smoke: filter loop is not >=2x over the scalar baseline");
    MSV_CHECK_MSG(est_speedup >= 2.0,
                  "smoke: estimate loop is not >=2x over std::function");
    if (crc_hardware) {
      MSV_CHECK_MSG(verify_speedup >= 5.0,
                    "smoke: leaf verify is not >=5x over the table loop");
    } else {
      std::printf("smoke: leaf-verify gate skipped (no SSE4.2 CRC at the "
                  "active level)\n");
    }
  }
  return 0;
}

}  // namespace msv::bench

int main(int argc, char** argv) { return msv::bench::Run(argc, argv); }
