// The three workloads and what they share: the parsed form of a server
// reply, and the fixed set of per-layer metrics every traced run prints.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "obs/json.h"
#include "util/result.h"

namespace perfbench {

/// The fields of one response the checks and metrics use.
struct Reply {
  bool ok = false;
  std::string error;  ///< "kind: message" when !ok
  std::string output;
  uint64_t elapsed_us = 0;  ///< server-reported execution time
  bool has_estimate = false;
  double value = 0;
  double half_width = 0;
  uint64_t samples = 0;
  bool partial = false;
};
Reply ToReply(const msv::Result<msv::obs::Json>& doc);

/// The rows of a SAMPLE statement's output: row_id and the printed day
/// and amount of each row, and the "(n random samples)" trailer count.
struct SampleRows {
  std::vector<uint64_t> row_ids;
  std::vector<double> days;
  std::vector<double> amounts;
  uint64_t trailer = 0;
  bool parsed = false;
};
SampleRows ParseSampleOutput(const std::string& output);

/// Checks SAMPLE rows against the oracle: `want` rows, each inside the
/// predicate and printed with its true values, no row_id twice. Returns
/// an empty string when they pass.
class Oracle;
std::string CheckSampleRows(const Oracle& oracle, const SampleRows& rows,
                            uint64_t want, const Range& day,
                            const Range* amount);

/// Every per-layer metric, in the order printed. A layer a workload does
/// not exercise reads 0 there.
struct LayerMetrics {
  double read_p99_ms = 0;  ///< tail of the end-to-end read latency
  double serve_outside_exec_us = 0;
  double serve_bytes_per_response = 0;
  double query_exec_us = 0;
  double query_first_wall_ms = 0;
  double query_drain_wall_ms = 0;
  LayerFigures replay;
  double core_delta_rows = 0;
  double core_leaf_reads_per_sample = 0;
  double sampling_samples_to_bound = 0;
  double sampling_deadline_samples = 0;
  double io_seeks_per_query = 0;
  double io_read_mb_per_query = 0;
  double io_pages_per_access = 0;
  double io_first_modeled_ms = 0;
  double io_drain_modeled_ms = 0;
  double io_build_modeled_s = 0;
  double extsort_build_merge_passes = 0;
  double ingest_insert_exec_us = 0;
  double ingest_insert_p50_ms = 0;
  double ingest_flushes = 0;
  double ingest_compactions = 0;
  double ingest_compact_ms = 0;
  double ingest_wal_bytes_per_row = 0;
  double extsort_records_per_inserted_row = 0;
  double obs_trace_overhead_pct = 0;
};
void AddLayerMetrics(const LayerMetrics& m, Report* report);

/// The end-to-end metrics every workload prints, in the order printed.
struct EndToEnd {
  double setup_s = 0;
  double read_per_s = 0;
  std::vector<double> read_ms;  ///< per fixed-work read
  double view_bytes_per_row = 0;
  double peak_rss_mb = 0;
};
void AddEndToEnd(const EndToEnd& e, Report* report);
/// Fails the run if the reads are too few for a p99 with ten beyond it.
void CheckReadCount(const std::vector<double>& read_ms, Report* report);

/// Writes the traced run's spans to <out_dir>/spans-<workload>-<seed>.json.
void DumpSpans(const Args& args, const SpanRecorder& spans, Report* report);

void RunServeRead(const Args& args, Report* report);
void RunDrainSimdisk(const Args& args, Report* report);
void RunIngestMixed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
