#include "workloads.h"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include "oracle.h"

namespace perfbench {

Reply ToReply(const msv::Result<msv::obs::Json>& doc) {
  Reply r;
  if (!doc.ok()) {
    r.error = "transport: " + doc.status().ToString();
    return r;
  }
  const msv::obs::Json* ok = doc->Find("ok");
  r.ok = ok != nullptr && ok->AsBool();
  if (!r.ok) {
    if (const msv::obs::Json* e = doc->Find("error")) {
      const msv::obs::Json* kind = e->Find("kind");
      const msv::obs::Json* message = e->Find("message");
      r.error = (kind ? kind->AsString() : "?") + ": " +
                (message ? message->AsString() : "?");
    }
    return r;
  }
  if (const msv::obs::Json* out = doc->Find("output")) r.output = out->AsString();
  if (const msv::obs::Json* e = doc->Find("elapsed_us")) {
    r.elapsed_us = static_cast<uint64_t>(e->AsNumber());
  }
  if (const msv::obs::Json* est = doc->Find("estimate")) {
    r.has_estimate = true;
    if (const auto* v = est->Find("value")) r.value = v->AsNumber();
    if (const auto* v = est->Find("half_width")) r.half_width = v->AsNumber();
    if (const auto* v = est->Find("samples")) {
      r.samples = static_cast<uint64_t>(v->AsNumber());
    }
    if (const auto* v = est->Find("is_partial")) r.partial = v->AsBool();
  }
  return r;
}

SampleRows ParseSampleOutput(const std::string& output) {
  // Header "day | amount | cust | part | supp | row_id", one line per row,
  // then "(n random samples)".
  SampleRows rows;
  std::istringstream in(output);
  std::string line;
  if (!std::getline(in, line) || line.rfind("day | amount", 0) != 0) {
    return rows;
  }
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '(') {
      rows.trailer = std::strtoull(line.c_str() + 1, nullptr, 10);
      rows.parsed = true;
      break;
    }
    double field[6];
    const char* p = line.c_str();
    for (int f = 0; f < 6; ++f) {
      char* end = nullptr;
      field[f] = std::strtod(p, &end);
      if (end == p) return rows;
      p = end;
      while (*p == ' ' || *p == '|') ++p;
    }
    rows.days.push_back(field[0]);
    rows.amounts.push_back(field[1]);
    rows.row_ids.push_back(static_cast<uint64_t>(field[5]));
  }
  return rows;
}

std::string CheckSampleRows(const Oracle& oracle, const SampleRows& rows,
                            uint64_t want, const Range& day,
                            const Range* amount) {
  if (!rows.parsed) return "unparseable SAMPLE output";
  if (rows.row_ids.size() != want || rows.trailer != want) {
    return "SAMPLE returned " + std::to_string(rows.row_ids.size()) +
           " rows, wanted " + std::to_string(want);
  }
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < rows.row_ids.size(); ++i) {
    double d = 0, a = 0;
    if (!oracle.Lookup(rows.row_ids[i], &d, &a)) return "unknown row_id";
    // Rows are printed with four decimals.
    if (std::fabs(d - rows.days[i]) > 1e-4 ||
        std::fabs(a - rows.amounts[i]) > 1e-4) {
      return "row " + std::to_string(rows.row_ids[i]) + " printed wrongly";
    }
    if (d < day.lo || d > day.hi ||
        (amount != nullptr && (a < amount->lo || a > amount->hi))) {
      return "row " + std::to_string(rows.row_ids[i]) + " outside predicate";
    }
    if (!seen.insert(rows.row_ids[i]).second) {
      return "row " + std::to_string(rows.row_ids[i]) + " repeated";
    }
  }
  return "";
}

void AddLayerMetrics(const LayerMetrics& m, Report* report) {
  report->Add("read_p99_ms", "ms", m.read_p99_ms);
  report->Add("serve.outside_exec_us", "us", m.serve_outside_exec_us);
  report->Add("serve.bytes_per_response", "B", m.serve_bytes_per_response);
  report->Add("query.exec_us", "us", m.query_exec_us);
  report->Add("query.first_wall_ms", "ms", m.query_first_wall_ms);
  report->Add("query.drain_wall_ms", "ms", m.query_drain_wall_ms);
  report->Add("query.parse_us", "us", m.replay.parse_us);
  report->Add("query.count_us", "us", m.replay.count_us);
  report->Add("query.unattributed_us", "us", m.replay.unattributed_us);
  report->Add("core.sample_open_us", "us", m.replay.sample_open_us);
  report->Add("core.delta_rows", "rows", m.core_delta_rows);
  report->Add("core.next_batch_us_per_sample", "us",
              m.replay.next_batch_us_per_sample);
  report->Add("core.leaf_reads_per_sample", "ratio",
              m.core_leaf_reads_per_sample);
  report->Add("core.read_leaves_us_per_leaf", "us",
              m.replay.read_leaves_us_per_leaf);
  report->Add("sampling.match_ns_per_record", "ns",
              m.replay.match_ns_per_record);
  report->Add("sampling.consume_ns_per_sample", "ns",
              m.replay.consume_ns_per_sample);
  report->Add("sampling.samples_to_bound", "samples",
              m.sampling_samples_to_bound);
  report->Add("sampling.deadline_samples", "samples",
              m.sampling_deadline_samples);
  report->Add("io.seeks_per_query", "count", m.io_seeks_per_query);
  report->Add("io.read_mb_per_query", "MB", m.io_read_mb_per_query);
  report->Add("io.pages_per_access", "ratio", m.io_pages_per_access);
  report->Add("io.first_modeled_ms", "ms", m.io_first_modeled_ms);
  report->Add("io.drain_modeled_ms", "ms", m.io_drain_modeled_ms);
  report->Add("io.build_modeled_s", "s", m.io_build_modeled_s);
  report->Add("extsort.build_merge_passes", "count",
              m.extsort_build_merge_passes);
  report->Add("ingest.insert_exec_us", "us", m.ingest_insert_exec_us);
  report->Add("ingest.insert_p50_ms", "ms", m.ingest_insert_p50_ms);
  report->Add("ingest.flushes", "count", m.ingest_flushes);
  report->Add("ingest.compactions", "count", m.ingest_compactions);
  report->Add("ingest.compact_ms", "ms", m.ingest_compact_ms);
  report->Add("ingest.wal_bytes_per_row", "B", m.ingest_wal_bytes_per_row);
  report->Add("extsort.records_per_inserted_row", "ratio",
              m.extsort_records_per_inserted_row);
  report->Add("obs.trace_overhead_pct", "%", m.obs_trace_overhead_pct);
}

void AddEndToEnd(const EndToEnd& e, Report* report) {
  struct Figure {
    const char* name;
    const char* unit;
    double value;
  };
  const Figure figures[] = {
      {"setup_s", "s", e.setup_s},
      {"read_per_s", "1/s", e.read_per_s},
      {"read_p50_ms", "ms", Quantile(e.read_ms, 0.50)},
      {"view_bytes_per_row", "B", e.view_bytes_per_row},
      {"peak_rss_mb", "MB", e.peak_rss_mb}};
  for (const Figure& f : figures) {
    // Every end-to-end figure is a positive measurement; 0 means the run
    // did not measure it.
    report->Check(f.value > 0 && std::isfinite(f.value),
                  std::string(f.name) + " was not measured");
    report->Add(f.name, f.unit, f.value);
  }
}

void CheckReadCount(const std::vector<double>& read_ms, Report* report) {
  report->Check(read_ms.size() >= 1000,
                "only " + std::to_string(read_ms.size()) +
                    " reads; a p99 needs 1000");
}

void DumpSpans(const Args& args, const SpanRecorder& spans, Report* report) {
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  report->Check(EnsureDir(args.out_dir) && spans.WriteJson(path),
                "cannot write " + path);
}

}  // namespace perfbench
