// ingest_mixed: an open loop through the server on a 1M-row view indexed
// on day. One session sends `INSERT INTO v ROWS 197` at 15 statements/s
// (2,955 rows/s) and two sessions each send 50 reads/s: SAMPLES-256
// ESTIMATEs and a twentieth of short WITHIN 5 MS ones. It is the only
// workload that exercises the WAL, the memtable, runs and compaction, and
// the only one where read cost depends on the un-compacted delta. Faster
// inserts keep compaction running without a break and the open loop then
// falls behind whenever the host is loaded.
//
// Each session's arrivals are a Poisson process conditioned on its count:
// rate x seconds arrival times drawn uniformly over the run and sorted, so
// the gaps are exponential and every run attempts the same number of
// operations. A request is timed from when it was due, so a stall is
// charged to every request it delays.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "io/env.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kInsertsPerSec = 15;
/// Odd, so the inserted total is never a multiple of the memtable size and
/// the final memtable always holds rows (which the COUNT(*) check needs).
constexpr uint64_t kRowsPerInsert = 197;
constexpr int kReaders = 2;
constexpr double kReadsPerSecPerReader = 50;
constexpr int kDeadlinePct = 5;
constexpr double kSliceSec = 0.5;
/// Requests due in the first five seconds are sent and checked but left
/// out of the figures: read latency settles only once the set-up's memory
/// is released and the first compaction has started (after 16,384 rows).
constexpr double kWarmupSec = 5.0;

/// `n` arrival offsets in [0, seconds), sorted.
std::vector<double> Arrivals(Rng& rng, size_t n, double seconds) {
  std::vector<double> t(n);
  for (double& x : t) x = rng.Uniform() * seconds;
  std::sort(t.begin(), t.end());
  return t;
}

enum class Kind { kInsert, kRead, kDeadline };

struct Op {
  Kind kind = Kind::kRead;
  double due = 0;  ///< offset from the start of the timed phase, s
  std::string text;
  Reply reply;
  double latency_ms = 0;  ///< from due to reply
  double service_us = 0;  ///< from actual send to reply
  double delta_rows = 0;  ///< runs + memtable when sent
  bool traced = false;
};

std::string ReadText(Rng& rng, Kind kind) {
  const Range day = DayRange(rng, LogUniform(rng, 0.0025, 0.10));
  return "ESTIMATE AVG(amount) FROM v WHERE " + Between("day", day) +
         (kind == Kind::kRead ? " SAMPLES 256;" : " WITHIN 5 MS;");
}

double Gauge(const char* name) {
  return msv::obs::MetricRegistry::Global().GetGauge(name)->Value();
}

}  // namespace

void RunIngestMixed(const Args& args, Report* report) {
  LayerMetrics layers;
  EndToEnd e2e;

  // ---- set-up.
  auto env = msv::io::NewMemEnv();
  std::unique_ptr<msv::query::Executor> executor;
  {
    auto opened = msv::query::Executor::Open(env.get());
    if (!opened.ok()) return report->Fail(opened.status().ToString());
    executor = std::move(*opened);
  }
  auto built = executor->Run(
      "GENERATE TABLE sale ROWS " + std::to_string(kRows) + " SEED " +
      std::to_string(args.seed) +
      ";\nCREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale INDEX ON "
      "day;");
  if (!built.ok()) return report->Fail("set-up: " + built.status().ToString());
  msv::serve::ServerOptions options;
  options.workers = 4;
  // An open loop is never shed: a stall must show as latency, not as
  // overload errors.
  options.max_queue = 1 << 16;
  auto server = std::make_unique<msv::serve::Server>(executor.get(), options);
  if (msv::Status s = server->Start(); !s.ok()) {
    return report->Fail("server start: " + s.ToString());
  }
  e2e.setup_s = NowSec() - ProcessStartSec();

  // ---- the schedule: one writer session, then the readers.
  std::vector<std::vector<Op>> sessions(1 + kReaders);
  {
    Rng rng(StreamSeed(args.seed, 30));
    const auto due = Arrivals(
        rng, static_cast<size_t>(std::llround(kInsertsPerSec * args.seconds)),
        args.seconds);
    for (size_t k = 0; k < due.size(); ++k) {
      Op op;
      op.kind = Kind::kInsert;
      op.due = due[k];
      op.text = "INSERT INTO v ROWS " + std::to_string(kRowsPerInsert) +
                " SEED " + std::to_string(rng.Below(1u << 30)) + ";";
      sessions[0].push_back(std::move(op));
    }
  }
  for (int r = 0; r < kReaders; ++r) {
    Rng rng(StreamSeed(args.seed, 31 + r));
    const auto due = Arrivals(
        rng,
        static_cast<size_t>(std::llround(kReadsPerSecPerReader * args.seconds)),
        args.seconds);
    for (double t : due) {
      Op op;
      op.kind = rng.Below(100) < kDeadlinePct ? Kind::kDeadline : Kind::kRead;
      op.due = t;
      op.text = ReadText(rng, op.kind);
      sessions[1 + r].push_back(std::move(op));
    }
  }

  // ---- timed phase.
  SpanRecorder spans;
  spans.set_enabled(args.trace);
  std::vector<std::string> errors(sessions.size());
  const CounterSnapshot before = CounterSnapshot::Take();
  uint64_t compact_count0 = 0, compact_sum0 = 0;
  HistogramTotals("ingest.compact_us", &compact_count0, &compact_sum0);
  const double start = NowSec();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sessions.size(); ++i) {
    threads.emplace_back([&, i] {
      auto client = msv::serve::Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        errors[i] = client.status().ToString();
        return;
      }
      // Sends each request when it is due, whether or not earlier replies
      // have come back; replies are matched by id as they arrive.
      std::vector<Op>& ops = sessions[i];
      std::map<uint64_t, size_t> inflight;  // request id -> op index
      std::map<uint64_t, double> sent_at;
      std::map<uint64_t, uint64_t> roots;
      size_t next = 0;
      while (next < ops.size() || !inflight.empty()) {
        const double now = NowSec() - start;
        if (next < ops.size() && ops[next].due <= now) {
          Op& op = ops[next];
          op.traced = args.trace &&
                      static_cast<int64_t>(op.due / kSliceSec) % 2 == 1;
          if (op.kind != Kind::kInsert) {
            op.delta_rows =
                Gauge("ingest.memtable_records") + Gauge("ingest.run_records");
          }
          const uint64_t id = (static_cast<uint64_t>(i) << 40) | (next + 1);
          roots[id] = op.traced ? spans.Begin("request", 0, id) : 0;
          sent_at[id] = NowSec();
          if (msv::Status sent = (*client)->Send(id, op.text); !sent.ok()) {
            errors[i] = sent.ToString();
            return;
          }
          inflight[id] = next++;
          continue;
        }
        const double wait_s = next < ops.size() ? ops[next].due - now : 1.0;
        const auto wait_ms =
            static_cast<uint64_t>(std::ceil(std::max(0.0, wait_s) * 1e3));
        if (inflight.empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
          continue;
        }
        // Read, not poll: the client may already hold a whole reply.
        auto doc = (*client)->Read(wait_ms);
        if (!doc.ok() && doc.status().message() == "response timeout") continue;
        const msv::obs::Json* id_field = doc.ok() ? doc->Find("id") : nullptr;
        const uint64_t id =
            id_field ? static_cast<uint64_t>(id_field->AsNumber()) : 0;
        auto it = inflight.find(id);
        if (it == inflight.end()) {
          errors[i] = doc.ok() ? "reply with an unknown id"
                               : doc.status().ToString();
          return;
        }
        Op& op = ops[it->second];
        inflight.erase(it);
        spans.End(roots[id]);
        const double done_at = NowSec();
        op.latency_ms = (done_at - start - op.due) * 1e3;
        op.service_us = (done_at - sent_at[id]) * 1e6;
        op.reply = ToReply(doc);
        op.reply.output.resize(std::min<size_t>(op.reply.output.size(), 64));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const CounterSnapshot after = CounterSnapshot::Take();
  uint64_t compact_count1 = 0, compact_sum1 = 0;
  HistogramTotals("ingest.compact_us", &compact_count1, &compact_sum1);
  for (size_t i = 0; i < errors.size(); ++i) {
    report->Check(errors[i].empty(),
                  "session " + std::to_string(i) + ": " + errors[i]);
  }

  // ---- checks after the writer stopped.
  const uint64_t inserted = sessions[0].size() * kRowsPerInsert;
  const uint64_t total = kRows + inserted;
  auto client = msv::serve::Client::Connect("127.0.0.1", server->port());
  if (!client.ok()) return report->Fail(client.status().ToString());
  // Known fault: COUNT(*) is answered from the base tree's counts only, so
  // rows still in runs or the memtable are missing from it. Counted as a
  // failed operation; the run stays correct.
  {
    ++report->attempted;
    const Reply r = ToReply((*client)->Call("ESTIMATE COUNT(*) FROM v;"));
    if (!r.ok || r.value != static_cast<double>(total)) {
      ++report->failed;
      std::fprintf(stderr,
                   "known fault: unbounded COUNT(*) = %.0f, truth %llu\n",
                   r.value, static_cast<unsigned long long>(total));
    }
  }
  // Row conservation: every acknowledged row is in the view exactly once,
  // across flushes and compactions: N samples with mean (N - 1) / 2.
  {
    ++report->attempted;
    const Reply r = ToReply((*client)->Call(
        "ESTIMATE AVG(row_id) FROM v SAMPLES 100000000;", 120000));
    const double want = static_cast<double>(total - 1) / 2.0;
    report->Check(r.ok && r.samples == total &&
                      std::fabs(r.value - want) <= 1e-9 * want,
                  "row conservation: " + std::to_string(r.samples) +
                      " samples with mean " + std::to_string(r.value) +
                      ", want " + std::to_string(total) + " with mean " +
                      std::to_string(want) + " " + r.error);
  }

  std::vector<double> insert_ms, insert_exec_us, exec_us, outside_us, deltas,
      deadline_samples, traced_ms, untraced_ms;
  double last_read_done = 0;
  for (const std::vector<Op>& session : sessions) {
    for (const Op& op : session) {
      ++report->attempted;
      if (!op.reply.ok) {
        report->Fail("statement failed: " + op.text + " -> " + op.reply.error);
        continue;
      }
      const bool measured = op.due >= kWarmupSec;
      switch (op.kind) {
        case Kind::kInsert:
          report->Check(op.reply.output.rfind("inserted " +
                                                  std::to_string(kRowsPerInsert) +
                                                  " rows",
                                              0) == 0,
                        "INSERT not acknowledged: " + op.reply.output);
          if (!measured) break;
          insert_ms.push_back(op.latency_ms);
          insert_exec_us.push_back(static_cast<double>(op.reply.elapsed_us));
          break;
        case Kind::kRead:
          report->Check(op.reply.has_estimate && op.reply.samples == 256,
                        "SAMPLES 256 answered with " +
                            std::to_string(op.reply.samples) + ": " + op.text);
          if (!measured) break;
          e2e.read_ms.push_back(op.latency_ms);
          exec_us.push_back(static_cast<double>(op.reply.elapsed_us));
          outside_us.push_back(op.service_us -
                               static_cast<double>(op.reply.elapsed_us));
          deltas.push_back(op.delta_rows);
          (op.traced ? traced_ms : untraced_ms).push_back(op.latency_ms);
          break;
        case Kind::kDeadline:
          report->Check(op.reply.has_estimate && op.reply.samples > 0,
                        "WITHIN 5 MS returned no samples: " + op.text);
          if (measured) deadline_samples.push_back(static_cast<double>(op.reply.samples));
          break;
      }
      if (op.kind != Kind::kInsert && measured) {
        last_read_done =
            std::max(last_read_done, op.due + op.latency_ms / 1e3);
      }
    }
  }
  const size_t reads = e2e.read_ms.size() + deadline_samples.size();
  e2e.read_per_s = last_read_done > kWarmupSec
                       ? static_cast<double>(reads) / (last_read_done - kWarmupSec)
                       : 0;
  layers.sampling_deadline_samples = Mean(deadline_samples);

  // Space is measured once compaction is idle: no trigger pending and a
  // single base generation on disk.
  for (int polls = 0, calm = 0; polls < 600 && calm < 3; ++polls) {
    auto files = env->ListFiles();
    size_t bases = 0;
    if (files.ok()) {
      for (const std::string& f : *files) bases += f.rfind("view.v.base.g", 0) == 0;
    }
    const bool idle = Gauge("ingest.runs") < 4 &&
                      Gauge("ingest.run_records") <=
                          0.10 * Gauge("ingest.base_records") &&
                      bases == 1;
    calm = idle ? calm + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  e2e.view_bytes_per_row = static_cast<double>(FilesBytes(env.get(), "view.v.")) /
                           static_cast<double>(total);
  e2e.peak_rss_mb = PeakRssMb();
  (*client)->Close();
  server->Stop();
  CheckReadCount(e2e.read_ms, report);
  if (!args.trace) return AddEndToEnd(e2e, report);
  layers.read_p99_ms = Quantile(e2e.read_ms, 0.99);

  // ---- traced run.
  const double responses =
      static_cast<double>(after.Since(before, "serve.responses"));
  if (responses > 0) {
    layers.serve_bytes_per_response =
        static_cast<double>(after.Since(before, "serve.bytes_out")) / responses;
  }
  const double emitted =
      static_cast<double>(after.Since(before, "view.samples_emitted"));
  if (emitted > 0) {
    layers.core_leaf_reads_per_sample =
        static_cast<double>(after.Since(before, "ace.leaf_reads")) / emitted;
  }
  layers.serve_outside_exec_us = Median(outside_us);
  layers.query_exec_us = Median(exec_us);
  layers.core_delta_rows = Median(deltas);
  layers.ingest_insert_exec_us = Median(insert_exec_us);
  layers.ingest_insert_p50_ms = Median(insert_ms);
  layers.ingest_flushes =
      static_cast<double>(after.Since(before, "ingest.flushes"));
  layers.ingest_compactions =
      static_cast<double>(after.Since(before, "ingest.compactions"));
  if (compact_count1 > compact_count0) {
    layers.ingest_compact_ms = static_cast<double>(compact_sum1 - compact_sum0) /
                               1e3 /
                               static_cast<double>(compact_count1 - compact_count0);
  }
  layers.ingest_wal_bytes_per_row =
      static_cast<double>(after.Since(before, "ingest.wal_bytes")) /
      static_cast<double>(inserted);
  layers.extsort_records_per_inserted_row =
      static_cast<double>(after.Since(before, "extsort.records")) /
      static_cast<double>(inserted);
  layers.obs_trace_overhead_pct = OverheadPct(traced_ms, untraced_ms);

  server.reset();
  executor.reset();
  std::vector<ReplayStatement> replay;
  Rng rng(StreamSeed(args.seed, 50));
  while (replay.size() < 100) {
    const Range day = DayRange(rng, LogUniform(rng, 0.0025, 0.10));
    ReplayStatement r;
    r.kind = ReplayStatement::Kind::kSamples;
    r.n = 256;
    r.view = "v";
    r.text = "ESTIMATE AVG(amount) FROM v WHERE " + Between("day", day) +
             " SAMPLES 256;";
    r.query = msv::sampling::RangeQuery::OneDim(day.lo, day.hi);
    replay.push_back(std::move(r));
  }
  if (msv::Status st = ReplayLayers(env.get(), replay, spans, &layers.replay);
      !st.ok()) {
    return report->Fail("replay: " + st.ToString());
  }
  DumpSpans(args, spans, report);
  AddLayerMetrics(layers, report);
}

}  // namespace perfbench
