// serve_read: a closed loop of four TCP sessions against an in-process
// serve::Server over an in-memory Env. One 1M-row SALE table, one view
// indexed on day (v1) and one on (day, amount) (v2). Every statement is
// about a millisecond of work, so framing, the admission queue, parse and
// count are a large share of it; there is no disk model and no delta.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "io/env.h"
#include "oracle.h"
#include "query/executor.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSessions = 4;
constexpr size_t kDepth = 2;  // requests in flight per session
constexpr double kSliceSec = 0.5;  // traced runs alternate slices
/// Statements sent in the first second run and are checked, but are left
/// out of the figures: the machine settles after the set-up.
constexpr double kWarmupSec = 1.0;

enum class Kind { kAvg1d, kWithin5, kSample100, kAvg2d, kCountAll, kDeadline };

/// The statement mix, in percent; the shares add up to 100.
struct Share {
  Kind kind;
  int pct;
};
constexpr Share kMix[] = {
    {Kind::kAvg1d, 40},     {Kind::kWithin5, 15},  {Kind::kSample100, 15},
    {Kind::kAvg2d, 22},     {Kind::kCountAll, 3},  {Kind::kDeadline, 5},
};

struct Statement {
  Kind kind = Kind::kAvg1d;
  Range day;
  Range amount;  // kAvg2d only
  std::string text;
};

Statement Draw(Rng& rng) {
  Statement s;
  int roll = static_cast<int>(rng.Below(100));
  for (const Share& share : kMix) {
    if (roll < share.pct) {
      s.kind = share.kind;
      break;
    }
    roll -= share.pct;
  }
  const double sel = LogUniform(rng, 0.0025, 0.10);
  switch (s.kind) {
    case Kind::kAvg1d:
      s.day = DayRange(rng, sel);
      s.text = "ESTIMATE AVG(amount) FROM v1 WHERE " + Between("day", s.day) +
               " SAMPLES 256;";
      break;
    case Kind::kWithin5:
      s.day = DayRange(rng, sel);
      s.text = "ESTIMATE AVG(amount) FROM v1 WHERE " + Between("day", s.day) +
               " WITHIN 5%;";
      break;
    case Kind::kSample100:
      s.day = DayRange(rng, sel);
      s.text = "SAMPLE FROM v1 WHERE " + Between("day", s.day) + " LIMIT 100;";
      break;
    case Kind::kAvg2d:
      Box(rng, sel, &s.day, &s.amount);
      s.text = "ESTIMATE AVG(amount) FROM v2 WHERE " + Between("day", s.day) +
               " AND " + Between("amount", s.amount) + " SAMPLES 256;";
      break;
    case Kind::kCountAll:
      s.text = "ESTIMATE COUNT(*) FROM v1;";
      break;
    case Kind::kDeadline:
      s.day = DayRange(rng, sel);
      s.text = "ESTIMATE AVG(amount) FROM v1 WHERE " + Between("day", s.day) +
               " WITHIN 2 MS;";
      break;
  }
  return s;
}

/// One completed statement, reduced to what the checks need.
struct Done {
  Statement stmt;
  Reply reply;
  double latency_us = 0;
  bool traced = false;
  bool warmup = false;
  SampleRows rows;  // kSample100 only
};

/// Checks that 95% intervals cover the oracle's value at the nominal rate
/// less three standard errors. A run builds each view once, and a view's
/// sample is fixed by its build: intervals over overlapping ranges share
/// records, so their coverage varies from build to build far more than a
/// binomial count allows. Over 13 seeds (one build each) it ranged
/// 0.935-0.961, a standard deviation near 0.01, which is the standard
/// error used unless the binomial one is larger. Returns an empty string when
/// the check passes.
std::string CoverageProblem(uint64_t intervals, uint64_t covered,
                            const char* what) {
  if (intervals == 0) return "";
  constexpr double kBuildSd = 0.01;
  const double n = static_cast<double>(intervals);
  const double rate = static_cast<double>(covered) / n;
  const double se = std::max(kBuildSd, std::sqrt(0.95 * 0.05 / n));
  std::fprintf(stderr, "%s coverage %.4f of %llu intervals\n", what, rate,
               static_cast<unsigned long long>(intervals));
  if (rate >= 0.95 - 3 * se) return "";
  return std::string(what) + " intervals covered " + std::to_string(rate) +
         ", below 0.95 less three standard errors of " + std::to_string(se);
}

}  // namespace

void RunServeRead(const Args& args, Report* report) {
  LayerMetrics layers;
  EndToEnd e2e;

  // ---- set-up: empty Env to views built and the server listening.
  const CounterSnapshot before_setup = CounterSnapshot::Take();
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
      ";\nCREATE MATERIALIZED SAMPLE VIEW v1 AS SELECT * FROM sale INDEX ON "
      "day;\nCREATE MATERIALIZED SAMPLE VIEW v2 AS SELECT * FROM sale INDEX "
      "ON day, amount;");
  if (!built.ok()) return report->Fail("set-up: " + built.status().ToString());
  msv::serve::ServerOptions options;
  options.workers = kSessions;
  auto server = std::make_unique<msv::serve::Server>(executor.get(), options);
  if (msv::Status s = server->Start(); !s.ok()) {
    return report->Fail("server start: " + s.ToString());
  }
  e2e.setup_s = NowSec() - ProcessStartSec();
  layers.extsort_build_merge_passes = static_cast<double>(
      CounterSnapshot::Take().Since(before_setup, "extsort.merge_passes"));

  // ---- timed phase.
  SpanRecorder spans;
  spans.set_enabled(args.trace);
  std::vector<std::vector<Done>> done(kSessions);
  std::vector<std::string> errors(kSessions);
  const CounterSnapshot before = CounterSnapshot::Take();
  const double start = NowSec();
  const double stop = start + args.seconds;
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto client = msv::serve::Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        errors[i] = client.status().ToString();
        return;
      }
      Rng rng(StreamSeed(args.seed, 10 + i));
      // A window of kDepth requests in flight per session keeps the
      // workers busy, so the figures measure work rather than how fast
      // idle threads are woken.
      struct InFlight {
        Done d;
        double t0 = 0;
        uint64_t root = 0;
      };
      std::map<uint64_t, InFlight> inflight;
      uint64_t next_id = 1;
      for (;;) {
        for (double now = NowSec(); inflight.size() < kDepth && now < stop;
             now = NowSec()) {
          InFlight f;
          f.d.stmt = Draw(rng);
          // Traced runs record client spans in every other slice only, so
          // traced and untraced latencies come from the same run.
          f.d.traced = args.trace &&
                       static_cast<int64_t>((now - start) / kSliceSec) % 2 == 1;
          const uint64_t id = (static_cast<uint64_t>(i) << 40) | next_id++;
          f.t0 = NowSec();
          f.d.warmup = f.t0 < start + kWarmupSec;
          f.root = f.d.traced ? spans.Begin("request", 0, id) : 0;
          const uint64_t send =
              f.d.traced ? spans.Begin("client.send", f.root, id) : 0;
          msv::Status sent = (*client)->Send(id, f.d.stmt.text);
          spans.End(send);
          if (!sent.ok()) {
            errors[i] = sent.ToString();
            return;
          }
          inflight.emplace(id, std::move(f));
        }
        if (inflight.empty()) break;
        auto doc = (*client)->Read(60000);
        const msv::obs::Json* id_field = doc.ok() ? doc->Find("id") : nullptr;
        auto it = id_field == nullptr
                      ? inflight.end()
                      : inflight.find(static_cast<uint64_t>(id_field->AsNumber()));
        if (it == inflight.end()) {
          errors[i] = doc.ok() ? "reply with an unknown id"
                               : doc.status().ToString();
          return;
        }
        Done d = std::move(it->second.d);
        d.latency_us = (NowSec() - it->second.t0) * 1e6;
        spans.End(it->second.root);
        inflight.erase(it);
        d.reply = ToReply(doc);
        if (d.stmt.kind == Kind::kSample100 && d.reply.ok) {
          d.rows = ParseSampleOutput(d.reply.output);
        }
        d.reply.output.clear();
        done[i].push_back(std::move(d));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = NowSec() - start;
  const CounterSnapshot after = CounterSnapshot::Take();
  e2e.peak_rss_mb = PeakRssMb();
  e2e.view_bytes_per_row =
      static_cast<double>(FilesBytes(env.get(), "view.v1.")) /
      static_cast<double>(kRows);
  server->Stop();
  for (int i = 0; i < kSessions; ++i) {
    report->Check(errors[i].empty(), "session " + std::to_string(i) + ": " +
                                         errors[i]);
  }

  // ---- checks against the oracle, after the timed phase.
  auto oracle = Oracle::Build(env.get(), "tbl.sale");
  if (!oracle.ok()) return report->Fail("oracle: " + oracle.status().ToString());
  uint64_t fixed_intervals = 0, fixed_covered = 0;
  uint64_t within_intervals = 0, within_covered = 0;
  std::vector<double> outside_us, exec_us, deadline_samples, to_bound;
  std::vector<double> traced_ms, untraced_ms;
  uint64_t statements = 0;
  for (const std::vector<Done>& session : done) {
    for (const Done& d : session) {
      ++report->attempted;
      statements += !d.warmup;
      const Reply& r = d.reply;
      if (!r.ok) {
        report->Fail("statement failed: " + d.stmt.text + " -> " + r.error);
        continue;
      }
      if (d.stmt.kind != Kind::kDeadline && !d.warmup) {
        e2e.read_ms.push_back(d.latency_us / 1e3);
        outside_us.push_back(d.latency_us - static_cast<double>(r.elapsed_us));
        exec_us.push_back(static_cast<double>(r.elapsed_us));
        (d.traced ? traced_ms : untraced_ms).push_back(d.latency_us / 1e3);
      }
      switch (d.stmt.kind) {
        case Kind::kAvg1d:
        case Kind::kAvg2d: {
          const Oracle::Answer truth =
              d.stmt.kind == Kind::kAvg1d
                  ? (*oracle)->Range1D(d.stmt.day)
                  : (*oracle)->Box(d.stmt.day, d.stmt.amount);
          report->Check(r.has_estimate && r.samples == 256,
                        "SAMPLES 256 answered with " +
                            std::to_string(r.samples) + ": " + d.stmt.text);
          ++fixed_intervals;
          fixed_covered += std::fabs(r.value - truth.Avg()) <= r.half_width;
          break;
        }
        case Kind::kWithin5: {
          const Oracle::Answer truth = (*oracle)->Range1D(d.stmt.day);
          report->Check(r.has_estimate && !r.partial &&
                            r.half_width <= 0.05 * std::fabs(r.value) * (1 + 1e-12),
                        "WITHIN 5% missed its bound: " + d.stmt.text);
          ++within_intervals;
          within_covered += std::fabs(r.value - truth.Avg()) <= r.half_width;
          to_bound.push_back(static_cast<double>(r.samples));
          break;
        }
        case Kind::kSample100: {
          const std::string problem =
              CheckSampleRows(**oracle, d.rows, 100, d.stmt.day, nullptr);
          report->Check(problem.empty(), problem + ": " + d.stmt.text);
          break;
        }
        case Kind::kCountAll:
          report->Check(r.has_estimate &&
                            r.value == static_cast<double>(kRows),
                        "unbounded COUNT(*) = " + std::to_string(r.value));
          break;
        case Kind::kDeadline:
          report->Check(r.has_estimate && r.samples > 0,
                        "WITHIN 2 MS returned no samples: " + d.stmt.text);
          if (!d.warmup) deadline_samples.push_back(static_cast<double>(r.samples));
          break;
      }
    }
  }
  for (const std::string& problem :
       {CoverageProblem(fixed_intervals, fixed_covered, "SAMPLES 256"),
        CoverageProblem(within_intervals, within_covered, "WITHIN 5%")}) {
    report->Check(problem.empty(), problem);
  }

  e2e.read_per_s = static_cast<double>(statements) / (elapsed - kWarmupSec);
  layers.sampling_deadline_samples = Mean(deadline_samples);
  CheckReadCount(e2e.read_ms, report);
  if (!args.trace) return AddEndToEnd(e2e, report);
  layers.read_p99_ms = Quantile(e2e.read_ms, 0.99);

  // ---- traced run: counter deltas, then the layer replay.
  const double responses = static_cast<double>(after.Since(before, "serve.responses"));
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
  layers.sampling_samples_to_bound = Median(to_bound);
  layers.obs_trace_overhead_pct = OverheadPct(traced_ms, untraced_ms);

  server.reset();
  executor.reset();
  std::vector<ReplayStatement> replay;
  Rng rng(StreamSeed(args.seed, 50));
  while (replay.size() < 150) {
    const Statement s = Draw(rng);
    ReplayStatement r;
    r.text = s.text;
    switch (s.kind) {
      case Kind::kAvg1d:
        r.kind = ReplayStatement::Kind::kSamples;
        r.n = 256;
        break;
      case Kind::kWithin5:
        r.kind = ReplayStatement::Kind::kWithinPct;
        r.pct = 5;
        break;
      case Kind::kSample100:
        r.kind = ReplayStatement::Kind::kLimit;
        r.n = 100;
        break;
      case Kind::kAvg2d:
        r.kind = ReplayStatement::Kind::kSamples;
        r.n = 256;
        break;
      default:
        continue;  // COUNT(*) and deadline statements are not replayed
    }
    r.view = s.kind == Kind::kAvg2d ? "v2" : "v1";
    r.query = s.kind == Kind::kAvg2d
                  ? msv::sampling::RangeQuery::TwoDim(s.day.lo, s.day.hi,
                                                      s.amount.lo, s.amount.hi)
                  : msv::sampling::RangeQuery::OneDim(s.day.lo, s.day.hi);
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
