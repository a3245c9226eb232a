// drain_simdisk: the paper's own experiment. One client runs statements
// serially through an in-process query::Executor whose in-memory Env is
// wrapped in the simulated 15k-RPM disk (io::NewSimEnv), over a 1M-row
// view indexed on day. For ranges of 0.25%, 2.5% and 10% selectivity it
// asks for the first 1000 samples (Figs. 11-13), for as many samples as a
// 100 ms budget allows, and for every sample (Fig. 14). Modeled disk time
// repeats exactly for a seed, so leaf-I/O scheduling shows without noise;
// neither the server nor a delta is involved.
//
// A read's latency is what a user of the modeled disk would see: the
// statement's wall time plus the disk time the model charged it.

#include <cmath>
#include <memory>

#include "io/disk_model.h"
#include "io/env.h"
#include "obs/log.h"
#include "oracle.h"
#include "query/executor.h"
#include "query/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kSelectivities[] = {0.0025, 0.025, 0.10};
/// First-1000 statements per selectivity per round.
constexpr int kFirstPerRound = 50;

enum class Kind { kFirst, kDeadline, kDrain };

struct Statement {
  Kind kind = Kind::kFirst;
  Range day;
  std::string text;
};

Statement Make(Kind kind, Rng& rng, double selectivity) {
  Statement s;
  s.kind = kind;
  s.day = DayRange(rng, selectivity);
  const std::string where = " FROM v WHERE " + Between("day", s.day);
  switch (kind) {
    case Kind::kFirst:
      s.text = "SAMPLE" + where + " LIMIT 1000;";
      break;
    case Kind::kDeadline:
      s.text = "ESTIMATE AVG(amount)" + where + " WITHIN 100 MS;";
      break;
    case Kind::kDrain:
      s.text = "ESTIMATE AVG(amount)" + where + " SAMPLES 100000000;";
      break;
  }
  return s;
}

/// One round: for each selectivity kFirstPerRound first-1000 statements
/// and one deadline statement, then one drain, its selectivity rotating.
std::vector<Statement> Round(Rng& rng, uint64_t round) {
  std::vector<Statement> out;
  for (double sel : kSelectivities) {
    for (int i = 0; i < kFirstPerRound; ++i) {
      out.push_back(Make(Kind::kFirst, rng, sel));
    }
    out.push_back(Make(Kind::kDeadline, rng, sel));
  }
  out.push_back(Make(Kind::kDrain, rng, kSelectivities[round % 3]));
  return out;
}

struct Done {
  Statement stmt;
  double wall_ms = 0;
  double modeled_ms = 0;
  bool traced = false;
  bool ok = false;
  std::string error;
  msv::obs::StatementLedger ledger;
  SampleRows rows;  // kFirst only
};

}  // namespace

void RunDrainSimdisk(const Args& args, Report* report) {
  LayerMetrics layers;
  EndToEnd e2e;

  // ---- set-up: empty Env to the view built, all on the modeled disk.
  const CounterSnapshot before_setup = CounterSnapshot::Take();
  auto mem = msv::io::NewMemEnv();
  auto device = std::make_shared<msv::io::DiskDevice>();
  std::unique_ptr<msv::io::Env> env = msv::io::NewSimEnv(mem.get(), device);
  std::unique_ptr<msv::query::Executor> executor;
  {
    auto opened = msv::query::Executor::Open(env.get());
    if (!opened.ok()) return report->Fail(opened.status().ToString());
    executor = std::move(*opened);
  }
  auto generated = executor->Run("GENERATE TABLE sale ROWS " +
                                 std::to_string(kRows) + " SEED " +
                                 std::to_string(args.seed) + ";");
  if (!generated.ok()) return report->Fail(generated.status().ToString());
  const double build_start_ms = device->clock().NowMs();
  auto built = executor->Run(
      "CREATE MATERIALIZED SAMPLE VIEW v AS SELECT * FROM sale INDEX ON day;");
  if (!built.ok()) return report->Fail(built.status().ToString());
  layers.io_build_modeled_s = (device->clock().NowMs() - build_start_ms) / 1e3;
  e2e.setup_s = NowSec() - ProcessStartSec();
  layers.extsort_build_merge_passes = static_cast<double>(
      CounterSnapshot::Take().Since(before_setup, "extsort.merge_passes"));

  // ---- timed phase: whole rounds until the time is up.
  SpanRecorder spans;
  spans.set_enabled(args.trace);
  std::vector<Done> done;
  Rng rng(StreamSeed(args.seed, 20));
  const CounterSnapshot before = CounterSnapshot::Take();
  const double start = NowSec();
  for (uint64_t round = 0; NowSec() < start + args.seconds; ++round) {
    for (Statement& stmt : Round(rng, round)) {
      Done d;
      d.stmt = std::move(stmt);
      d.traced = args.trace && round % 2 == 1;  // every other round traced
      const uint64_t id = done.size() + 1;
      const uint64_t root = d.traced ? spans.Begin("request", 0, id) : 0;
      auto parsed = msv::query::ParseOne(d.stmt.text);
      const uint64_t disk_before = msv::io::ThreadDiskBusyUs();
      const double t0 = NowSec();
      const uint64_t exec = d.traced ? spans.Begin("query.execute", root, id) : 0;
      auto result = parsed.ok() ? executor->Execute(*parsed)
                                : msv::Result<std::string>(parsed.status());
      spans.End(exec);
      d.wall_ms = (NowSec() - t0) * 1e3;
      d.modeled_ms =
          static_cast<double>(msv::io::ThreadDiskBusyUs() - disk_before) / 1e3;
      spans.End(root);
      d.ok = result.ok();
      if (!d.ok) {
        d.error = result.status().ToString();
      } else {
        d.ledger = msv::obs::ThreadStatementLedger();
        if (d.stmt.kind == Kind::kFirst) d.rows = ParseSampleOutput(*result);
      }
      done.push_back(std::move(d));
    }
  }
  const CounterSnapshot after = CounterSnapshot::Take();
  e2e.peak_rss_mb = PeakRssMb();
  e2e.view_bytes_per_row = static_cast<double>(FilesBytes(mem.get(), "view.v.")) /
                           static_cast<double>(kRows);

  // ---- checks against the oracle.
  auto oracle = Oracle::Build(mem.get(), "tbl.sale");
  if (!oracle.ok()) return report->Fail("oracle: " + oracle.status().ToString());
  std::vector<double> first_modeled, first_wall, drain_modeled, drain_wall,
      deadline_samples, traced_ms, untraced_ms, exec_us;
  double read_seconds = 0;
  for (const Done& d : done) {
    ++report->attempted;
    if (!d.ok) {
      report->Fail("statement failed: " + d.stmt.text + " -> " + d.error);
      continue;
    }
    exec_us.push_back(d.wall_ms * 1e3);
    switch (d.stmt.kind) {
      case Kind::kFirst: {
        const std::string problem =
            CheckSampleRows(**oracle, d.rows, 1000, d.stmt.day, nullptr);
        report->Check(problem.empty(), problem + ": " + d.stmt.text);
        const double ms = d.wall_ms + d.modeled_ms;
        e2e.read_ms.push_back(ms);
        read_seconds += ms / 1e3;
        first_modeled.push_back(d.modeled_ms);
        first_wall.push_back(d.wall_ms);
        (d.traced ? traced_ms : untraced_ms).push_back(d.wall_ms);
        break;
      }
      case Kind::kDeadline:
        report->Check(d.ledger.has_estimate && d.ledger.samples > 0,
                      "WITHIN 100 MS returned no samples: " + d.stmt.text);
        deadline_samples.push_back(static_cast<double>(d.ledger.samples));
        break;
      case Kind::kDrain: {
        const Oracle::Answer truth = (*oracle)->Range1D(d.stmt.day);
        const double want = truth.Avg();
        report->Check(d.ledger.samples == truth.count,
                      "drain returned " + std::to_string(d.ledger.samples) +
                          " samples, oracle count " +
                          std::to_string(truth.count) + ": " + d.stmt.text);
        report->Check(std::fabs(d.ledger.estimate_value - want) <=
                          1e-9 * std::fabs(want),
                      "drained AVG differs from the oracle: " + d.stmt.text);
        drain_modeled.push_back(d.modeled_ms);
        drain_wall.push_back(d.wall_ms);
        break;
      }
    }
  }
  e2e.read_per_s =
      read_seconds > 0 ? static_cast<double>(e2e.read_ms.size()) / read_seconds
                       : 0;
  layers.sampling_deadline_samples = Mean(deadline_samples);
  CheckReadCount(e2e.read_ms, report);
  if (!args.trace) return AddEndToEnd(e2e, report);
  layers.read_p99_ms = Quantile(e2e.read_ms, 0.99);

  // ---- traced run.
  const double statements = static_cast<double>(done.size());
  layers.query_exec_us = Median(exec_us);
  layers.query_first_wall_ms = Median(first_wall);
  layers.query_drain_wall_ms = Median(drain_wall);
  layers.io_first_modeled_ms = Median(first_modeled);
  layers.io_drain_modeled_ms = Median(drain_modeled);
  layers.io_seeks_per_query =
      static_cast<double>(after.Since(before, "io.disk.seeks")) / statements;
  layers.io_read_mb_per_query =
      static_cast<double>(after.Since(before, "io.disk.read_bytes")) / 1e6 /
      statements;
  const double accesses =
      static_cast<double>(after.Since(before, "io.batch.accesses"));
  if (accesses > 0) {
    layers.io_pages_per_access =
        static_cast<double>(after.Since(before, "io.batch.pages")) / accesses;
  }
  const double emitted =
      static_cast<double>(after.Since(before, "view.samples_emitted"));
  if (emitted > 0) {
    layers.core_leaf_reads_per_sample =
        static_cast<double>(after.Since(before, "ace.leaf_reads")) / emitted;
  }
  layers.obs_trace_overhead_pct = OverheadPct(traced_ms, untraced_ms);

  executor.reset();
  // Replay: 15 first-1000 statements per selectivity and one drain.
  std::vector<Statement> subset;
  Rng replay_rng(StreamSeed(args.seed, 50));
  for (double sel : kSelectivities) {
    for (int i = 0; i < 15; ++i) subset.push_back(Make(Kind::kFirst, replay_rng, sel));
  }
  subset.push_back(Make(Kind::kDrain, replay_rng, kSelectivities[1]));
  std::vector<ReplayStatement> replay;
  for (const Statement& s : subset) {
    ReplayStatement r;
    r.kind = s.kind == Kind::kFirst ? ReplayStatement::Kind::kLimit
                                    : ReplayStatement::Kind::kDrain;
    r.n = 1000;
    r.view = "v";
    r.text = s.text;
    r.query = msv::sampling::RangeQuery::OneDim(s.day.lo, s.day.hi);
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
