#include "layers.h"

#include <map>
#include <memory>

#include "core/ace_sampler.h"
#include "core/sample_view.h"
#include "query/executor.h"
#include "query/parser.h"
#include "sampling/online_aggregator.h"
#include "sampling/stopping_rule.h"
#include "storage/record.h"
#include "storage/record_view.h"

namespace perfbench {

using msv::Result;
using msv::Status;

namespace {

/// Query::Executor draws ++seed per sampling statement from this start
/// (query/executor.h); a fresh executor's k-th statement uses start + k.
constexpr uint64_t kExecutorSeedStart = 0x415ce7;

struct Timing {
  uint64_t parse_ns = 0, count_ns = 0, open_ns = 0, next_ns = 0,
           consume_ns = 0;
};

uint64_t Ns(double a, double b) { return static_cast<uint64_t>((b - a) * 1e9); }

}  // namespace

Status ReplayLayers(msv::io::Env* env,
                    const std::vector<ReplayStatement>& statements,
                    SpanRecorder& spans, LayerFigures* out) {
  // Pass 1: the whole statement through a fresh executor, in order, so its
  // seed sequence is the one the direct calls below use.
  std::vector<double> execute_ns(statements.size(), 0.0);
  std::map<std::string, msv::storage::RecordLayout> layouts;
  size_t amount_offset = 0;
  {
    MSV_ASSIGN_OR_RETURN(std::unique_ptr<msv::query::Executor> executor,
                         msv::query::Executor::Open(env));
    for (size_t k = 0; k < statements.size(); ++k) {
      MSV_ASSIGN_OR_RETURN(msv::query::Statement parsed,
                           msv::query::ParseOne(statements[k].text));
      ScopedSpan span(spans, "query.execute", 0, k + 1);
      const double t0 = NowSec();
      MSV_ASSIGN_OR_RETURN(std::string output, executor->Execute(parsed));
      execute_ns[k] = static_cast<double>(Ns(t0, NowSec()));
      if (output.empty()) return Status::Corruption("empty statement output");
    }
    msv::query::Catalog& catalog = executor->catalog();
    for (const ReplayStatement& s : statements) {
      const msv::query::ViewInfo* info = catalog.FindView(s.view);
      if (info == nullptr) return Status::NotFound("no view " + s.view);
      MSV_ASSIGN_OR_RETURN(layouts[s.view], catalog.ViewLayout(*info));
      const msv::query::Column* amount =
          catalog.FindTable(info->table)->schema->Find("amount");
      if (amount == nullptr) return Status::NotFound("no amount column");
      amount_offset = amount->offset;
    }
  }  // closes the executor's view handles before the direct ones open

  std::map<std::string, std::unique_ptr<msv::core::MaterializedSampleView>>
      views;
  for (const auto& [name, layout] : layouts) {
    msv::core::MaterializedSampleView::Options options;
    options.build.key_dims = static_cast<uint32_t>(layout.key_dims());
    options.ingest.background_compaction = false;  // hold the delta still
    MSV_ASSIGN_OR_RETURN(views[name], msv::core::MaterializedSampleView::Open(
                                          env, "view." + name, layout,
                                          options));
  }

  // Pass 2: the layer calls, each its own span.
  Timing total;
  uint64_t samples = 0, consumed = 0, leaves = 0, records = 0;
  uint64_t leaves_ns = 0, match_ns = 0;
  std::vector<double> parse_us, count_us, open_us, unattributed_us;
  std::vector<uint32_t> match_idx;
  for (size_t k = 0; k < statements.size(); ++k) {
    const ReplayStatement& s = statements[k];
    const uint64_t request = k + 1;
    ScopedSpan root(spans, "statement", 0, request);
    msv::core::MaterializedSampleView* view = views[s.view].get();
    const msv::storage::RecordLayout& layout = layouts[s.view];
    Timing t;

    {
      ScopedSpan span(spans, "query.parse", root.id(), request);
      const double a = NowSec();
      MSV_ASSIGN_OR_RETURN(msv::query::Statement parsed,
                           msv::query::ParseOne(s.text));
      t.parse_ns = Ns(a, NowSec());
    }

    const std::shared_ptr<const msv::core::AceTree> tree = view->tree();
    uint64_t population = 0;
    {
      ScopedSpan span(spans, "query.count", root.id(), request);
      const double a = NowSec();
      MSV_ASSIGN_OR_RETURN(population, tree->EstimateMatchCount(s.query));
      t.count_ns = Ns(a, NowSec());
    }

    std::unique_ptr<msv::core::ViewSampler> sampler;
    {
      ScopedSpan span(spans, "core.sample_open", root.id(), request);
      const double a = NowSec();
      MSV_ASSIGN_OR_RETURN(sampler,
                           view->Sample(s.query, kExecutorSeedStart + k + 1));
      t.open_ns = Ns(a, NowSec());
    }

    msv::sampling::OnlineAggregator agg(
        msv::storage::FieldAccessor::Double(amount_offset), population, 0.95);
    msv::sampling::StoppingRule::Options rule_options;
    rule_options.rel_error_pct = s.pct;
    const msv::sampling::StoppingRule rule(rule_options);
    uint64_t emitted = 0;
    while (!sampler->done()) {
      const bool capped = s.kind == ReplayStatement::Kind::kSamples ||
                          s.kind == ReplayStatement::Kind::kLimit;
      if (capped && emitted >= s.n) break;
      msv::sampling::SampleBatch batch;
      {
        ScopedSpan span(spans, "core.next_batch", root.id(), request);
        const double a = NowSec();
        MSV_ASSIGN_OR_RETURN(batch, sampler->NextBatch());
        t.next_ns += Ns(a, NowSec());
      }
      emitted += batch.count();
      if (s.kind == ReplayStatement::Kind::kLimit) continue;  // no aggregate
      {
        ScopedSpan span(spans, "sampling.consume", root.id(), request);
        const double a = NowSec();
        agg.Consume(batch);
        t.consume_ns += Ns(a, NowSec());
      }
      consumed += batch.count();
      if (s.kind == ReplayStatement::Kind::kWithinPct &&
          rule.Check(agg.Avg()) !=
              msv::sampling::StoppingRule::Verdict::kContinue) {
        break;
      }
    }
    samples += emitted;

    // Leaf decode and predicate filtering, timed apart from the sampler.
    std::vector<uint64_t> order =
        msv::core::ComputeStabLeafOrder(tree->splits(), s.query);
    order.resize(std::min<uint64_t>(order.size(), sampler->base_leaves_read()));
    std::vector<msv::core::LeafData> data;
    {
      ScopedSpan span(spans, "core.read_leaves", root.id(), request);
      const double a = NowSec();
      MSV_ASSIGN_OR_RETURN(data, tree->ReadLeaves(order));
      leaves_ns += Ns(a, NowSec());
    }
    leaves += order.size();
    {
      ScopedSpan span(spans, "sampling.match", root.id(), request);
      const double a = NowSec();
      for (const msv::core::LeafData& leaf : data) {
        for (const std::string& section : leaf.sections) {
          const size_t n = section.size() / layout.record_size;
          match_idx.resize(std::max(match_idx.size(), n));
          s.query.MatchBatch(layout, section.data(), n, match_idx.data());
          records += n;
        }
      }
      match_ns += Ns(a, NowSec());
    }

    parse_us.push_back(static_cast<double>(t.parse_ns) / 1e3);
    count_us.push_back(static_cast<double>(t.count_ns) / 1e3);
    open_us.push_back(static_cast<double>(t.open_ns) / 1e3);
    // Execute takes a parsed statement, so parse is not part of it.
    const double layered = static_cast<double>(t.count_ns + t.open_ns +
                                               t.next_ns + t.consume_ns);
    unattributed_us.push_back((execute_ns[k] - layered) / 1e3);
    total.next_ns += t.next_ns;
    total.consume_ns += t.consume_ns;
  }

  out->parse_us = Median(parse_us);
  out->count_us = Median(count_us);
  out->sample_open_us = Median(open_us);
  out->unattributed_us = Median(unattributed_us);
  if (samples > 0) {
    out->next_batch_us_per_sample =
        static_cast<double>(total.next_ns) / 1e3 / static_cast<double>(samples);
  }
  if (consumed > 0) {
    out->consume_ns_per_sample =
        static_cast<double>(total.consume_ns) / static_cast<double>(consumed);
  }
  if (leaves > 0) {
    out->read_leaves_us_per_leaf =
        static_cast<double>(leaves_ns) / 1e3 / static_cast<double>(leaves);
  }
  if (records > 0) {
    out->match_ns_per_record =
        static_cast<double>(match_ns) / static_cast<double>(records);
  }
  return Status::OK();
}

}  // namespace perfbench
