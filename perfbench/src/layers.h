// The traced replay: re-runs a seeded subset of a workload's read
// statements in-process, calling each layer's public functions in the
// order the executor does and timing every call as a span.
//
// Per statement (one request id, root span "statement"):
//   query.execute      query::Executor::Execute on a fresh executor (its
//                      time less count, sample_open, next_batch and
//                      consume is query.unattributed_us)
//   query.parse        query::Parse of the statement text
//   query.count        AceTree::EstimateMatchCount
//   core.sample_open   MaterializedSampleView::Sample (partition snapshot,
//                      delta copy and shuffle)
//   core.next_batch    ViewSampler::NextBatch, once per batch
//   sampling.consume   OnlineAggregator::Consume, once per batch
//   core.read_leaves   AceTree::ReadLeaves over the leaves the sampler read,
//                      in leaf_read_order() (decode and checksum)
//   sampling.match     RangeQuery::MatchBatch over those leaves' records
//
// The fresh executor draws the same sampling seeds as the direct calls
// (its documented serial seed sequence), so both paths do the same work.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "io/env.h"
#include "sampling/range_query.h"
#include "util/status.h"

namespace perfbench {

/// One read statement to replay.
struct ReplayStatement {
  enum class Kind {
    kSamples,    ///< ESTIMATE AVG(amount) ... SAMPLES n
    kWithinPct,  ///< ESTIMATE AVG(amount) ... WITHIN p%
    kLimit,      ///< SAMPLE ... LIMIT n
    kDrain,      ///< ESTIMATE AVG(amount) ... drawn to completion
  };
  Kind kind = Kind::kSamples;
  std::string view;  ///< catalog view name
  std::string text;  ///< the MSVQL statement
  msv::sampling::RangeQuery query;
  uint64_t n = 0;     ///< samples or limit
  double pct = 0.0;  ///< WITHIN bound
};

/// Per-layer figures measured by the replay.
struct LayerFigures {
  double parse_us = 0;
  double count_us = 0;
  double sample_open_us = 0;
  double next_batch_us_per_sample = 0;
  double consume_ns_per_sample = 0;
  double read_leaves_us_per_leaf = 0;
  double match_ns_per_record = 0;
  double unattributed_us = 0;
};

/// Replays `statements` against the catalog and views stored in `env`.
/// No other executor or view handle may be open on `env`. Spans go to
/// `spans`, which must be enabled.
msv::Status ReplayLayers(msv::io::Env* env,
                         const std::vector<ReplayStatement>& statements,
                         SpanRecorder& spans, LayerFigures* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
