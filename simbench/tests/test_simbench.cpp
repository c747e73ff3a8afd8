// Tests of the benchmark's own machinery: the forwarding wrappers must not
// change what is simulated, and the span and percentile arithmetic must be
// exact on hand-built inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "checks.hpp"
#include "layers.hpp"
#include "runner.hpp"
#include "trace/datacenter.hpp"
#include "workloads.hpp"

namespace simbench {
namespace {

constexpr std::uint64_t kSeed = 7;

/// A shrunken copy of a workload cell (same machine, smaller input).
Cell small_cell(const std::string& workload, std::size_t index,
                double scale) {
  Cell cell = make_workload(workload, kSeed).cells.at(index);
  if (!cell.streamed() && workload != "checked_fuzz") {
    const dircc::AppKind app =
        cell.app == "LU" ? dircc::AppKind::kLu : dircc::AppKind::kMp3d;
    cell.trace = dircc::harness::app_trace(app, cell.system.num_procs,
                                           cell.system.block_size, kSeed,
                                           scale);
  }
  return cell;
}

/// Runs `cell` bare and through the wrappers `wrap` selects and expects
/// identical simulated outputs.
void expect_identical(const Cell& cell, Wrap wrap) {
  dircc::harness::TraceCache cache;
  const std::shared_ptr<const dircc::ProgramTrace> trace =
      cell.streamed() ? nullptr : cache.get(cell.trace);
  const SpanCost cost{5.0, 20.0};
  const CellRun bare = run_cell(cell, trace.get(), nullptr);
  const CellRun traced = run_cell(cell, trace.get(), &cost, wrap);
  EXPECT_GT(bare.outputs.result.protocol.accesses, 0u);
  EXPECT_EQ(fingerprint(bare.outputs), fingerprint(traced.outputs))
      << cell.key;
  EXPECT_EQ(bare.events, traced.events);
  EXPECT_EQ(check_identities(traced.outputs), "");
}

Wrap only(bool source, bool memory, bool observer, bool sink) {
  return Wrap{source, memory, observer, sink};
}

TEST(Wrappers, SourceLeavesRunResultIdentical) {
  expect_identical(small_cell("paper_grid", 0, 0.05),
                   only(true, false, false, false));
  Cell stream = make_workload("datacenter_128", kSeed).cells.at(8);
  stream.stream = [] {
    return dircc::make_datacenter_source(dircc::DatacenterKind::kOltp, 128,
                                         16, 64, kSeed, 0.1);
  };
  expect_identical(stream, only(true, false, false, false));
}

TEST(Wrappers, MemoryLeavesRunResultIdentical) {
  expect_identical(small_cell("paper_grid", 3, 0.05),
                   only(false, true, false, false));
  expect_identical(small_cell("sparse_queued", 1, 0.05),
                   only(false, true, false, false));
}

TEST(Wrappers, ObserverLeavesRunResultIdentical) {
  expect_identical(small_cell("checked_fuzz", 3, 1.0),
                   only(false, false, true, false));
}

TEST(Wrappers, SinkLeavesRunResultIdentical) {
  // Flat sparse and 4-chip cells, queued backend, collector attached.
  expect_identical(small_cell("sparse_queued", 0, 0.05),
                   only(false, false, false, true));
  expect_identical(small_cell("sparse_queued", 3, 0.05),
                   only(false, false, false, true));
}

TEST(Wrappers, AllTogetherLeaveRunResultIdentical) {
  expect_identical(small_cell("sparse_queued", 3, 0.05), Wrap{});
  expect_identical(small_cell("checked_fuzz", 0, 1.0), Wrap{});
}

TEST(Wrappers, TracedRunCountsEveryLayerCall) {
  const Cell cell = small_cell("sparse_queued", 2, 0.05);
  dircc::harness::TraceCache cache;
  const auto trace = cache.get(cell.trace);
  const SpanCost cost{};
  const CellRun run = run_cell(cell, trace.get(), &cost);
  const auto calls = [&](Layer layer) {
    return run.layers[static_cast<std::size_t>(layer)].calls;
  };
  const dircc::ProtocolStats& p = run.outputs.result.protocol;
  EXPECT_EQ(calls(Layer::kSim), 1u);
  EXPECT_EQ(calls(Layer::kProtocol), p.accesses);
  EXPECT_EQ(run.split.hits, p.cache_hits);
  EXPECT_EQ(run.split.hits + run.split.txns, p.accesses);
  EXPECT_EQ(run.split.ir_network_msgs, p.messages.total());
  // Every event pulled plus one exhausted pull per processor.
  EXPECT_EQ(calls(Layer::kTrace),
            run.events + static_cast<std::uint64_t>(cell.system.num_procs));
  EXPECT_EQ(run.commits, run.outputs.attrib_txns);
  EXPECT_GE(calls(Layer::kObs), run.commits);
  EXPECT_EQ(calls(Layer::kCheck), 0u);
}

// --- span arithmetic on hand-built spans --------------------------------

TEST(Spans, SelfTimeSubtractsChildrenAndTimerCost) {
  const SpanCost cost{2.0, 5.0};
  Tracer tracer(cost);
  tracer.begin_at(Layer::kSim, 0);
  tracer.begin_at(Layer::kTrace, 10);
  EXPECT_DOUBLE_EQ(tracer.end_at(20), 8.0);  // 10 - inner 2
  tracer.begin_at(Layer::kProtocol, 30);
  tracer.begin_at(Layer::kObs, 35);
  EXPECT_DOUBLE_EQ(tracer.end_at(45), 8.0);
  // 30 long, 10 of it in the child, minus inner 2 and the child's 3 ns of
  // timer outside its own interval.
  EXPECT_DOUBLE_EQ(tracer.end_at(60), 15.0);
  // 100 long, children 10 + 30, inner 2, two children x 3.
  EXPECT_DOUBLE_EQ(tracer.end_at(100), 52.0);
  EXPECT_EQ(tracer.depth(), 0);
  EXPECT_EQ(total_calls(tracer.all()), 4u);

  // Self times plus the timer cost account for the root span exactly.
  double self = 0.0;
  for (const LayerTotals& totals : tracer.all()) {
    self += totals.self_ns;
  }
  const double timer = 3 * cost.total_ns + cost.inner_ns;
  EXPECT_DOUBLE_EQ(self + timer, 100.0);
}

TEST(Spans, TotalsAccumulatePerLayer) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    tracer.begin_at(Layer::kCheck, 100 * i);
    tracer.end_at(100 * i + 7);
  }
  const LayerTotals& check = tracer.totals(Layer::kCheck);
  EXPECT_EQ(check.calls, 3u);
  EXPECT_DOUBLE_EQ(check.self_ns, 21.0);
  EXPECT_EQ(check.hist.count(), 3u);
  EXPECT_EQ(tracer.totals(Layer::kTrace).calls, 0u);
  EXPECT_EQ(total_calls(tracer.all()), 3u);
}

TEST(Spans, CalibrationIsPositiveAndOrdered) {
  const SpanCost cost = calibrate_span_cost(3, 20000);
  EXPECT_GT(cost.inner_ns, 0.0);
  EXPECT_GT(cost.total_ns, 0.0);
  EXPECT_LT(cost.total_ns, 10000.0);
}

// --- percentile math ----------------------------------------------------

/// Exact nearest-rank percentile of 1..n.
double exact(int n, double q) {
  return std::max(1.0, std::ceil(q / 100.0 * n));
}

TEST(Percentiles, NearestRankLandsInTheRightBucket) {
  DurationHistogram hist;
  const int n = 1000;
  for (int v = 1; v <= n; ++v) {
    hist.add(v);
  }
  for (const double q : {1.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    const double want = exact(n, q);
    const int bucket = DurationHistogram::bucket_of(want);
    EXPECT_DOUBLE_EQ(hist.percentile(q),
                     0.5 * (DurationHistogram::lower_edge(bucket) +
                            DurationHistogram::upper_edge(bucket)))
        << "q=" << q;
    EXPECT_LE(DurationHistogram::lower_edge(bucket), want);
    EXPECT_LT(want, DurationHistogram::upper_edge(bucket));
  }
  // Below 64 ns every nanosecond has its own bucket.
  EXPECT_DOUBLE_EQ(hist.percentile(5.0), 50.5);
}

TEST(Percentiles, BucketsAreContiguousAndNarrow) {
  for (int b = 0; b < 400; ++b) {
    const double lower = DurationHistogram::lower_edge(b);
    const double upper = DurationHistogram::upper_edge(b);
    EXPECT_LT(lower, upper);
    EXPECT_EQ(DurationHistogram::bucket_of(lower), b);
    if (lower >= 64.0) {
      EXPECT_LE((upper - lower) / lower, 1.0 / 16.0 + 1e-12);
    }
  }
}

TEST(Percentiles, EdgeCases) {
  DurationHistogram hist;
  EXPECT_EQ(hist.percentile(50.0), 0.0);
  hist.add(-3.0);  // an over-subtracted self time clamps to bucket 0
  hist.add(12.0);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.5);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 12.5);
  DurationHistogram other;
  other.add(12.0);
  hist.merge(other);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 12.5);
}

TEST(Percentiles, MedianOfSamples) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// --- output checks ------------------------------------------------------

TEST(Checks, IdentitiesCatchBrokenAccounting) {
  CellOutputs outputs;
  dircc::ProtocolStats& p = outputs.result.protocol;
  p.accesses = 10;
  p.cache_hits = 6;
  p.remote2_transactions = 3;
  p.local_transactions = 1;
  EXPECT_EQ(check_identities(outputs), "");
  p.remote3_transactions = 1;
  EXPECT_NE(check_identities(outputs), "");
}

TEST(Checks, FingerprintSeesEveryCounterGroup) {
  CellOutputs a;
  const std::string base = fingerprint(a);
  CellOutputs b;
  b.result.sync.lock_contended = 1;
  EXPECT_NE(fingerprint(b), base);
  CellOutputs c;
  c.directory.replacements = 1;
  EXPECT_NE(fingerprint(c), base);
  CellOutputs d;
  d.result.cache.invalidations_empty = 1;
  EXPECT_NE(fingerprint(d), base);
}

}  // namespace
}  // namespace simbench
