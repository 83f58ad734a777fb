// Span-tracer semantics on full cluster runs: phase nesting, restart and
// failover attribution, flight-recorder dumps, and the "span.<name>"
// latency metrics the bench tables read.
#include <gtest/gtest.h>

#include <vector>

#include "harness/scenario.hpp"
#include "obs/span.hpp"
#include "runtime/cluster.hpp"
#include "test_util.hpp"

namespace rr {
namespace {

using obs::SpanName;
using obs::SpanRecord;
using obs::SpanTracer;
using recovery::Algorithm;

/// Copy out every span record so assertions can run after cluster teardown.
std::vector<SpanRecord> snapshot(const SpanTracer& tracer) {
  std::vector<SpanRecord> out;
  out.reserve(tracer.span_count());
  for (obs::SpanId id = 1; id <= tracer.span_count(); ++id) out.push_back(tracer.span(id));
  return out;
}

struct TracedRun {
  harness::ScenarioResult result;
  std::vector<SpanRecord> spans;
  std::string flight_dump;
};

TracedRun run_traced(harness::ScenarioConfig sc) {
  sc.cluster.enable_spans = true;
  TracedRun run;
  run.result = harness::run_scenario(sc, [&](runtime::Cluster& cluster) {
    ASSERT_NE(cluster.spans(), nullptr);
    run.spans = snapshot(*cluster.spans());
    run.flight_dump = cluster.spans()->dump_all_flights();
  });
  return run;
}

/// Index (into `spans`) of the unique span matching, or -1.
int find_one(const std::vector<SpanRecord>& spans, SpanName name, std::uint32_t node) {
  int found = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name || spans[i].node != node) continue;
    if (found >= 0) return -2;  // not unique
    found = static_cast<int>(i);
  }
  return found;
}

TEST(ObsSpan, SingleFailurePhasesNestUnderRecoveryRoot) {
  auto sc = test::base_scenario(Algorithm::kNonBlocking);
  sc.crashes = {{ProcessId{1}, seconds(3)}};
  const TracedRun run = run_traced(sc);
  ASSERT_EQ(run.result.recoveries.size(), 1u);
  const auto& t = run.result.recoveries[0];

  const int root = find_one(run.spans, SpanName::kRecovery, 1);
  ASSERT_GE(root, 0);
  const SpanRecord& rec = run.spans[static_cast<std::size_t>(root)];
  EXPECT_EQ(rec.begin, t.crashed_at);
  EXPECT_EQ(rec.end, t.completed_at);
  EXPECT_EQ(rec.inc, t.inc);
  EXPECT_FALSE(rec.aborted());
  EXPECT_EQ(rec.parent, obs::kNoSpan);

  // Every protocol phase ran exactly once, closed cleanly, as a child of
  // the root (gather/replay/...), matching the timeline's boundaries.
  const obs::SpanId root_id = static_cast<obs::SpanId>(root) + 1;
  for (const SpanName phase : {SpanName::kDetect, SpanName::kRestore, SpanName::kElection,
                               SpanName::kGather, SpanName::kReplay}) {
    const int i = find_one(run.spans, phase, 1);
    ASSERT_GE(i, 0) << obs::to_string(phase);
    const SpanRecord& p = run.spans[static_cast<std::size_t>(i)];
    EXPECT_EQ(p.parent, root_id) << obs::to_string(phase);
    EXPECT_FALSE(p.open()) << obs::to_string(phase);
    EXPECT_FALSE(p.aborted()) << obs::to_string(phase);
  }
  const int detect = find_one(run.spans, SpanName::kDetect, 1);
  EXPECT_EQ(run.spans[static_cast<std::size_t>(detect)].end, t.restore_started);
  const int restore = find_one(run.spans, SpanName::kRestore, 1);
  EXPECT_EQ(run.spans[static_cast<std::size_t>(restore)].end, t.restored_at);
}

TEST(ObsSpan, InfrastructureSpansRecorded) {
  auto sc = test::base_scenario(Algorithm::kNonBlocking);
  sc.crashes = {{ProcessId{1}, seconds(3)}};
  const TracedRun run = run_traced(sc);

  std::size_t transits = 0, storage = 0;
  for (const SpanRecord& s : run.spans) {
    if (s.name == SpanName::kCtrlTransit) {
      ++transits;
      EXPECT_FALSE(s.open());
      EXPECT_GT(s.detail, 0u);  // payload bytes
    }
    if (s.name == SpanName::kStorageWrite || s.name == SpanName::kStorageRead) ++storage;
  }
  // Control traffic of the episode (ord/dep requests + replies) and the
  // restore's checkpoint read must all leave closed infra spans.
  EXPECT_GE(transits, run.result.ctrl_msgs / 2);
  EXPECT_GT(storage, 0u);
}

TEST(ObsSpan, GatherRestartOpensSiblingRegatherUnderSameRoot) {
  auto sc = test::base_scenario(Algorithm::kNonBlocking);
  // Second crash lands mid-gather of the first recovery (same schedule as
  // Recovery.DoubleFailureDuringRecovery, which asserts gather_restarts).
  sc.crashes = {{ProcessId{1}, seconds(3)}, {ProcessId{2}, milliseconds(3'700)}};
  const TracedRun run = run_traced(sc);
  ASSERT_GE(run.result.gather_restarts, 1u);

  // Find the restarted round: an aborted gather and a regather on the same
  // leader, siblings under one recovery root.
  const SpanRecord* aborted_gather = nullptr;
  const SpanRecord* regather = nullptr;
  for (const SpanRecord& s : run.spans) {
    if (s.name == SpanName::kGather && s.aborted()) aborted_gather = &s;
    if (s.name == SpanName::kRegather) regather = &s;
  }
  ASSERT_NE(aborted_gather, nullptr);
  ASSERT_NE(regather, nullptr);
  EXPECT_EQ(regather->node, aborted_gather->node);
  EXPECT_EQ(regather->parent, aborted_gather->parent);
  ASSERT_NE(regather->parent, obs::kNoSpan);
  EXPECT_EQ(run.spans[regather->parent - 1].name, SpanName::kRecovery);
  // The regather belongs to a later round, begun after the abort, and is
  // attributed to the leader's incarnation at restart time.
  EXPECT_GE(regather->begin, aborted_gather->end);
  EXPECT_GT(regather->detail, aborted_gather->detail);
  EXPECT_EQ(regather->inc, run.spans[regather->parent - 1].inc);
  EXPECT_FALSE(regather->aborted());
}

TEST(ObsSpan, CrashMidRecoveryClosesOldSpansAtCrashTime) {
  auto sc = test::base_scenario(Algorithm::kNonBlocking);
  // p1 crashes again mid-recovery while p2 also recovers: the failover
  // schedule of Recovery.LeaderFailureFailsOverToNextOrdinal.
  const Time recrash = milliseconds(3'700);
  sc.crashes = {{ProcessId{1}, seconds(3)},
                {ProcessId{2}, milliseconds(3'100)},
                {ProcessId{1}, recrash}};
  const TracedRun run = run_traced(sc);
  EXPECT_EQ(run.result.recoveries.size(), 2u);

  // p1 has two recovery roots: the abandoned attempt (inc 2) must end
  // exactly at the second crash, aborted, along with every child it still
  // had open; the succeeding attempt (inc 3) begins right there.
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& s : run.spans) {
    if (s.name == SpanName::kRecovery && s.node == 1) roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0]->inc, 2u);
  EXPECT_TRUE(roots[0]->aborted());
  EXPECT_EQ(roots[0]->end, recrash);
  EXPECT_EQ(roots[1]->inc, 3u);
  EXPECT_EQ(roots[1]->begin, recrash);
  EXPECT_FALSE(roots[1]->aborted());

  const obs::SpanId old_root = static_cast<obs::SpanId>(roots[0] - run.spans.data()) + 1;
  for (const SpanRecord& s : run.spans) {
    if (s.parent != old_root) continue;
    EXPECT_FALSE(s.open()) << obs::to_string(s.name);
    EXPECT_LE(s.end, recrash) << obs::to_string(s.name);
    if (s.end == recrash) EXPECT_TRUE(s.aborted()) << obs::to_string(s.name);
  }
}

TEST(ObsSpan, FlightRecorderDumpsEveryInvolvedNode) {
  auto sc = test::base_scenario(Algorithm::kNonBlocking);
  sc.crashes = {{ProcessId{1}, seconds(3)}};
  sc.cluster.flight_capacity = 8;
  const TracedRun run = run_traced(sc);

  EXPECT_NE(run.flight_dump.find("flight recorder, p1:"), std::string::npos);
  EXPECT_NE(run.flight_dump.find("recovery"), std::string::npos);
  EXPECT_NE(run.flight_dump.find("replay"), std::string::npos);
  // Live nodes saw control traffic, so they are involved too.
  EXPECT_NE(run.flight_dump.find("flight recorder, p0:"), std::string::npos);
}

TEST(ObsSpan, SpanMetricsFeedTheRegistry) {
  auto sc = test::base_scenario(Algorithm::kNonBlocking);
  sc.crashes = {{ProcessId{1}, seconds(3)}};
  sc.cluster.enable_spans = true;
  const auto r = harness::run_scenario(sc);

  // The scenario distilled "span.<name>" histograms into span_latency, in
  // taxonomy order, with p50 <= p95 <= max.
  ASSERT_FALSE(r.span_latency.empty());
  bool saw_recovery = false;
  for (const auto& p : r.span_latency) {
    EXPECT_GT(p.count, 0u) << p.name;
    EXPECT_LE(p.p50_ns, p.p95_ns) << p.name;
    EXPECT_LE(p.p95_ns, p.max_ns + 1.0) << p.name;
    if (p.name == "recovery") {
      saw_recovery = true;
      EXPECT_EQ(p.count, 1u);
      EXPECT_DOUBLE_EQ(p.max_ns, static_cast<double>(r.recoveries.at(0).total()));
    }
  }
  EXPECT_TRUE(saw_recovery);
}

/// ctrl_transit spans and the ledger's control frames (all ctrl.* kinds)
/// of one cluster run.
struct TransitCount {
  std::uint64_t transits{0};
  std::uint64_t ctrl_frames{0};
  std::uint64_t retransmits{0};
};

TransitCount count_transits(const runtime::Cluster& cluster) {
  TransitCount out;
  for (const SpanRecord& s : snapshot(*cluster.spans())) {
    out.transits += s.name == SpanName::kCtrlTransit ? 1 : 0;
  }
  for (std::size_t k = 0; k < obs::kCtrlCategoryCount; ++k) {
    out.ctrl_frames += cluster.ledger()->frames(
        static_cast<obs::CostCategory>(obs::kFirstCtrlCategory + k));
  }
  out.retransmits = cluster.ledger()->frames(obs::CostCategory::kTransportRetransmit);
  return out;
}

TEST(ObsSpan, CtrlTransitCoversFramesBehindTheReliableTransport) {
  // With the transport on, node-to-node control frames travel behind its
  // data header (only ord-service traffic stays raw). Every one of them,
  // retransmissions included, must leave a ctrl_transit span: the spans
  // cover at least the ledger's control frames, exactly when nothing was
  // retransmitted.
  auto cfg = test::fast_cluster(4, 2, Algorithm::kNonBlocking, 9);
  cfg.transport.enabled = true;
  cfg.enable_spans = true;
  cfg.enable_ledger = true;
  {
    // Failure-free output commit: the determinant pushes and their acks
    // are wrapped control frames on a clean fabric, never retransmitted.
    runtime::Cluster cluster(cfg, test::bank_factory(1, 0));
    cluster.start();
    cluster.run_until(seconds(1));
    BufWriter w;
    w.i64(5);
    w.u32(0);
    cluster.node(1u).app_send(ProcessId{0}, std::move(w).take());
    cluster.run_for(milliseconds(5));
    cluster.node(0u).commit_output(to_bytes("guarded"));
    cluster.run_for(milliseconds(100));
    const TransitCount c = count_transits(cluster);
    ASSERT_GT(cluster.ledger()->frames(obs::CostCategory::kCtrlDetPush), 0u);
    ASSERT_EQ(c.retransmits, 0u);
    EXPECT_EQ(c.transits, c.ctrl_frames);
  }
  {
    // A crash on a lossy fabric: retransmitted control frames add spans
    // the ledger books under transport_retransmit.
    cfg.net.faults.loss = 0.05;
    runtime::Cluster cluster(cfg, test::gossip_factory());
    cluster.start();
    cluster.crash_at(ProcessId{1}, seconds(2));
    cluster.run_until(seconds(8));
    const TransitCount c = count_transits(cluster);
    ASSERT_GT(cluster.ledger()->frames(obs::CostCategory::kCtrlDepRequest), 0u);
    ASSERT_GT(c.retransmits, 0u);
    EXPECT_GE(c.transits, c.ctrl_frames);
  }
}

TEST(ObsSpan, DisabledByDefaultCostsNothing) {
  auto sc = test::base_scenario(Algorithm::kNonBlocking);
  sc.crashes = {{ProcessId{1}, seconds(3)}};
  const auto r = harness::run_scenario(sc, [](runtime::Cluster& cluster) {
    EXPECT_EQ(cluster.spans(), nullptr);
  });
  EXPECT_TRUE(r.span_latency.empty());
}

}  // namespace
}  // namespace rr
