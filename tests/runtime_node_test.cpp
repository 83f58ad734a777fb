// Node lifecycle details observed through a live cluster: boot sequencing,
// incarnation persistence, checkpoint machinery, delivery gating and the
// per-recovery timeline bookkeeping.
#include <gtest/gtest.h>

#include "app/workloads.hpp"
#include "test_util.hpp"

namespace rr::runtime {
namespace {

using recovery::Algorithm;

struct NodeFixture : ::testing::Test {
  std::unique_ptr<Cluster> cluster;

  Cluster& make(std::uint32_t n = 3, std::uint32_t f = 1, std::uint64_t seed = 5,
                Algorithm alg = Algorithm::kNonBlocking) {
    cluster = std::make_unique<Cluster>(test::fast_cluster(n, f, alg, seed),
                                        test::gossip_factory());
    return *cluster;
  }
};

TEST_F(NodeFixture, BootSequencePersistsIncarnationAndCheckpoint) {
  auto& c = make();
  c.start();
  // Before the simulation runs, nodes are alive but not yet started (the
  // initial stable writes are in flight).
  EXPECT_TRUE(c.node(0u).alive());
  EXPECT_FALSE(c.node(0u).started());
  c.run_until(milliseconds(200));
  EXPECT_TRUE(c.node(0u).started());
  EXPECT_EQ(c.node(0u).incarnation(), 1u);
  auto& storage = c.node(0u).stable_storage();
  EXPECT_TRUE(storage.contains("inc/0"));
  EXPECT_FALSE(storage.keys_with_prefix("ckpt/0/").empty());
}

TEST_F(NodeFixture, StartIsBootOnly) {
  auto& c = make();
  c.start();
  c.run_until(milliseconds(200));
  EXPECT_DEATH(c.node(0u).start(), "initial boot");
}

TEST_F(NodeFixture, CrashTakesNodeDarkAndSupervisorRestarts) {
  auto& c = make();
  c.start();
  c.run_until(seconds(2));
  c.node(1u).crash();
  EXPECT_FALSE(c.node(1u).alive());
  EXPECT_FALSE(c.network().is_up(ProcessId{1}));
  // Supervisor delay (600 ms) + restore brings it back as incarnation 2
  // (recovery may already have completed — the backlog is small).
  c.run_until(seconds(2) + milliseconds(900));
  EXPECT_TRUE(c.node(1u).alive());
  EXPECT_TRUE(c.network().is_up(ProcessId{1}));
  EXPECT_EQ(c.node(1u).incarnation(), 2u);
  c.run_until(seconds(8));
  EXPECT_TRUE(c.all_idle());
  EXPECT_EQ(c.node(1u).recoveries().size(), 1u);
}

TEST_F(NodeFixture, IncarnationSurvivesRepeatedCrashes) {
  auto& c = make();
  c.start();
  for (int round = 0; round < 3; ++round) {
    c.run_for(seconds(3));
    c.node(2u).crash();
  }
  c.run_for(seconds(5));
  EXPECT_EQ(c.node(2u).incarnation(), 4u);  // 1 + three crashes
  EXPECT_TRUE(c.all_idle());
}

TEST_F(NodeFixture, TimelineRecordsAllPhases) {
  auto& c = make();
  c.start();
  c.crash_at(ProcessId{1}, seconds(2));
  c.run_until(seconds(8));
  ASSERT_EQ(c.node(1u).recoveries().size(), 1u);
  const auto& t = c.node(1u).recoveries()[0];
  EXPECT_EQ(t.crashed_at, seconds(2));
  EXPECT_EQ(t.detect(), milliseconds(600));  // supervisor delay
  EXPECT_GT(t.restore(), 0);
  EXPECT_GT(t.gather(), 0);
  EXPECT_GE(t.replay(), 0);
  EXPECT_EQ(t.total(), t.detect() + t.restore() + t.gather() + t.replay());
  EXPECT_GT(t.replayed, 0u);
}

TEST_F(NodeFixture, CheckpointsAreTakenPeriodicallyAndPruned) {
  auto& c = make();
  c.start();
  c.run_until(seconds(9));  // several 2 s checkpoint periods
  EXPECT_GE(c.metrics().counter_value("ckpt.taken"), 6u);
  // The two-slot store keeps one block + pointer per node.
  for (const ProcessId pid : c.pids()) {
    const auto keys =
        c.node(pid).stable_storage().keys_with_prefix("ckpt/" + std::to_string(pid.value));
    EXPECT_LE(keys.size(), 3u);  // block + latest pointer (+ one in flight)
  }
}

TEST_F(NodeFixture, AppSendRequiresStartedProcess) {
  auto& c = make();
  c.start();
  // Still booting (storage writes in flight).
  EXPECT_DEATH(c.node(0u).app_send(ProcessId{1}, Bytes(1)), "started");
}

TEST_F(NodeFixture, ManualAppSendDeliversThroughFullStack) {
  // A quiet workload (bank tokens with ttl 0 die immediately) so the
  // manual injection is the only traffic.
  cluster = std::make_unique<Cluster>(
      test::fast_cluster(3, 1, Algorithm::kNonBlocking, 5), test::bank_factory(1, 0));
  auto& c = *cluster;
  c.start();
  c.run_until(seconds(1));
  const auto before = c.node(1u).app_delivered();
  BufWriter w;
  w.i64(25);  // a bank transfer payload with ttl 0
  w.u32(0);
  c.node(0u).app_send(ProcessId{1}, std::move(w).take());
  c.run_for(milliseconds(50));
  EXPECT_EQ(c.node(1u).app_delivered(), before + 1);
}

TEST_F(NodeFixture, PiggybackOnAHeldFrameCountsAsLearned) {
  // The engine absorbs a frame's piggyback even when the frame itself is
  // held for a channel gap; fbl.dets_learned must count that knowledge
  // too, not only what arrives on frames delivered at once.
  cluster = std::make_unique<Cluster>(
      test::fast_cluster(4, 2, Algorithm::kNonBlocking, 5), test::bank_factory(1, 0));
  auto& c = *cluster;
  c.start();
  c.run_until(seconds(1));
  const Ssn mark = fbl::watermark_of(c.node(0u).engine().recv_marks(), ProcessId{1});
  auto frame_from_1 = [&](Ssn ssn, Rsn rsn) {
    fbl::AppFrame f;
    f.inc = c.node(1u).incarnation();
    f.ssn = ssn;
    // A receipt order of p3 that p0 has never seen.
    f.dets = {fbl::HeldDeterminant{
        fbl::Determinant{ProcessId{2}, rsn, ProcessId{3}, rsn}, fbl::holder_bit(ProcessId{3})}};
    BufWriter w;
    w.i64(1);  // a bank transfer payload with ttl 0
    w.u32(0);
    f.payload = std::move(w).take();
    return f.encode();
  };
  const std::uint64_t learned = c.metrics().counter_value("fbl.dets_learned");
  const auto delivered = c.node(0u).app_delivered();
  // The second frame overtakes the first: held, then drained behind it.
  c.network().inject(ProcessId{1}, ProcessId{0}, frame_from_1(mark + 2, 1002), milliseconds(1));
  c.network().inject(ProcessId{1}, ProcessId{0}, frame_from_1(mark + 1, 1001), milliseconds(2));
  c.run_for(milliseconds(10));
  EXPECT_EQ(c.metrics().counter_value("app.held_out_of_order"), 1u);
  EXPECT_EQ(c.node(0u).app_delivered(), delivered + 2);
  EXPECT_EQ(c.metrics().counter_value("fbl.dets_learned"), learned + 2);
}

TEST_F(NodeFixture, HeartbeatsFlowBetweenNodes) {
  auto& c = make();
  c.start();
  c.run_until(seconds(2));
  // 250 ms heartbeat period, 3 nodes broadcasting for ~1.8 s.
  EXPECT_GT(c.metrics().counter_value("net.packets"), 40u);
  // No one is suspected in a healthy cluster.
  for (const ProcessId pid : c.pids()) {
    EXPECT_FALSE(c.node(pid).recovering());
  }
}

TEST_F(NodeFixture, MalformedFrameCountedNotFatal) {
  auto& c = make();
  c.start();
  c.run_until(milliseconds(200));
  c.network().send(ProcessId{0}, ProcessId{1}, to_bytes("garbage frame"));
  c.run_for(milliseconds(50));
  EXPECT_EQ(c.metrics().counter_value("node.malformed_frames"), 1u);
  EXPECT_TRUE(c.node(1u).alive());
}

TEST_F(NodeFixture, OrdServiceRegistryDrainsAfterRecovery) {
  auto& c = make();
  c.start();
  c.crash_at(ProcessId{1}, seconds(2));
  c.run_until(seconds(8));
  EXPECT_TRUE(c.all_idle());
  EXPECT_TRUE(c.ord_service().rset().empty());
  EXPECT_EQ(c.ord_service().last_ord(), 1u);
}

TEST_F(NodeFixture, ClusterValidationRejectsBadConfig) {
  ClusterConfig bad = test::fast_cluster(1, 1, Algorithm::kNonBlocking);
  EXPECT_DEATH(Cluster(bad, test::gossip_factory()), "at least two");
  ClusterConfig bad_f = test::fast_cluster(4, 1, Algorithm::kNonBlocking);
  bad_f.f = 5;
  EXPECT_DEATH(Cluster(bad_f, test::gossip_factory()), "f <= n");
}

TEST_F(NodeFixture, StateHashCombinesAllProcesses) {
  auto& c1 = make(3, 1, 5);
  c1.start();
  c1.run_until(seconds(2));
  const auto h1 = c1.state_hash();
  auto& c2 = make(3, 1, 6);  // different seed
  c2.start();
  c2.run_until(seconds(2));
  EXPECT_NE(h1, c2.state_hash());
}

TEST_F(NodeFixture, BlockedTimeVisibleMidRecovery) {
  auto& c = make(3, 1, 5, Algorithm::kBlocking);
  c.start();
  c.crash_at(ProcessId{1}, seconds(2));
  // Stop the clock mid-replay (restore ends ~2.61 s, replay runs ~65 ms):
  // the survivors must be stalled right now.
  c.run_until(seconds(2) + milliseconds(640));
  bool someone_blocked = false;
  for (const ProcessId pid : c.pids()) {
    someone_blocked = someone_blocked || c.node(pid).delivery_blocked();
  }
  EXPECT_TRUE(someone_blocked);
  c.run_until(seconds(8));
  EXPECT_TRUE(c.all_idle());
  EXPECT_GT(c.total_blocked_time(), 0);
}

}  // namespace
}  // namespace rr::runtime
