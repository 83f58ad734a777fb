// Cost-ledger tests.
//
// The classifier in obs/ledger.cpp hand-parses wire layouts it cannot
// include (obs sits below recovery and net in the layering) — the unit
// tests here pin its byte-for-byte agreement with recovery::encode_control
// and the fbl frame codecs over every control kind and the app/piggyback
// split. The wire-level tests drive net::Network, which unwraps the
// reliable-transport header and flags retransmissions before the ledger
// sees a packet. The cluster-level tests cover the V10 conservation
// oracle, the sampled timeline's determinism across runs, and the Perfetto
// counter-track export.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "app/workloads.hpp"
#include "common/serde.hpp"
#include "fbl/frame.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "obs/ledger.hpp"
#include "obs/perfetto.hpp"
#include "recovery/messages.hpp"
#include "runtime/cluster.hpp"
#include "sim/simulator.hpp"

namespace rr {
namespace {

using obs::CostCategory;
using obs::CostLedger;
using obs::CostLedgerConfig;

constexpr std::size_t kHeader = 32;  // mirrors net::Network::kHeaderBytes

CostLedgerConfig unit_config() {
  CostLedgerConfig cfg;
  cfg.num_nodes = 4;
  return cfg;
}

/// Charge one unwrapped frame as net::Network does: the packet's full wire
/// size, classified by content.
void charge(CostLedger& ledger, std::uint32_t src, const Bytes& wire) {
  ledger.on_wire(src, wire, wire.size() + kHeader, obs::Envelope::kFrame);
}

fbl::HeldDeterminant held_det(std::uint32_t source, std::uint64_t ssn) {
  fbl::HeldDeterminant d;
  d.det = fbl::Determinant{ProcessId{source}, ssn, ProcessId{source + 1}, ssn + 1};
  d.holders = 0b101;
  return d;
}

TEST(CostLedgerClassifier, EveryControlKindAgreesWithRecoveryCodec) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  // Variant order == CtrlKind wire order == the ledger's ctrl category
  // order; one frame of each kind, in order.
  const std::vector<recovery::ControlMessage> kinds = {
      recovery::OrdRequest{},       recovery::OrdReply{},
      recovery::RSetRequest{},      recovery::RSetReply{},
      recovery::IncRequest{},       recovery::IncReply{},
      recovery::DepRequest{},       recovery::DepReply{},
      recovery::DepInstall{},       recovery::RecoveryComplete{},
      recovery::ReplayRequest{},    recovery::ReplayData{},
      recovery::DetPush{},          recovery::DetAck{},
  };
  std::uint64_t expected_total = 0;
  for (const auto& msg : kinds) {
    const Bytes wire = recovery::encode_control(msg);
    charge(ledger, 0, wire);
    expected_total += wire.size() + kHeader;
  }
  for (std::size_t k = 0; k < obs::kCtrlCategoryCount; ++k) {
    const auto cat = static_cast<CostCategory>(obs::kFirstCtrlCategory + k);
    EXPECT_EQ(ledger.frames(cat), 1u)
        << "ctrl kind " << k + 1 << " (" << obs::to_string(cat)
        << ") not classified from its encoded bytes";
  }
  // Every byte of every frame landed somewhere (the default DepRequest's
  // incvector region splits into incvector_full, nothing is lost).
  EXPECT_EQ(ledger.total_bytes(), expected_total);
  EXPECT_EQ(ledger.frames(CostCategory::kOther), 0u);
}

TEST(CostLedgerClassifier, AppFrameSplitsPiggybackFromPayload) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  fbl::AppFrame frame;
  frame.inc = 1;
  frame.ssn = 7;
  frame.dets = {held_det(1, 5), held_det(2, 9)};
  frame.payload = Bytes(100, std::byte{0x42});
  std::size_t piggyback = 0;
  const Bytes wire = frame.encode(&piggyback);
  charge(ledger, 1, wire);

  const std::uint64_t total = wire.size() + kHeader;
  EXPECT_EQ(ledger.bytes(CostCategory::kPiggybackPruned), piggyback);
  EXPECT_EQ(ledger.bytes(CostCategory::kAppPayload), total - piggyback);
  // One frame, counted once, under its primary category.
  EXPECT_EQ(ledger.frames(CostCategory::kAppPayload), 1u);
  EXPECT_EQ(ledger.frames(CostCategory::kPiggybackPruned), 0u);
  EXPECT_EQ(ledger.node_total_bytes(1), total);
  EXPECT_EQ(ledger.node_total_bytes(2), 0u);
}

TEST(CostLedgerClassifier, ReshipModeRecategorizesPiggyback) {
  metrics::Registry m;
  CostLedgerConfig cfg = unit_config();
  cfg.prune_piggyback = false;
  CostLedger ledger(cfg, m);

  fbl::AppFrame frame;
  frame.dets = {held_det(1, 5)};
  frame.payload = Bytes(10, std::byte{0x01});
  std::size_t piggyback = 0;
  charge(ledger, 0, frame.encode(&piggyback));
  EXPECT_EQ(ledger.bytes(CostCategory::kPiggybackReship), piggyback);
  EXPECT_EQ(ledger.bytes(CostCategory::kPiggybackPruned), 0u);
}

TEST(CostLedgerClassifier, DepRequestCarvesIncvectorAndRelayBytes) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  recovery::DepRequest dep;
  dep.leader = ProcessId{2};
  dep.delta.full = false;
  dep.delta.version = 3;
  dep.delta.entries[ProcessId{1}] = 2;
  const Bytes wire = recovery::encode_control(recovery::ControlMessage{dep});

  // Sent by the leader itself: remainder stays under ctrl.dep_request.
  charge(ledger, 2, wire);
  const std::uint64_t inc_bytes = ledger.bytes(CostCategory::kIncVectorDelta);
  EXPECT_GT(inc_bytes, 0u);
  EXPECT_EQ(ledger.bytes(CostCategory::kGatherRelay), 0u);
  EXPECT_EQ(ledger.bytes(CostCategory::kCtrlDepRequest),
            wire.size() + kHeader - inc_bytes);

  // Relayed by a non-leader: the non-incvector remainder is fan-out cost.
  charge(ledger, 0, wire);
  EXPECT_EQ(ledger.bytes(CostCategory::kGatherRelay),
            wire.size() + kHeader - inc_bytes);
  EXPECT_EQ(ledger.frames(CostCategory::kCtrlDepRequest), 2u);
}

TEST(CostLedgerClassifier, MalformedFramesFallBackToOther) {
  metrics::Registry m;
  CostLedger ledger(unit_config(), m);

  charge(ledger, 0, Bytes{});                  // empty
  charge(ledger, 0, Bytes{std::byte{0xEE}});   // unknown kind
  charge(ledger, 0, Bytes{std::byte{4}});      // truncated control
  EXPECT_EQ(ledger.frames(CostCategory::kOther), 3u);
  EXPECT_EQ(ledger.total_bytes(), 3 * kHeader + 2);
}

// ------------------------------------------------ wire level (net::Network)

/// A bare network with the ledger on its observation site: the transport
/// header is decoded by net before the ledger sees a packet, so framing and
/// retransmit attribution are pinned here, where they happen.
struct WireRig : net::Endpoint {
  sim::Simulator sim{3};
  metrics::Registry metrics;
  net::Network network{sim, net::NetworkConfig{}, metrics};
  CostLedger ledger{unit_config(), metrics};

  WireRig() {
    network.attach(ProcessId{0}, *this);
    network.attach(ProcessId{1}, *this);
    network.set_ledger(&ledger);
  }
  void deliver(ProcessId, Bytes payload) override {
    BufferPool::global().release(std::move(payload));
  }
};

Bytes wrap_data(const Bytes& inner) {
  BufWriter w;
  w.u8(net::ReliableTransport::kDataByte);
  w.u32(1);     // epoch
  w.varint(9);  // stream
  w.varint(4);  // seq
  w.raw(inner);
  return std::move(w).take();
}

TEST(CostLedgerWire, UnwrapsReliableTransportFraming) {
  WireRig rig;
  const Bytes wire = wrap_data(fbl::HeartbeatFrame{3}.encode());
  EXPECT_EQ(rig.network.send(ProcessId{0}, ProcessId{1}, wire), wire.size() + kHeader);
  // The whole packet (wrapper included) lands under the inner frame's
  // category — the wrapper never smears the attribution.
  EXPECT_EQ(rig.ledger.bytes(CostCategory::kHeartbeat), wire.size() + kHeader);
  EXPECT_EQ(rig.ledger.frames(CostCategory::kHeartbeat), 1u);

  BufWriter ack;
  ack.u8(net::ReliableTransport::kAckByte);
  ack.u32(1);
  rig.network.send(ProcessId{1}, ProcessId{0}, std::move(ack).take());
  EXPECT_EQ(rig.ledger.frames(CostCategory::kTransportAck), 1u);

  // A data marker whose header is cut short is no frame at all: `other`,
  // charged in full.
  const Bytes truncated = {std::byte{net::ReliableTransport::kDataByte}, std::byte{1}};
  rig.network.send(ProcessId{0}, ProcessId{1}, truncated);
  EXPECT_EQ(rig.ledger.frames(CostCategory::kOther), 1u);
  EXPECT_EQ(rig.ledger.bytes(CostCategory::kOther), truncated.size() + kHeader);

  EXPECT_EQ(rig.ledger.audit(rig.metrics).size(), 0u);
}

TEST(CostLedgerWire, RetransmitFlagOverridesContent) {
  WireRig rig;
  const Bytes wire = wrap_data(fbl::HeartbeatFrame{1}.encode());
  rig.network.send(ProcessId{0}, ProcessId{1}, wire, /*retransmit=*/true);
  EXPECT_EQ(rig.ledger.bytes(CostCategory::kTransportRetransmit), wire.size() + kHeader);
  EXPECT_EQ(rig.ledger.bytes(CostCategory::kHeartbeat), 0u);

  // A retransmission the network drops at send leaves nothing behind: the
  // sender's next packet is charged by its own content.
  rig.network.set_up(ProcessId{0}, false);
  EXPECT_EQ(rig.network.send(ProcessId{0}, ProcessId{1}, wire, /*retransmit=*/true), 0u);
  rig.network.set_up(ProcessId{0}, true);
  rig.network.send(ProcessId{0}, ProcessId{1}, wire);
  EXPECT_EQ(rig.ledger.frames(CostCategory::kTransportRetransmit), 1u);
  EXPECT_EQ(rig.ledger.bytes(CostCategory::kHeartbeat), wire.size() + kHeader);
}

// ------------------------------------------------------------- cluster level

runtime::ClusterConfig ledger_cluster(Duration sample_every = 0) {
  runtime::ClusterConfig cfg;
  cfg.num_processes = 4;
  cfg.f = 2;
  cfg.seed = 11;
  cfg.enable_ledger = true;
  cfg.ledger_sample_every = sample_every;
  return cfg;
}

app::AppFactory gossip_factory() {
  return [](ProcessId pid) {
    app::GossipConfig cfg;
    cfg.tokens_per_process = pid.value < 2 ? 1 : 0;
    cfg.seed = 42 + pid.value;
    return std::make_unique<app::GossipApp>(cfg);
  };
}

TEST(CostLedgerCluster, V10ConservesBytesAcrossARecovery) {
  runtime::Cluster cluster(ledger_cluster(), gossip_factory());
  cluster.start();
  cluster.crash_at(ProcessId{1}, seconds(5));
  cluster.run_until(seconds(20));
  ASSERT_TRUE(cluster.all_idle());

  const obs::CostLedger* ledger = cluster.ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->audit(cluster.metrics()), std::vector<std::string>{});
  EXPECT_EQ(ledger->total_bytes(), cluster.metrics().counter_value("net.bytes"));
  // A recovery happened, so control categories saw real traffic.
  EXPECT_GT(ledger->frames(CostCategory::kCtrlDepRequest), 0u);
  EXPECT_GT(ledger->bytes(CostCategory::kAppPayload), 0u);
}

TEST(CostLedgerCluster, TimelineAndExportAreDeterministicAcrossRuns) {
  auto run = [] {
    runtime::Cluster cluster(ledger_cluster(milliseconds(100)), gossip_factory());
    cluster.start();
    cluster.crash_at(ProcessId{1}, seconds(5));
    cluster.run_until(seconds(12));
    cluster.sample_ledger_now();
    return obs::export_metrics_json(cluster.metrics(), cluster.ledger());
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"timeline\""), std::string::npos);
  EXPECT_NE(a.find("\"ledger\""), std::string::npos);
}

TEST(CostLedgerCluster, FinalSampleMatchesScalarBlockedTime) {
  runtime::ClusterConfig cfg = ledger_cluster(milliseconds(50));
  cfg.algorithm = recovery::Algorithm::kBlocking;  // guarantees blocked > 0
  runtime::Cluster cluster(cfg, gossip_factory());
  cluster.start();
  cluster.crash_at(ProcessId{1}, seconds(5));
  cluster.run_until(seconds(20));
  cluster.sample_ledger_now();

  const obs::CostLedger* ledger = cluster.ledger();
  ASSERT_GT(ledger->sample_count(), 0u);
  const std::size_t last = ledger->sample_count() - 1;
  std::uint64_t timeline_blocked = 0;
  std::uint64_t timeline_sent = 0;
  for (std::uint32_t i = 0; i < ledger->num_nodes(); ++i) {
    timeline_blocked += ledger->sample_node(last, i).blocked_ns;
    timeline_sent += ledger->sample_node(last, i).sent_bytes;
  }
  EXPECT_EQ(timeline_blocked,
            static_cast<std::uint64_t>(cluster.total_blocked_time()));
  EXPECT_GT(timeline_blocked, 0u);
  // Per-node cumulative sent bytes cover everything except the service slot.
  EXPECT_EQ(timeline_sent + ledger->node_total_bytes(ledger->num_nodes()),
            ledger->sample_header(last).net_bytes);
}

TEST(CostLedgerCluster, PerfettoCounterTracksValidate) {
  runtime::ClusterConfig cfg = ledger_cluster(milliseconds(100));
  cfg.enable_spans = true;
  runtime::Cluster cluster(cfg, gossip_factory());
  cluster.start();
  cluster.crash_at(ProcessId{1}, seconds(5));
  cluster.run_until(seconds(12));
  cluster.sample_ledger_now();

  const std::string json =
      obs::export_trace_event_json(*cluster.spans(), cluster.ledger());
  std::string error;
  EXPECT_TRUE(obs::validate_trace_event_json(json, &error)) << error;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("net_kb"), std::string::npos);
  EXPECT_NE(json.find("blocked_ms"), std::string::npos);
}

}  // namespace
}  // namespace rr
