// Communication-cost ledger — per-category byte attribution + deterministic
// counter time-series.
//
// The paper's argument is about *communication costs*, but scalar counters
// ("net.bytes", "recovery.ctrl_bytes") cannot say which protocol component
// the bytes belong to, nor how cost and live-process intrusion evolve
// during a run. The ledger closes both gaps:
//
//   * Byte attribution: every packet accepted by net::Network::send is
//     classified — at the exact site where "net.bytes" is charged — into a
//     fixed category taxonomy: application payload, piggybacked
//     determinants (pruned vs the paper's re-ship-everything mode),
//     incvector full snapshots vs deltas, gather-tree relay fan-out,
//     recovery control per kind (mirroring analysis::MessageBreakdown),
//     reliable-transport acks and retransmissions, heartbeats, checkpoint
//     notices and Chandy-Lamport snapshot frames. net unwraps the
//     reliable-transport framing before the ledger sees a packet, so the
//     wrapper never smears the inner frame's category. Category totals are
//     mirrored into metrics::Registry as "ledger.bytes.<cat>" and
//     "ledger.frames.<cat>"; the per-(node, category) breakdown lives in
//     dense arrays here and is exported via export_metrics_json().
//
//   * Timeline: a sampler driven purely by sim time (fixed sample_every
//     period, no wall clock) snapshots the wire totals and every node's
//     IntervalTracker blocked time into a chunked-arena series, giving
//     bytes-over-time and intrusion-over-time curves that are bit-identical
//     across --jobs values. The series renders as Perfetto counter tracks
//     next to the span flame chart (obs/perfetto.hpp) and as JSON via
//     rrsim/rrcheck --metrics-out.
//
//   * V10 oracle (audit()): the category byte totals must sum exactly to
//     "net.bytes", and the per-kind control-frame counts seen on the wire
//     must equal the sender-side "recovery.msg.<kind>" counters — the
//     wire-sniffed attribution and the protocol's own intent bookkeeping
//     are two independent derivations of the same quantity.
//
// Layering: obs (rank 3) may include fbl (rank 2) for the frame codecs but
// never recovery (rank 5) or net (rank 4). Control-frame sub-structure is
// therefore parsed here against the wire layout recovery/messages.cpp
// defines (the agreement is pinned by tests/obs_ledger_test.cpp). The
// transport header is not: net decodes it once per packet and hands the
// ledger the inner frame plus an Envelope saying what was around it —
// including whether the transport sent the packet as a retransmission,
// which net::Network::send takes as an explicit argument. No wire layout
// crosses into obs as configuration.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/serde.hpp"
#include "common/time.hpp"
#include "metrics/registry.hpp"

namespace rr::obs {

/// Fixed cost taxonomy. Every wire byte accepted by the network lands in
/// exactly one category; every packet counts one frame under its primary
/// category. See DESIGN.md §11 for the attribution rules.
enum class CostCategory : std::uint8_t {
  kAppPayload = 0,       ///< app frames minus their piggybacked determinants
  kPiggybackPruned,      ///< determinants piggybacked under per-dest pruning
  kPiggybackReship,      ///< determinants under the paper's re-ship-all mode
  kHeartbeat,            ///< failure-detector liveness frames
  kCkptNotice,           ///< checkpoint GC notices
  kSnapshot,             ///< Chandy-Lamport markers/reports
  kIncVectorFull,        ///< full incvector snapshots inside DepRequests
  kIncVectorDelta,       ///< versioned incvector deltas inside DepRequests
  kGatherRelay,          ///< DepRequest fan-out forwarded by a tree relay
  kTransportAck,         ///< reliable-transport cumulative acks (0xA7)
  kTransportRetransmit,  ///< retransmitted reliable-transport data frames
  kOther,                ///< unparseable / unknown leading byte
  // Control frames per kind, in recovery's CtrlKind wire order (1..14);
  // the first ten mirror analysis::MessageBreakdown.
  kCtrlOrdRequest,
  kCtrlOrdReply,
  kCtrlRSetRequest,
  kCtrlRSetReply,
  kCtrlIncRequest,
  kCtrlIncReply,
  kCtrlDepRequest,
  kCtrlDepReply,
  kCtrlDepInstall,
  kCtrlRecoveryComplete,
  kCtrlReplayRequest,
  kCtrlReplayData,
  kCtrlDetPush,
  kCtrlDetAck,
};
inline constexpr std::size_t kCostCategoryCount = 26;
inline constexpr std::size_t kFirstCtrlCategory =
    static_cast<std::size_t>(CostCategory::kCtrlOrdRequest);
inline constexpr std::size_t kCtrlCategoryCount = 14;

/// Stable metric suffix ("app_payload", "ctrl.dep_request", ...). The
/// ctrl.<kind> suffixes match recovery::control_name().
[[nodiscard]] const char* to_string(CostCategory c);

struct CostLedgerConfig {
  /// Application processes; the ledger adds one slot for services (ord).
  std::uint32_t num_nodes{0};
  /// Attributes piggybacked determinant bytes to the pruned vs the
  /// re-ship-everything category (mirrors ClusterConfig::prune_piggyback).
  bool prune_piggyback{true};
  /// Timeline sampling period; 0 disables the sampler (the byte ledger
  /// itself is always on).
  Duration sample_every{0};
};

/// What the reliable transport put around a packet, as net decoded it.
enum class Envelope : std::uint8_t {
  kFrame,       ///< a protocol frame, raw or unwrapped from a data header
  kAck,         ///< a transport ack (no frame)
  kMalformed,   ///< a data header that does not decode (no frame)
  kRetransmit,  ///< a transport re-send: bytes repeat an already-charged frame
};

/// One timeline sample of one node.
struct LedgerNodeSample {
  std::uint64_t blocked_ns{0};  ///< cumulative IntervalTracker blocked time
  std::uint64_t sent_bytes{0};  ///< cumulative wire bytes sent by the node
};

/// Per-sample global header (node rows live in the chunked arena).
struct LedgerSampleHeader {
  Time at{0};
  std::uint64_t net_bytes{0};   ///< "net.bytes" at the sample instant
  std::uint64_t ctrl_bytes{0};  ///< "recovery.ctrl_bytes" ditto
};

class CostLedger {
 public:
  CostLedger(CostLedgerConfig config, metrics::Registry& metrics);

  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  // --- wire tap (net::Network::send, at the "net.bytes" charge site) ------

  /// Classify and record one accepted packet of `wire_bytes` (payload,
  /// transport header and net::Network::kHeaderBytes framing, all charged
  /// to one category set). `frame` is the protocol frame inside it; only
  /// Envelope::kFrame packets are classified by content.
  void on_wire(std::uint32_t src, std::span<const std::byte> frame,
               std::uint64_t wire_bytes, Envelope envelope);

  // --- timeline -----------------------------------------------------------

  /// Append one sample: `blocked_ns[i]` is node i's cumulative blocked
  /// time. Driven by the owner on a fixed sim-time cadence (and once more
  /// at run end, so the final sample equals the scalar metric exactly).
  void take_sample(Time now, std::span<const std::uint64_t> blocked_ns);

  [[nodiscard]] Duration sample_every() const noexcept { return config_.sample_every; }
  [[nodiscard]] std::size_t sample_count() const noexcept { return headers_.size(); }
  [[nodiscard]] const LedgerSampleHeader& sample_header(std::size_t i) const {
    return headers_[i];
  }
  /// Node row of sample i (node in [0, num_nodes), app processes only).
  [[nodiscard]] const LedgerNodeSample& sample_node(std::size_t i,
                                                    std::uint32_t node) const;

  // --- introspection ------------------------------------------------------

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return config_.num_nodes; }
  [[nodiscard]] std::uint64_t bytes(CostCategory c) const noexcept {
    return bytes_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t frames(CostCategory c) const noexcept {
    return frames_[static_cast<std::size_t>(c)];
  }
  /// Sum of bytes over all categories (== "net.bytes" when V10 holds).
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  /// Per-(node, category) bytes; node == num_nodes() is the service slot.
  [[nodiscard]] std::uint64_t node_bytes(std::uint32_t node, CostCategory c) const;
  /// All wire bytes sent by `node`, across categories.
  [[nodiscard]] std::uint64_t node_total_bytes(std::uint32_t node) const;

  // --- V10 cost-conservation oracle --------------------------------------

  /// Empty when the ledger agrees with the registry: (a) category bytes sum
  /// exactly to "net.bytes"; (b) for each control kind, wire-classified
  /// frame counts equal the sender-side "recovery.msg.<kind>" counters.
  [[nodiscard]] std::vector<std::string> audit(const metrics::Registry& m) const;

 private:
  static constexpr std::size_t kChunkShift = 10;  // 1024 node rows per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  void record(std::uint32_t slot, CostCategory c, std::uint64_t bytes,
              std::uint64_t frames);
  /// Classify `payload` (a protocol frame) and record its categories;
  /// `total` is the full charge for the packet.
  void classify_frame(std::uint32_t slot, std::span<const std::byte> payload,
                      std::uint64_t total);
  void classify_control(std::uint32_t slot, BufReader& r, std::uint64_t total);
  [[nodiscard]] LedgerNodeSample& sample_slot(std::size_t flat);

  CostLedgerConfig config_;
  metrics::Registry& metrics_;
  std::array<std::uint64_t, kCostCategoryCount> bytes_{};
  std::array<std::uint64_t, kCostCategoryCount> frames_{};
  /// "ledger.bytes.<cat>" / "ledger.frames.<cat>" handles, resolved once.
  std::array<metrics::Counter*, kCostCategoryCount> bytes_counter_{};
  std::array<metrics::Counter*, kCostCategoryCount> frames_counter_{};
  /// (num_nodes + 1) x kCostCategoryCount, node-major.
  std::vector<std::uint64_t> per_node_;
  /// Timeline: headers plus a chunked arena of node rows (sample-major:
  /// sample s, node i lives at flat index s * num_nodes + i). Chunks never
  /// move, so appending a sample never invalidates earlier rows.
  std::vector<LedgerSampleHeader> headers_;
  std::vector<std::unique_ptr<LedgerNodeSample[]>> chunks_;
  std::size_t node_rows_{0};
};

/// Deterministic metrics JSON: every registry counter (sorted), the
/// ledger's category/per-node breakdown and the sampled timeline. Byte
/// identical across --jobs values for identical runs; `ledger` may be null
/// (counters only).
[[nodiscard]] std::string export_metrics_json(const metrics::Registry& metrics,
                                              const CostLedger* ledger);

}  // namespace rr::obs
