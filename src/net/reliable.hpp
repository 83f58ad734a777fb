// Reliable-delivery transport over the (possibly lossy) simulated fabric.
//
// The paper assumes TCP underneath: reliable, FIFO, dedup'd channels. Once
// the fabric can lose, duplicate and partition (net/network.hpp), that
// assumption has to be rebuilt here — per-peer sequence numbers with
// cumulative acks, retransmission timers with exponential backoff and
// deterministic jitter, and receive-side resequencing/dedup — so the FBL
// protocol above keeps seeing the channel semantics its proofs require.
//
// Incarnations double as transport epochs. A wire frame carries
// (epoch, stream, seq): `epoch` is the sender's incarnation (bumped by its
// restarts), `stream` restarts the sequence space within an epoch whenever
// the sender observes that the *receiver* restarted (its frames arrive with
// a higher epoch), and `seq` counts data frames in the stream from 1.
// Channels compare (epoch, stream) lexicographically: lower is a stale
// incarnation's traffic and is dropped, higher resets the channel. The
// exactly-once guarantee (V9) is per synced channel — across a crash the
// recovery protocol itself owns redelivery (replay from logs + post-recovery
// retransmission), exactly as in the paper; the transport only has to mask
// *link* faults between two stable incarnations.
//
// Graceful degradation: retries are bounded. After `max_retries` back-to-back
// timeouts on one peer the transport reports the peer unreachable (the node
// feeds this into the failure detector as a suspicion) and drops to a slow
// probe cadence — it never blocks the caller and never gives up the queue,
// so when a partition heals the backlog drains and the peer is un-suspected
// by its own heartbeats. Live processes keep serving throughout, which is
// the paper's never-block discipline applied to the transport.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace rr::net {

struct TransportConfig {
  /// Off by default: send()/on_wire() are exact passthroughs, bit-identical
  /// to the pre-transport wire format. Enable alongside link faults.
  bool enabled{false};
  /// First retransmission timeout; doubles per back-to-back timeout.
  Duration rto_initial = milliseconds(40);
  /// Backoff ceiling.
  Duration rto_max = seconds(2);
  /// Deterministic jitter in [0, rto_jitter] added to each arm, from a
  /// per-node forked RNG stream (desynchronizes retransmit storms).
  Duration rto_jitter = milliseconds(5);
  /// Back-to-back timeouts on one peer before it is reported unreachable.
  std::uint32_t max_retries{8};
  /// Probe cadence once a peer is unreachable (only the queue head is
  /// retransmitted, to keep the partition-facing traffic bounded).
  Duration probe_period = milliseconds(400);
  /// Out-of-order frames held per peer; beyond this, arrivals are dropped
  /// and recovered by the sender's retransmission.
  std::size_t max_held{1024};
};

class ReliableTransport {
 public:
  /// Upstream delivery: `payload[offset..]` is the inner frame. The buffer
  /// is only valid for the duration of the call (the transport releases it).
  using DeliverFn =
      std::function<void(ProcessId src, const Bytes& payload, std::size_t offset)>;
  /// Reachability edge: `unreachable` flips true after max_retries timeouts
  /// and back to false on the next ack from the peer.
  using PeerSignal = std::function<void(ProcessId peer, bool unreachable)>;
  /// Delivery confirmation: every data frame accepted by send() gets a
  /// per-destination message index (1, 2, ... — stable across stream
  /// restarts, unlike the wire seq). The signal fires when the peer's
  /// cumulative ack newly covers `msg` and everything before it. Note the
  /// confirmation is about the *channel*: a peer that restarts mid-stream
  /// acks the backlog positionally without having delivered it, so
  /// consumers must treat a confirmed-then-crashed peer as lossy (the
  /// recovery protocol's forget-holder pass does exactly that).
  using AckSignal = std::function<void(ProcessId dst, std::uint64_t msg)>;

  /// First wire byte of a transport data / ack frame. Chosen outside the
  /// fbl::FrameKind range so raw (unwrapped) frames pass through untouched.
  static constexpr std::uint8_t kDataByte = 0xD7;
  static constexpr std::uint8_t kAckByte = 0xA7;

  /// How a wire payload is framed.
  enum class WireClass : std::uint8_t {
    kRaw,        ///< no transport framing (heartbeat, ordinal service, off)
    kData,       ///< data header wrapping an inner frame
    kAck,        ///< cumulative ack (no inner frame)
    kMalformed,  ///< data marker, but the header does not decode
  };
  struct Unwrapped {
    WireClass cls{WireClass::kRaw};
    /// Header fields; meaningful for kData only.
    Incarnation epoch{0};
    std::uint64_t stream{0};
    std::uint64_t seq{0};
    /// The protocol frame the payload carries: all of it when raw, what
    /// follows the header when data, empty for acks and malformed headers.
    std::span<const std::byte> frame;
  };
  /// The one decoder of the data header
  /// [kDataByte][u32 epoch][varint stream][varint seq]. Stateless, so the
  /// network's observation taps and the schedule explorer read the wire
  /// exactly as the receiving transport does.
  [[nodiscard]] static Unwrapped unwrap(std::span<const std::byte> wire);

  ReliableTransport(sim::Simulator& sim, Network& network, ProcessId self,
                    TransportConfig config, metrics::Registry& metrics);
  ~ReliableTransport();

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_peer_signal(PeerSignal fn) { peer_signal_ = std::move(fn); }
  void set_ack_signal(AckSignal fn) { ack_signal_ = std::move(fn); }

  /// Never wrap traffic to `peer` (infrastructure endpoints like the
  /// ordinal service speak their own raw protocol).
  void set_raw_peer(ProcessId peer);

  /// Reliable send: wraps, tracks, retransmits until cumulatively acked.
  /// Returns the bytes charged for the first transmission attempt (0 if the
  /// fabric swallowed it — the retransmit timer still runs). Passthrough
  /// when disabled or `dst` is a raw peer.
  std::size_t send(ProcessId dst, Bytes payload);

  /// Message index assigned to the most recent send() toward `dst` (the
  /// AckSignal's currency); 0 if nothing was ever channeled that way
  /// (transport disabled, raw peer, or no sends yet).
  [[nodiscard]] std::uint64_t last_sent_msg(ProcessId dst) const;

  /// Unconditional passthrough (heartbeats: retransmitting a liveness
  /// signal would invert its meaning).
  std::size_t send_raw(ProcessId dst, Bytes payload);

  /// Receive tap: Node::deliver routes every packet here. Transport frames
  /// are consumed (resequenced, dedup'd, acked); anything else is handed to
  /// the DeliverFn as-is. Takes ownership of `payload`.
  void on_wire(ProcessId src, Bytes payload);

  /// Forget all channel state and adopt `epoch` as the local incarnation.
  /// Crash passes 0 (a down node has no transport); start/restore pass the
  /// node's incarnation, whose bump is what peers key channel resets on.
  void reset(Incarnation epoch);

  /// End-of-run audit surface for the V9 oracle (see check/explorer.cpp).
  struct ChannelAudit {
    Incarnation epoch{0};
    std::uint64_t stream{0};
    /// Sender side: highest cumulatively acked seq. Receiver side: highest
    /// contiguously delivered seq.
    std::uint64_t progress{0};
    /// Receiver side: seq the stream synced at minus one (nonzero means the
    /// channel attached mid-stream after a restart — outside the
    /// exactly-once domain). Sender side: frames still awaiting ack.
    std::uint64_t baseline_or_outstanding{0};
    bool exists{false};
  };
  [[nodiscard]] ChannelAudit send_audit(ProcessId dst) const;
  [[nodiscard]] ChannelAudit recv_audit(ProcessId src) const;
  [[nodiscard]] bool unreachable(ProcessId peer) const;
  [[nodiscard]] Incarnation epoch() const noexcept { return epoch_; }
  [[nodiscard]] const TransportConfig& config() const noexcept { return config_; }

 private:
  struct Unacked {
    std::uint64_t seq;
    std::uint64_t msg;  // stable per-destination index (survives re-wrapping)
    Bytes wire;         // full transport frame, ready to retransmit
  };
  struct SendChannel {
    std::uint64_t stream{1};
    std::uint64_t next_seq{1};
    std::uint64_t next_msg{1};
    std::uint64_t acked{0};
    /// Highest incarnation this peer has announced in its acks (0 =
    /// unknown). Lets a one-directional channel detect the peer's restart
    /// from its first post-restart data frame.
    Incarnation peer_epoch{0};
    std::deque<Unacked> unacked;
    Duration rto{0};
    std::uint32_t retries{0};
    bool unreachable{false};
    sim::EventId timer{sim::kNoEvent};
  };
  struct RecvChannel {
    Incarnation epoch{0};
    std::uint64_t stream{0};
    std::uint64_t delivered{0};
    std::uint64_t baseline{0};
    bool synced{false};
    std::map<std::uint64_t, Bytes> held;  // out-of-order stash
  };

  [[nodiscard]] bool is_raw_peer(ProcessId peer) const;
  [[nodiscard]] Bytes wrap(const SendChannel& ch, std::uint64_t seq,
                           std::span<const std::byte> inner) const;
  void arm_timer(ProcessId dst, SendChannel& ch, Duration delay);
  void on_timeout(ProcessId dst);
  void on_ack(ProcessId src, const Bytes& payload);
  void on_data(ProcessId src, Bytes payload, const Unwrapped& head);
  void send_ack(ProcessId dst, const RecvChannel& ch);
  /// The receiver behind `peer` restarted: restart our sequence space
  /// toward it (stream+1, re-wrap and resend everything unacked).
  void restart_stream(ProcessId peer, SendChannel& ch);
  void deliver_up(ProcessId src, Bytes payload, std::size_t offset);
  void clear_send(SendChannel& ch);
  void clear_recv(RecvChannel& ch);

  sim::Simulator& sim_;
  Network& network_;
  ProcessId self_;
  TransportConfig config_;
  metrics::Registry& metrics_;
  Rng jitter_rng_;
  DeliverFn deliver_;
  PeerSignal peer_signal_;
  AckSignal ack_signal_;
  Incarnation epoch_{0};
  std::vector<ProcessId> raw_peers_;  // sorted
  // Ordered maps: reset() walks the channels on incarnation bumps and the
  // resulting retransmit/ack traffic must be scheduled in peer-id order,
  // not hash order (rrlint D2).
  std::map<ProcessId, SendChannel> send_;
  std::map<ProcessId, RecvChannel> recv_;
};

}  // namespace rr::net
