// Simulated message-passing fabric.
//
// Point-to-point, FIFO per (src, dst) channel — the TCP-over-ATM transport
// of the paper's testbed. Latency for a packet is base + size/bandwidth +
// jitter, with per-channel monotonic delivery enforcement so jitter never
// reorders a channel. By default the fabric is reliable-unless-crashed; a
// LinkFaultConfig profile degrades it into a lossy fabric (per-link loss
// probability with deterministic bursts, duplication, bounded reordering
// windows) and set_partitioned() isolates an endpoint bidirectionally —
// the substrate the reliable transport (net/reliable.hpp) exists to tame.
//
// Every probabilistic fault decision is a pure function of (seed, fault
// kind, channel, chan_index) via FNV hashing — no hidden RNG stream — so a
// packet's fate is identical across reruns and across --jobs worker counts
// regardless of event interleaving.
//
// Crash semantics: a *down* endpoint neither sends nor receives; packets
// already in flight toward a host that goes down are dropped at delivery
// time (the rebooted process must not see pre-crash traffic for free —
// whatever it needs it must recover via the protocol). Packets in flight
// *from* a host that goes down still arrive: the network keeps no
// affiliation between a packet and the fate of its sender, which is exactly
// what creates the stale-message hazard the recovery algorithm's incvector
// mechanism exists to close. A *partitioned* endpoint is different: the
// cut is bidirectional and applies both at send and at delivery time (a
// packet in flight when the wall goes up is swallowed too).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "metrics/registry.hpp"
#include "sim/simulator.hpp"

namespace rr::obs {
class CostLedger;
class SpanTracer;
}

namespace rr::net {

/// Delivery callback target, implemented by the node runtime.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called in virtual time when a packet arrives. `payload` is owned; an
  /// implementation that fully consumes it should hand the dead buffer back
  /// via BufferPool::global().release() so the send path can reuse it.
  virtual void deliver(ProcessId src, Bytes payload) = 0;
};

/// Fault-injection verdict for one outgoing packet (see Network::set_fault_hook).
struct FaultDecision {
  bool drop{false};          ///< swallow the packet at send time
  Duration extra_delay{0};   ///< added before the FIFO horizon is applied
};

/// Consulted on every send that passed the liveness checks. `chan_index` is
/// the 0-based count of prior sends on the (src, dst) channel — a stable,
/// deterministic coordinate for schedules ("drop the 4th packet 0→2").
/// The hook must not call Network::send() synchronously (schedule through
/// the simulator instead — e.g. via Network::inject()).
using FaultHook = std::function<FaultDecision(ProcessId src, ProcessId dst,
                                              const Bytes& payload,
                                              std::uint64_t chan_index)>;

/// Link unreliability profile, applied to every non-exempt (src, dst)
/// channel. All draws are deterministic hashes of (seed ^ salt, kind,
/// channel, chan_index); rerunning the same schedule replays the same
/// fates byte-for-byte.
struct LinkFaultConfig {
  /// Per-packet loss probability in [0, 1). 0 disables loss.
  double loss{0.0};
  /// Losses come in runs of this length: a loss draw at index i kills
  /// packets i..i+burst-1 on that channel. The draw probability is scaled
  /// by 1/burst so the long-run loss *rate* stays `loss`. Must be >= 1.
  std::uint32_t loss_burst{1};
  /// Probability that a delivered packet is also duplicated (the copy
  /// arrives out of band shortly after the original). 0 disables.
  double dup{0.0};
  /// When > 0, each packet gets a deterministic extra delay in
  /// [0, reorder_window] that is *not* clamped to the channel horizon —
  /// adjacent packets may swap. The horizon itself stays monotone (it
  /// becomes a high-water mark). 0 keeps strict FIFO.
  Duration reorder_window{0};
  /// Mixed into every draw; lets two runs with the same sim seed explore
  /// different loss universes.
  std::uint64_t salt{0};

  [[nodiscard]] bool any() const noexcept {
    return loss > 0.0 || dup > 0.0 || reorder_window > 0;
  }
};

struct NetworkConfig {
  /// Fixed one-way propagation + protocol-stack latency per packet.
  Duration base_latency = microseconds(250);
  /// Link bandwidth; 155 Mb/s ATM ≈ 19.4 MB/s.
  double bytes_per_second = 155e6 / 8.0;
  /// Uniform extra delay in [0, jitter_max] (0 disables jitter).
  Duration jitter_max = microseconds(50);
  /// Minimum spacing between consecutive deliveries on one channel.
  Duration fifo_spacing = nanoseconds(1);
  /// Link unreliability; default is the paper's perfect fabric.
  LinkFaultConfig faults{};
};

class Network {
 public:
  Network(sim::Simulator& sim, NetworkConfig config, metrics::Registry& metrics);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register the delivery target for `id`. Endpoint must outlive the
  /// network or detach first. Newly attached endpoints start *up*.
  void attach(ProcessId id, Endpoint& endpoint);
  void detach(ProcessId id);

  /// Crash/restart switch. While down, sends from and deliveries to `id`
  /// are dropped.
  void set_up(ProcessId id, bool up);
  [[nodiscard]] bool is_up(ProcessId id) const;

  /// Bidirectional partition switch: while isolated, every link touching
  /// `id` is cut — sends from it, sends toward it, and packets already in
  /// flight toward it (checked again at delivery time). Unlike set_up the
  /// endpoint itself stays alive: timers run, state is kept, and on heal
  /// traffic resumes without a restore. Drops count as net.drop.partition.
  void set_partitioned(ProcessId id, bool isolated);
  [[nodiscard]] bool is_partitioned(ProcessId id) const;

  /// Exempt every link touching `id` from the loss/dup/reorder profile
  /// (partitions still cut it). Used for infrastructure endpoints — the
  /// ordinal service is not a lossy radio hop.
  void set_fault_exempt(ProcessId id);

  /// Enqueue a packet. Returns the number of bytes charged (payload +
  /// per-packet header overhead), or 0 if it was dropped at send time.
  /// `retransmit` marks a reliable-transport re-send: its bytes repeat a
  /// frame already charged once, so the ledger books them as
  /// transport_retransmit instead of under the frame's content.
  std::size_t send(ProcessId src, ProcessId dst, Bytes payload, bool retransmit = false);

  /// send() to every attached endpoint except `src`.
  void broadcast(ProcessId src, const Bytes& payload);

  /// Install (or clear, with nullptr) the span tracer tap. Every accepted
  /// or injected packet reports (send time, delivery time, destination,
  /// size, inner frame) — both endpoints of the interval are known at send
  /// time, so the tap is a single call with no matching state.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

  /// Install (or clear, with nullptr) the cost-attribution ledger. Every
  /// accepted packet is classified at the exact site where "net.bytes" is
  /// charged, so the ledger's category totals partition that counter (the
  /// V10 conservation oracle).
  void set_ledger(obs::CostLedger* ledger) { ledger_ = ledger; }

  /// Install (or clear, with nullptr) the per-packet fault hook. Applies
  /// extra delay *before* the FIFO horizon, so injected delays push the
  /// whole channel back instead of reordering it.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Schedule a raw payload for delivery to `dst` after `delay`, bypassing
  /// the sender-liveness check and the FIFO horizon. This models the stale
  /// straggler the incvector mechanism exists to reject: a packet from a
  /// dead execution arriving out of band after recovery. The destination's
  /// down-check still applies at delivery time.
  void inject(ProcessId src, ProcessId dst, Bytes payload, Duration delay);

  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::vector<ProcessId> attached() const;

  /// Bytes of framing charged per packet on top of the payload.
  static constexpr std::size_t kHeaderBytes = 32;

 private:
  struct EndpointState {
    Endpoint* endpoint{nullptr};
    bool up{true};
  };

  /// The monotonic delivery horizon of one (src, dst) channel, keyed by the
  /// packed (src << 32 | dst) id. Kept as a flat vector sorted by key: the
  /// channel set is small and stops growing once every pair has spoken, so
  /// the per-packet lookup is a branch-free binary search over contiguous
  /// memory instead of a hash probe.
  struct ChannelHorizon {
    std::uint64_t key;
    Time at;
    std::uint64_t sent;  ///< packets sent on this channel (fault coordinates)
  };

  [[nodiscard]] Duration transit_time(std::size_t bytes);
  /// Channel slot (horizon + send count), inserted (at kTimeZero) on first use.
  [[nodiscard]] ChannelHorizon& channel_for(std::uint64_t key);

  /// Stateless fault draw: uniform u64, pure in (draw seed, tag, channel
  /// key, chan_index). Independent of call order and of the jitter RNG.
  [[nodiscard]] std::uint64_t fault_draw(std::uint64_t tag, std::uint64_t key,
                                         std::uint64_t index) const;
  /// True iff the loss profile kills packet `index` on channel `key`
  /// (directly or as part of a burst started by an earlier index).
  [[nodiscard]] bool loss_verdict(std::uint64_t key, std::uint64_t index) const;
  /// Both link ends outside the partition set?
  [[nodiscard]] bool link_open(ProcessId src, ProcessId dst) const;
  /// Loss/dup/reorder apply to this link? (Exempt endpoints opt out.)
  [[nodiscard]] bool profile_applies(ProcessId src, ProcessId dst) const;
  /// Schedule one delivery attempt at `at`, re-checking down/partition then.
  void schedule_delivery(Time at, ProcessId src, ProcessId dst, Bytes payload);
  /// The observation taps' one view of a packet: the transport framing is
  /// unwrapped once and the same inner frame goes to the ledger (only for
  /// packets charged to "net.bytes") and to the span tracer.
  void observe(Time deliver_at, ProcessId src, ProcessId dst, const Bytes& payload,
               bool charged, bool retransmit);

  sim::Simulator& sim_;
  NetworkConfig config_;
  metrics::Registry& metrics_;
  Rng rng_;
  std::unordered_map<ProcessId, EndpointState> endpoints_;
  std::vector<ChannelHorizon> channel_horizon_;  // sorted by key
  FaultHook fault_hook_;
  obs::SpanTracer* tracer_{nullptr};
  obs::CostLedger* ledger_{nullptr};
  std::vector<ProcessId> partitioned_;  // sorted; typically 0-2 entries
  std::vector<ProcessId> exempt_;       // sorted; typically just the ord service
  std::uint64_t draw_seed_{0};          // sim seed fork ^ faults.salt
  std::uint32_t loss_start_ppm_{0};     // P(burst starts at index) in ppm
  std::uint32_t dup_ppm_{0};
};

}  // namespace rr::net
