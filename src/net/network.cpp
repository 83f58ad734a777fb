#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "net/reliable.hpp"
#include "obs/ledger.hpp"
#include "obs/span.hpp"

namespace rr::net {

namespace {

std::uint64_t channel_key(ProcessId src, ProcessId dst) {
  return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
}

// Fault-draw domains; mixed into the hash so loss, dup and reorder draws
// for the same packet are independent.
constexpr std::uint64_t kTagLoss = 0x6c6f7373;     // "loss"
constexpr std::uint64_t kTagDup = 0x647570;        // "dup"
constexpr std::uint64_t kTagReorder = 0x72656f72;  // "reor"

constexpr std::uint64_t kPpmScale = 1'000'000;

std::uint32_t to_ppm(double p) {
  if (p <= 0.0) return 0;
  const double scaled = std::min(p, 1.0) * static_cast<double>(kPpmScale);
  return static_cast<std::uint32_t>(std::llround(scaled));
}

bool sorted_contains(const std::vector<ProcessId>& v, ProcessId id) {
  return std::binary_search(v.begin(), v.end(), id);
}

}  // namespace

Network::Network(sim::Simulator& sim, NetworkConfig config, metrics::Registry& metrics)
    : sim_(sim), config_(config), metrics_(metrics), rng_(sim.rng().fork("net")) {
  RR_CHECK(config_.base_latency >= 0);
  RR_CHECK(config_.bytes_per_second > 0);
  RR_CHECK(config_.jitter_max >= 0);
  RR_CHECK(config_.faults.loss >= 0.0 && config_.faults.loss < 1.0);
  RR_CHECK(config_.faults.dup >= 0.0 && config_.faults.dup <= 1.0);
  RR_CHECK(config_.faults.loss_burst >= 1);
  RR_CHECK(config_.faults.reorder_window >= 0);
  // The draw seed comes from a dedicated fork so the fault universe is a
  // function of the sim seed (plus salt) alone — using rng_ itself would
  // couple packet fates to how many jitter values were drawn before.
  draw_seed_ = sim.rng().fork("net.faults").next_u64() ^ config_.faults.salt;
  // Bursts scale the start probability down so the per-packet loss *rate*
  // is preserved: a burst beginning at i kills i..i+burst-1.
  loss_start_ppm_ = to_ppm(config_.faults.loss / config_.faults.loss_burst);
  dup_ppm_ = to_ppm(config_.faults.dup);
}

void Network::attach(ProcessId id, Endpoint& endpoint) {
  auto& st = endpoints_[id];
  RR_CHECK_MSG(st.endpoint == nullptr, "endpoint already attached");
  st.endpoint = &endpoint;
  st.up = true;
}

void Network::detach(ProcessId id) { endpoints_.erase(id); }

void Network::set_up(ProcessId id, bool up) {
  const auto it = endpoints_.find(id);
  RR_CHECK_MSG(it != endpoints_.end(), "unknown endpoint");
  it->second.up = up;
}

bool Network::is_up(ProcessId id) const {
  const auto it = endpoints_.find(id);
  return it != endpoints_.end() && it->second.up;
}

void Network::set_partitioned(ProcessId id, bool isolated) {
  const auto it = std::lower_bound(partitioned_.begin(), partitioned_.end(), id);
  const bool present = it != partitioned_.end() && *it == id;
  if (isolated && !present) {
    partitioned_.insert(it, id);
    RR_TRACE("net", "partition up around %s", to_string(id).c_str());
  } else if (!isolated && present) {
    partitioned_.erase(it);
    RR_TRACE("net", "partition healed around %s", to_string(id).c_str());
  }
}

bool Network::is_partitioned(ProcessId id) const {
  return sorted_contains(partitioned_, id);
}

void Network::set_fault_exempt(ProcessId id) {
  const auto it = std::lower_bound(exempt_.begin(), exempt_.end(), id);
  if (it == exempt_.end() || *it != id) exempt_.insert(it, id);
}

bool Network::link_open(ProcessId src, ProcessId dst) const {
  if (partitioned_.empty()) return true;
  return !sorted_contains(partitioned_, src) && !sorted_contains(partitioned_, dst);
}

bool Network::profile_applies(ProcessId src, ProcessId dst) const {
  if (!config_.faults.any()) return false;
  if (exempt_.empty()) return true;
  return !sorted_contains(exempt_, src) && !sorted_contains(exempt_, dst);
}

Network::ChannelHorizon& Network::channel_for(std::uint64_t key) {
  const auto it = std::lower_bound(
      channel_horizon_.begin(), channel_horizon_.end(), key,
      [](const ChannelHorizon& h, std::uint64_t k) { return h.key < k; });
  if (it != channel_horizon_.end() && it->key == key) return *it;
  // First packet on this channel; O(channels) insert, amortized out since
  // the channel set is bounded by attached pairs.
  return *channel_horizon_.insert(it, ChannelHorizon{key, kTimeZero, 0});
}

Duration Network::transit_time(std::size_t bytes) {
  const auto serialization =
      static_cast<Duration>(static_cast<double>(bytes) / config_.bytes_per_second * 1e9);
  const Duration jitter =
      config_.jitter_max > 0 ? static_cast<Duration>(rng_.bounded(
                                   static_cast<std::uint64_t>(config_.jitter_max) + 1))
                             : 0;
  return config_.base_latency + serialization + jitter;
}

std::uint64_t Network::fault_draw(std::uint64_t tag, std::uint64_t key,
                                  std::uint64_t index) const {
  Hasher h;
  h.mix_u64(draw_seed_).mix_u64(tag).mix_u64(key).mix_u64(index);
  return h.digest();
}

bool Network::loss_verdict(std::uint64_t key, std::uint64_t index) const {
  if (loss_start_ppm_ == 0) return false;
  // Packet i dies if any j in [i-burst+1, i] started a loss run.
  const std::uint64_t burst = config_.faults.loss_burst;
  const std::uint64_t lo = index + 1 >= burst ? index + 1 - burst : 0;
  for (std::uint64_t j = lo; j <= index; ++j) {
    if (fault_draw(kTagLoss, key, j) % kPpmScale < loss_start_ppm_) return true;
  }
  return false;
}

void Network::schedule_delivery(Time at, ProcessId src, ProcessId dst, Bytes payload) {
  sim_.schedule_at(at, [this, src, dst, payload = std::move(payload)]() mutable {
    const auto it = endpoints_.find(dst);
    if (it == endpoints_.end() || !it->second.up) {
      // Receiver crashed (or was removed) while the packet was in flight.
      metrics_.counter("net.drop.down").add();
      RR_TRACE("net", "drop in-flight %s -> %s (down)", to_string(src).c_str(),
               to_string(dst).c_str());
      BufferPool::global().release(std::move(payload));
      return;
    }
    if (!link_open(src, dst)) {
      // The wall went up while the packet was on the wire.
      metrics_.counter("net.drop.partition").add();
      BufferPool::global().release(std::move(payload));
      return;
    }
    it->second.endpoint->deliver(src, std::move(payload));
  });
}

void Network::observe(Time deliver_at, ProcessId src, ProcessId dst, const Bytes& payload,
                      bool charged, bool retransmit) {
  if (ledger_ == nullptr && tracer_ == nullptr) return;
  const std::size_t bytes = payload.size() + kHeaderBytes;
  const ReliableTransport::Unwrapped wire = ReliableTransport::unwrap(payload);
  if (charged && ledger_ != nullptr) {
    using Class = ReliableTransport::WireClass;
    const obs::Envelope env = retransmit                   ? obs::Envelope::kRetransmit
                              : wire.cls == Class::kAck       ? obs::Envelope::kAck
                              : wire.cls == Class::kMalformed ? obs::Envelope::kMalformed
                                                              : obs::Envelope::kFrame;
    ledger_->on_wire(src.value, wire.frame, bytes, env);
  }
  if (tracer_ != nullptr) {
    tracer_->on_packet(sim_.now(), deliver_at, dst.value, bytes, wire.frame);
  }
}

std::size_t Network::send(ProcessId src, ProcessId dst, Bytes payload, bool retransmit) {
  const auto src_it = endpoints_.find(src);
  if (src_it == endpoints_.end() || !src_it->second.up) {
    metrics_.counter("net.drop.down").add();
    return 0;
  }
  RR_CHECK_MSG(endpoints_.contains(dst), "send to unknown endpoint");

  // chan_index advances for every send that passed the liveness check, no
  // matter what kills the packet afterwards — fault coordinates must not
  // shift when an earlier packet is lost.
  ChannelHorizon& chan = channel_for(channel_key(src, dst));
  const std::uint64_t chan_index = chan.sent++;
  Duration extra_delay = 0;
  if (fault_hook_) {
    const FaultDecision fault = fault_hook_(src, dst, payload, chan_index);
    if (fault.drop) {
      metrics_.counter("net.drop.fault").add();
      BufferPool::global().release(std::move(payload));
      return 0;
    }
    if (fault.extra_delay > 0) {
      metrics_.counter("net.injected_delays").add();
      extra_delay = fault.extra_delay;
    }
  }
  if (!link_open(src, dst)) {
    metrics_.counter("net.drop.partition").add();
    BufferPool::global().release(std::move(payload));
    return 0;
  }
  const std::uint64_t key = channel_key(src, dst);
  const bool lossy = profile_applies(src, dst);
  if (lossy && loss_verdict(key, chan_index)) {
    metrics_.counter("net.drop.loss").add();
    RR_TRACE("net", "loss %s -> %s #%llu", to_string(src).c_str(),
             to_string(dst).c_str(), static_cast<unsigned long long>(chan_index));
    BufferPool::global().release(std::move(payload));
    return 0;
  }

  const std::size_t bytes = payload.size() + kHeaderBytes;
  metrics_.counter("net.packets").add();
  metrics_.counter("net.bytes").add(bytes);

  // FIFO: never deliver earlier than the previous packet on this channel.
  // Injected delay is applied before the horizon so it pushes the channel
  // back as a whole instead of reordering it. A reorder window adds its
  // extra *after* the horizon clamp: adjacent packets may then swap, and
  // the horizon degrades into a monotone high-water mark.
  Time deliver_at = sim_.now() + transit_time(bytes) + extra_delay;
  deliver_at = std::max(deliver_at, chan.at + config_.fifo_spacing);
  chan.at = std::max(chan.at, deliver_at);
  if (lossy && config_.faults.reorder_window > 0) {
    // The extra rides on top of the horizon-clamped base and is *not*
    // folded back into chan.at: the horizon stays the monotone base
    // schedule, so two adjacent packets with different extras may swap.
    const auto window = static_cast<std::uint64_t>(config_.faults.reorder_window);
    deliver_at += static_cast<Duration>(
        fault_draw(kTagReorder, key, chan_index) % (window + 1));
  }

  // Observed at the same site "net.bytes" is charged: the ledger's
  // category totals partition that counter exactly (V10). Duplicated
  // copies below bypass both, keeping the two in lockstep.
  observe(deliver_at, src, dst, payload, /*charged=*/true, retransmit);

  if (lossy && dup_ppm_ != 0 &&
      fault_draw(kTagDup, key, chan_index) % kPpmScale < dup_ppm_) {
    // The copy trails the original by a deterministic sliver, outside the
    // FIFO horizon — the classic retransmit-ghost a dedup layer must eat.
    metrics_.counter("net.dup_injected").add();
    const auto lag = static_cast<Duration>(
        1 + fault_draw(kTagDup ^ kTagReorder, key, chan_index) %
                (static_cast<std::uint64_t>(config_.jitter_max) + 1));
    schedule_delivery(deliver_at + lag, src, dst,
                      BufferPool::global().copy_of(payload));
  }

  schedule_delivery(deliver_at, src, dst, std::move(payload));
  return bytes;
}

void Network::inject(ProcessId src, ProcessId dst, Bytes payload, Duration delay) {
  RR_CHECK(delay >= 0);
  metrics_.counter("net.injected_stale").add();
  observe(sim_.now() + delay, src, dst, payload, /*charged=*/false, /*retransmit=*/false);
  // Bypasses sender liveness and the FIFO horizon (that is the point of a
  // stale straggler), but not the destination's down/partition wall.
  schedule_delivery(sim_.now() + delay, src, dst, std::move(payload));
}

void Network::broadcast(ProcessId src, const Bytes& payload) {
  // Deterministic fan-out order: sorted destination ids. Each transmission
  // needs its own buffer (independent delivery lifetimes); draw the copies
  // from the pool instead of fresh allocations.
  std::vector<ProcessId> dsts = attached();
  for (const ProcessId dst : dsts) {
    if (dst != src) send(src, dst, BufferPool::global().copy_of(payload));
  }
}

std::vector<ProcessId> Network::attached() const {
  std::vector<ProcessId> out;
  out.reserve(endpoints_.size());
  // endpoints_ stays unordered for the O(1) per-packet lookup in send().
  // rrlint: allow(D2): keys are sorted below before any caller sees them
  for (const auto& [id, st] : endpoints_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rr::net
