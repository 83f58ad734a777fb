#include "net/reliable.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace rr::net {

namespace {

/// Lexicographic (epoch, stream) comparison — the channel freshness order.
int cmp_channel(Incarnation e1, std::uint64_t s1, Incarnation e2, std::uint64_t s2) {
  if (e1 != e2) return e1 < e2 ? -1 : 1;
  if (s1 != s2) return s1 < s2 ? -1 : 1;
  return 0;
}

}  // namespace

ReliableTransport::ReliableTransport(sim::Simulator& sim, Network& network,
                                     ProcessId self, TransportConfig config,
                                     metrics::Registry& metrics)
    : sim_(sim),
      network_(network),
      self_(self),
      config_(config),
      metrics_(metrics),
      jitter_rng_(sim.rng().fork("transport").fork(self.value)) {
  RR_CHECK(config_.rto_initial > 0);
  RR_CHECK(config_.rto_max >= config_.rto_initial);
  RR_CHECK(config_.rto_jitter >= 0);
  RR_CHECK(config_.max_retries >= 1);
  RR_CHECK(config_.probe_period > 0);
}

ReliableTransport::~ReliableTransport() { reset(0); }

void ReliableTransport::set_raw_peer(ProcessId peer) {
  const auto it = std::lower_bound(raw_peers_.begin(), raw_peers_.end(), peer);
  if (it == raw_peers_.end() || *it != peer) raw_peers_.insert(it, peer);
}

ReliableTransport::Unwrapped ReliableTransport::unwrap(std::span<const std::byte> wire) {
  Unwrapped out;
  if (wire.empty()) return out;
  switch (std::to_integer<std::uint8_t>(wire[0])) {
    case kAckByte:
      out.cls = WireClass::kAck;
      return out;
    case kDataByte:
      try {
        BufReader r(wire);
        (void)r.u8();
        out.epoch = r.u32();
        out.stream = r.varint();
        out.seq = r.varint();
        out.frame = r.raw(r.remaining());
        out.cls = WireClass::kData;
      } catch (const SerdeError&) {
        out.cls = WireClass::kMalformed;
      }
      return out;
    default:
      out.frame = wire;
      return out;
  }
}

bool ReliableTransport::is_raw_peer(ProcessId peer) const {
  return std::binary_search(raw_peers_.begin(), raw_peers_.end(), peer);
}

Bytes ReliableTransport::wrap(const SendChannel& ch, std::uint64_t seq,
                              std::span<const std::byte> inner) const {
  BufWriter w(inner.size() + 32);
  w.u8(kDataByte);
  w.u32(epoch_);
  w.varint(ch.stream);
  w.varint(seq);
  w.raw(inner);
  return std::move(w).take();
}

std::size_t ReliableTransport::send_raw(ProcessId dst, Bytes payload) {
  return network_.send(self_, dst, std::move(payload));
}

std::size_t ReliableTransport::send(ProcessId dst, Bytes payload) {
  if (!config_.enabled || is_raw_peer(dst)) {
    return network_.send(self_, dst, std::move(payload));
  }
  auto [it, created] = send_.try_emplace(dst);
  SendChannel& ch = it->second;
  if (created) ch.rto = config_.rto_initial;

  const std::uint64_t seq = ch.next_seq++;
  const std::uint64_t msg = ch.next_msg++;
  Bytes wire = wrap(ch, seq, payload);
  BufferPool::global().release(std::move(payload));
  ch.unacked.push_back({seq, msg, BufferPool::global().copy_of(wire)});
  // While the peer is unreachable only the queue head probes the link:
  // letting a fresh frame race ahead of the queued backlog would both break
  // the bounded-traffic promise and, on a channel the receiver has no state
  // for yet, let its first-contact baseline adopt a mid-queue position —
  // silently "acking" the older queued frames without ever delivering them.
  std::size_t charged = 0;
  if (ch.unreachable) {
    BufferPool::global().release(std::move(wire));
  } else {
    charged = network_.send(self_, dst, std::move(wire));
  }
  if (!ch.timer.valid()) {
    Duration delay = ch.unreachable ? config_.probe_period : ch.rto;
    if (config_.rto_jitter > 0) {
      delay += static_cast<Duration>(
          jitter_rng_.bounded(static_cast<std::uint64_t>(config_.rto_jitter) + 1));
    }
    arm_timer(dst, ch, delay);
  }
  return charged;
}

void ReliableTransport::arm_timer(ProcessId dst, SendChannel& ch, Duration delay) {
  ch.timer = sim_.schedule_after(delay, [this, dst] { on_timeout(dst); });
}

void ReliableTransport::on_timeout(ProcessId dst) {
  const auto it = send_.find(dst);
  if (it == send_.end()) return;
  SendChannel& ch = it->second;
  ch.timer = sim::kNoEvent;
  if (ch.unacked.empty()) return;

  // Retransmit the outstanding window (head only once the peer is declared
  // unreachable — a partition should not be hammered with the full backlog).
  const std::size_t burst = ch.unreachable ? 1 : ch.unacked.size();
  for (std::size_t i = 0; i < burst; ++i) {
    const Unacked& u = ch.unacked[i];
    metrics_.counter("net.retransmit").add();
    metrics_.counter("net.retransmit_bytes").add(u.wire.size() + Network::kHeaderBytes);
    network_.send(self_, dst, BufferPool::global().copy_of(u.wire), /*retransmit=*/true);
  }

  if (ch.retries < config_.max_retries) ++ch.retries;
  if (ch.retries >= config_.max_retries && !ch.unreachable) {
    // Bounded-retry escalation: stop treating this as transient, tell the
    // failure detector, fall back to probing. The queue is kept — if the
    // partition heals, the probe's ack revives the full window.
    ch.unreachable = true;
    metrics_.counter("transport.peer_unreachable").add();
    RR_TRACE("transport", "%s declares %s unreachable after %u retries",
             to_string(self_).c_str(), to_string(dst).c_str(), ch.retries);
    if (peer_signal_) peer_signal_(dst, true);
  }

  Duration delay = ch.unreachable ? config_.probe_period
                                  : std::min(ch.rto * 2, config_.rto_max);
  if (!ch.unreachable) ch.rto = delay;
  if (config_.rto_jitter > 0) {
    delay += static_cast<Duration>(
        jitter_rng_.bounded(static_cast<std::uint64_t>(config_.rto_jitter) + 1));
  }
  arm_timer(dst, ch, delay);
}

void ReliableTransport::restart_stream(ProcessId peer, SendChannel& ch) {
  // The receiver restarted: its receive state for our stream is gone, so
  // re-key the sequence space and resend the backlog from seq 1. Frames
  // that were already acked by the dead incarnation are *not* resent — the
  // recovery protocol redelivers what a rolled-back process needs.
  ++ch.stream;
  ch.acked = 0;
  ch.next_seq = 1;
  ch.retries = 0;
  ch.rto = config_.rto_initial;
  metrics_.counter("transport.stream_restarts").add();
  if (ch.unreachable) {
    ch.unreachable = false;
    if (peer_signal_) peer_signal_(peer, false);
  }
  for (Unacked& u : ch.unacked) {
    const std::uint64_t seq = ch.next_seq++;
    Bytes rewrapped = wrap(ch, seq, unwrap(u.wire).frame);
    BufferPool::global().release(std::move(u.wire));
    u.seq = seq;
    u.wire = std::move(rewrapped);
    metrics_.counter("net.retransmit").add();
    metrics_.counter("net.retransmit_bytes").add(u.wire.size() + Network::kHeaderBytes);
    network_.send(self_, peer, BufferPool::global().copy_of(u.wire), /*retransmit=*/true);
  }
  if (ch.timer.valid()) sim_.cancel(ch.timer);
  ch.timer = sim::kNoEvent;
  if (!ch.unacked.empty()) arm_timer(peer, ch, ch.rto);
}

void ReliableTransport::send_ack(ProcessId dst, const RecvChannel& ch) {
  BufWriter w(32);
  w.u8(kAckByte);
  w.u32(ch.epoch);
  w.varint(ch.stream);
  w.varint(ch.delivered);
  // The acker announces its own incarnation: a sender that only ever hears
  // acks from this peer (one-directional channel) still learns its epoch,
  // so a later epoch bump in the peer's data is recognized as a restart.
  w.u32(epoch_);
  metrics_.counter("transport.acks").add();
  network_.send(self_, dst, std::move(w).take());
}

void ReliableTransport::on_ack(ProcessId src, const Bytes& payload) {
  BufReader r(payload);
  (void)r.u8();
  const Incarnation epoch_echo = r.u32();
  const std::uint64_t stream_echo = r.varint();
  const std::uint64_t cum = r.varint();
  const Incarnation acker_epoch = r.u32();
  r.expect_done();

  const auto it = send_.find(src);
  if (it == send_.end()) return;
  SendChannel& ch = it->second;
  ch.peer_epoch = std::max(ch.peer_epoch, acker_epoch);
  if (epoch_echo != epoch_ || stream_echo != ch.stream) return;  // stale ack
  bool progressed = false;
  std::uint64_t acked_msg = 0;
  while (!ch.unacked.empty() && ch.unacked.front().seq <= cum) {
    acked_msg = ch.unacked.front().msg;
    BufferPool::global().release(std::move(ch.unacked.front().wire));
    ch.unacked.pop_front();
    progressed = true;
  }
  ch.acked = std::max(ch.acked, cum);
  if (!progressed) return;
  ch.retries = 0;
  ch.rto = config_.rto_initial;
  if (ch.unreachable) {
    ch.unreachable = false;
    if (peer_signal_) peer_signal_(src, false);
  }
  if (ch.timer.valid()) sim_.cancel(ch.timer);
  ch.timer = sim::kNoEvent;
  if (!ch.unacked.empty()) arm_timer(src, ch, ch.rto);
  // Last: the upcall may re-enter the transport (confirming delivery can
  // trigger new sends), so no channel references are held across it.
  if (ack_signal_) ack_signal_(src, acked_msg);
}

void ReliableTransport::deliver_up(ProcessId src, Bytes payload, std::size_t offset) {
  if (deliver_) deliver_(src, payload, offset);
  BufferPool::global().release(std::move(payload));
}

void ReliableTransport::on_data(ProcessId src, Bytes payload, const Unwrapped& head) {
  const Incarnation e = head.epoch;
  const std::uint64_t s = head.stream;
  const std::uint64_t q = head.seq;
  const std::size_t offset = payload.size() - head.frame.size();

  RecvChannel& ch = recv_[src];
  const int order = cmp_channel(e, s, ch.epoch, ch.stream);
  if (order < 0) {
    // A dead incarnation's (or superseded stream's) traffic.
    metrics_.counter("transport.stale_epoch").add();
    BufferPool::global().release(std::move(payload));
    return;
  }
  if (order > 0) {
    // A restart is an epoch *bump past something we knew*: either past the
    // epoch this receive channel recorded, or past the epoch the peer
    // announced in its acks (covers one-directional channels, where no
    // earlier data frame ever seeded ch.epoch). First contact with a peer
    // whose history we never saw is NOT a restart — restarting there would
    // re-wrap delivered-but-unacked frames into a fresh stream and
    // duplicate them at the application.
    const auto sit = send_.find(src);
    const bool peer_restarted =
        (ch.epoch != 0 && e > ch.epoch) ||
        (sit != send_.end() && sit->second.peer_epoch != 0 && e > sit->second.peer_epoch);
    clear_recv(ch);
    ch.epoch = e;
    ch.stream = s;
    if (sit != send_.end()) sit->second.peer_epoch = std::max(sit->second.peer_epoch, e);
    if (peer_restarted && sit != send_.end()) {
      // Our own outgoing sequence space toward this peer died with its old
      // incarnation — restart it eagerly instead of waiting for timeouts.
      restart_stream(src, sit->second);
    }
  }
  if (!ch.synced) {
    ch.synced = true;
    if (e < epoch_) {
      // First frame of a stream addressed to our *dead* incarnation (its
      // epoch predates ours): the sender is mid-stream and everything
      // before q went to the old us — adopt its position as the baseline;
      // the recovery protocol, not the transport, redelivers what the
      // rollback needs.
      ch.baseline = q - 1;
      ch.delivered = q - 1;
      if (ch.baseline != 0) metrics_.counter("transport.resync").add();
    }
    // Fresh-world traffic (e >= our epoch) must start at seq 1 — a first
    // *arrival* with q > 1 is just the fabric reordering the stream head,
    // so it is stashed below like any other gap, never adopted.
  }

  if (q <= ch.delivered) {
    // Retransmission of something already delivered (or a fabric-level
    // duplicate): suppress, but re-ack — the sender is missing our ack.
    metrics_.counter("net.dup_suppressed").add();
    send_ack(src, ch);
    BufferPool::global().release(std::move(payload));
    return;
  }
  if (q == ch.delivered + 1) {
    ch.delivered = q;
    deliver_up(src, std::move(payload), offset);
    // Drain the stash. Upcalls can re-enter the transport (a delivered
    // control frame may trigger sends or even a reset), so re-find the
    // channel each round instead of trusting the reference.
    for (;;) {
      const auto cit = recv_.find(src);
      if (cit == recv_.end()) return;  // reset mid-drain
      RecvChannel& cur = cit->second;
      if (cur.epoch != e || cur.stream != s) return;
      const auto h = cur.held.begin();
      if (h == cur.held.end() || h->first != cur.delivered + 1) {
        send_ack(src, cur);
        return;
      }
      Bytes held = std::move(h->second);
      cur.held.erase(h);
      cur.delivered += 1;
      const std::size_t held_offset = held.size() - unwrap(held).frame.size();
      deliver_up(src, std::move(held), held_offset);
    }
  }
  // Gap: hold for resequencing (bounded; overflow is recovered by the
  // sender's retransmission) and remind the sender where we are.
  if (ch.held.size() < config_.max_held) {
    metrics_.counter("transport.held").add();
    ch.held.emplace(q, std::move(payload));
  } else {
    metrics_.counter("transport.held_overflow").add();
    BufferPool::global().release(std::move(payload));
  }
  send_ack(src, ch);
}

void ReliableTransport::on_wire(ProcessId src, Bytes payload) {
  const Unwrapped head = config_.enabled ? unwrap(payload) : Unwrapped{};
  switch (head.cls) {
    case WireClass::kRaw:
      // Heartbeat, ordinal-service protocol, pre-transport sender, or the
      // transport is off.
      deliver_up(src, std::move(payload), 0);
      return;
    case WireClass::kData:
      on_data(src, std::move(payload), head);
      return;
    case WireClass::kAck:
      try {
        on_ack(src, payload);
      } catch (const SerdeError&) {
        metrics_.counter("transport.malformed").add();
      }
      break;
    case WireClass::kMalformed:
      metrics_.counter("transport.malformed").add();
      break;
  }
  BufferPool::global().release(std::move(payload));
}

void ReliableTransport::clear_send(SendChannel& ch) {
  if (ch.timer.valid()) sim_.cancel(ch.timer);
  ch.timer = sim::kNoEvent;
  for (Unacked& u : ch.unacked) BufferPool::global().release(std::move(u.wire));
  ch.unacked.clear();
}

void ReliableTransport::clear_recv(RecvChannel& ch) {
  for (auto& [seq, buf] : ch.held) BufferPool::global().release(std::move(buf));
  ch.held.clear();
  ch.delivered = 0;
  ch.baseline = 0;
  ch.synced = false;
}

void ReliableTransport::reset(Incarnation epoch) {
  for (auto& [peer, ch] : send_) clear_send(ch);
  send_.clear();
  for (auto& [peer, ch] : recv_) clear_recv(ch);
  recv_.clear();
  epoch_ = epoch;
}

std::uint64_t ReliableTransport::last_sent_msg(ProcessId dst) const {
  const auto it = send_.find(dst);
  return it == send_.end() ? 0 : it->second.next_msg - 1;
}

ReliableTransport::ChannelAudit ReliableTransport::send_audit(ProcessId dst) const {
  const auto it = send_.find(dst);
  if (it == send_.end()) return {};
  const SendChannel& ch = it->second;
  return {epoch_, ch.stream, ch.acked, ch.unacked.size(), true};
}

ReliableTransport::ChannelAudit ReliableTransport::recv_audit(ProcessId src) const {
  const auto it = recv_.find(src);
  if (it == recv_.end()) return {};
  const RecvChannel& ch = it->second;
  return {ch.epoch, ch.stream, ch.delivered, ch.baseline, true};
}

bool ReliableTransport::unreachable(ProcessId peer) const {
  const auto it = send_.find(peer);
  return it != send_.end() && it->second.unreachable;
}

}  // namespace rr::net
