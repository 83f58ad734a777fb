#include "obs/span.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "fbl/frame.hpp"  // header-only use: FrameKind

namespace rr::obs {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kRecovery: return "recovery";
    case SpanName::kDetect: return "detect";
    case SpanName::kRestore: return "restore";
    case SpanName::kElection: return "election";
    case SpanName::kGather: return "gather";
    case SpanName::kRegather: return "regather";
    case SpanName::kIncVector: return "incvector";
    case SpanName::kReplay: return "replay";
    case SpanName::kCtrlTransit: return "ctrl_transit";
    case SpanName::kStorageWrite: return "storage_write";
    case SpanName::kStorageRead: return "storage_read";
    case SpanName::kStorageErase: return "storage_erase";
  }
  return "?";
}

SpanTracer::SpanTracer(SpanTracerConfig config, metrics::Registry& metrics)
    : config_(config), metrics_(metrics) {
  RR_CHECK(config_.num_nodes > 0);
  RR_CHECK(config_.flight_capacity > 0);
  nodes_.resize(config_.num_nodes + 1);
  rings_.resize(config_.num_nodes + 1);
  for (auto& ring : rings_) ring.slots.resize(config_.flight_capacity);
  // Resolve every metric handle once; map references are stable, so the
  // hot path is pure index math from here on.
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const std::string name = std::string("span.") + to_string(static_cast<SpanName>(i));
    hist_[i] = &metrics_.histogram(name);
    accum_[i] = &metrics_.accum(name);
  }
}

SpanRecord& SpanTracer::record(SpanId id) {
  return const_cast<SpanRecord&>(static_cast<const SpanTracer*>(this)->span(id));
}

const SpanRecord& SpanTracer::span(SpanId id) const {
  RR_CHECK(id != kNoSpan && id <= count_);
  const std::size_t index = id - 1;
  return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
}

SpanId SpanTracer::begin_span(Time now, SpanName name, std::uint32_t node, SpanId parent,
                              std::uint64_t detail) {
  if (count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<SpanRecord[]>(kChunkSize));
  }
  const std::size_t index = count_++;
  SpanRecord& rec = chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  rec = SpanRecord{};
  rec.begin = now;
  rec.parent = parent;
  rec.node = node;
  rec.inc = node < nodes_.size() ? nodes_[node].inc : 0;
  rec.detail = detail;
  rec.name = name;
  return static_cast<SpanId>(index + 1);
}

void SpanTracer::end_span(Time now, SpanId id, bool aborted) {
  if (id == kNoSpan) return;
  SpanRecord& rec = record(id);
  if (!rec.open()) return;
  rec.end = now;
  if (aborted) rec.flags |= SpanRecord::kAborted;
  push_flight(rec);
  if (!aborted) record_latency(rec);
}

SpanId SpanTracer::complete_span(Time begin, Time end, SpanName name, std::uint32_t node,
                                 SpanId parent, std::uint64_t detail) {
  const SpanId id = begin_span(begin, name, node, parent, detail);
  SpanRecord& rec = record(id);
  rec.end = end;
  push_flight(rec);
  record_latency(rec);
  return id;
}

SpanId SpanTracer::active_of(const NodeState& st) const {
  if (st.incvec != kNoSpan) return st.incvec;
  // A leader can gather for a later round while its own replay runs; the
  // innermost open span is whichever began last.
  if (st.gather != kNoSpan && st.phase != kNoSpan) {
    return span(st.gather).begin >= span(st.phase).begin ? st.gather : st.phase;
  }
  if (st.gather != kNoSpan) return st.gather;
  if (st.phase != kNoSpan) return st.phase;
  return st.recovery;
}

void SpanTracer::push_flight(const SpanRecord& rec) {
  if (rec.node >= rings_.size()) return;
  FlightRing& ring = rings_[rec.node];
  ring.slots[ring.next] =
      FlightRecord{rec.begin, rec.end, rec.inc, rec.detail, rec.name, rec.flags};
  ring.next = (ring.next + 1) % ring.slots.size();
  ++ring.count;
}

void SpanTracer::record_latency(const SpanRecord& rec) {
  const auto slot = static_cast<std::size_t>(rec.name);
  const auto d = static_cast<double>(rec.end - rec.begin);
  hist_[slot]->record(d);
  accum_[slot]->record(d);
}

// --- node lifecycle --------------------------------------------------------

void SpanTracer::on_crash(Time now, std::uint32_t node, Incarnation inc) {
  if (node >= nodes_.size()) return;
  NodeState& st = nodes_[node];
  // Whatever the node was doing dies with it — a failed leader's gather
  // ends here, not at some later timeout on a survivor.
  end_span(now, st.incvec, /*aborted=*/true);
  end_span(now, st.gather, /*aborted=*/true);
  end_span(now, st.phase, /*aborted=*/true);
  end_span(now, st.recovery, /*aborted=*/true);
  st = NodeState{};
  // Until the restore reads stable storage the next incarnation is only
  // provisional; on_restored() patches the open records with the real one.
  st.inc = inc + 1;
  st.recovery = begin_span(now, SpanName::kRecovery, node, kNoSpan);
  st.phase = begin_span(now, SpanName::kDetect, node, st.recovery);
}

void SpanTracer::on_restore_begin(Time now, std::uint32_t node) {
  if (node >= nodes_.size()) return;
  NodeState& st = nodes_[node];
  end_span(now, st.phase);
  st.phase = begin_span(now, SpanName::kRestore, node, st.recovery);
}

void SpanTracer::on_restored(Time now, std::uint32_t node, Incarnation inc) {
  if (node >= nodes_.size()) return;
  NodeState& st = nodes_[node];
  st.inc = inc;
  if (st.recovery != kNoSpan) record(st.recovery).inc = inc;
  if (st.phase != kNoSpan) record(st.phase).inc = inc;
  end_span(now, st.phase);
  st.phase = begin_span(now, SpanName::kElection, node, st.recovery);
}

void SpanTracer::on_recovery_complete(Time now, std::uint32_t node) {
  if (node >= nodes_.size()) return;
  NodeState& st = nodes_[node];
  // A completing leader abandons any round still in flight.
  end_span(now, st.incvec, /*aborted=*/true);
  end_span(now, st.gather, /*aborted=*/true);
  end_span(now, st.phase);
  end_span(now, st.recovery);
  const Incarnation inc = st.inc;
  st = NodeState{};
  st.inc = inc;
}

// --- protocol phases -------------------------------------------------------

void SpanTracer::on_phase(Time now, const trace::PhaseEventInfo& info) {
  const std::uint32_t node = slot_of(info.pid);
  if (node >= nodes_.size()) return;
  NodeState& st = nodes_[node];
  switch (info.phase) {
    case trace::PhaseId::kLeaderElected:
    case trace::PhaseId::kLeaderFailover:
      // Leadership decided: the election phase of this node is over.
      if (st.phase != kNoSpan && span(st.phase).name == SpanName::kElection) {
        end_span(now, st.phase);
        st.phase = kNoSpan;
      }
      break;
    case trace::PhaseId::kGatherStarted: {
      // A silent stand-down can leave the previous round's span open; the
      // new round's start is the latest moment it can have ended.
      end_span(now, st.incvec, /*aborted=*/true);
      end_span(now, st.gather, /*aborted=*/true);
      const SpanName name = st.regather_next ? SpanName::kRegather : SpanName::kGather;
      st.regather_next = false;
      st.gather = begin_span(now, name, node, st.recovery, info.round);
      st.incvec = begin_span(now, SpanName::kIncVector, node, st.gather, info.round);
      break;
    }
    case trace::PhaseId::kIncVectorBuilt:
      end_span(now, st.incvec);
      st.incvec = kNoSpan;
      break;
    case trace::PhaseId::kDepinfoCollected:
      end_span(now, st.incvec, /*aborted=*/true);
      st.incvec = kNoSpan;
      end_span(now, st.gather);
      st.gather = kNoSpan;
      break;
    case trace::PhaseId::kGatherRestarted:
      end_span(now, st.incvec, /*aborted=*/true);
      st.incvec = kNoSpan;
      end_span(now, st.gather, /*aborted=*/true);
      st.gather = kNoSpan;
      st.regather_next = true;
      break;
    case trace::PhaseId::kReplayStarted:
      // Followers learn leadership implicitly from the install.
      if (st.phase != kNoSpan && span(st.phase).name == SpanName::kElection) {
        end_span(now, st.phase);
        st.phase = kNoSpan;
      }
      if (st.phase == kNoSpan && st.recovery != kNoSpan) {
        st.phase = begin_span(now, SpanName::kReplay, node, st.recovery, info.round);
      }
      break;
    case trace::PhaseId::kOrdAssigned:
    case trace::PhaseId::kOrdRetired:
    case trace::PhaseId::kSubtreeReparented:
      // Registry instants, not intervals; V8 consumes them from the trace.
      break;
  }
}

// --- infrastructure --------------------------------------------------------

void SpanTracer::on_packet(Time sent, Time deliver_at, std::uint32_t dst, std::size_t bytes,
                           std::span<const std::byte> frame) {
  if (frame.empty() ||
      std::to_integer<std::uint8_t>(frame[0]) !=
          static_cast<std::uint8_t>(fbl::FrameKind::kControl)) {
    return;
  }
  const std::uint32_t node = dst < config_.num_nodes ? dst : service_slot();
  const SpanId parent = active_of(nodes_[node]);
  complete_span(sent, deliver_at, SpanName::kCtrlTransit, node, parent, bytes);
}

void SpanTracer::on_storage_op(Time issued, Time completes, std::uint32_t node, SpanName op,
                               std::size_t bytes) {
  RR_CHECK(op == SpanName::kStorageWrite || op == SpanName::kStorageRead ||
           op == SpanName::kStorageErase);
  const std::uint32_t slot = node < config_.num_nodes ? node : service_slot();
  complete_span(issued, completes, op, slot, active_of(nodes_[slot]), bytes);
}

// --- introspection ---------------------------------------------------------

std::vector<SpanId> SpanTracer::open_spans(std::uint32_t node) const {
  std::vector<SpanId> out;
  if (node >= nodes_.size()) return out;
  const NodeState& st = nodes_[node];
  for (const SpanId id : {st.recovery, st.phase, st.gather, st.incvec}) {
    if (id != kNoSpan) out.push_back(id);
  }
  std::sort(out.begin(), out.end());  // outermost (oldest) first
  return out;
}

bool SpanTracer::flight_empty(std::uint32_t node) const {
  if (node >= rings_.size()) return true;
  return rings_[node].count == 0 && open_spans(node).empty();
}

std::vector<std::uint32_t> SpanTracer::involved_nodes() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t n = 0; n < rings_.size(); ++n) {
    if (!flight_empty(n)) out.push_back(n);
  }
  return out;
}

std::string to_string(const SpanRecord& rec) {
  std::string out = "[";
  out += format_duration(rec.begin);
  out += " .. ";
  out += rec.open() ? "open" : format_duration(rec.end);
  out += "] ";
  out += to_string(rec.name);
  if (!rec.open()) {
    out += " ";
    out += format_duration(rec.end - rec.begin);
  }
  out += " inc=" + std::to_string(rec.inc);
  if (rec.detail != 0) out += " detail=" + std::to_string(rec.detail);
  if (rec.aborted()) out += " (aborted)";
  return out;
}

std::string SpanTracer::dump_flight(std::uint32_t node, std::size_t limit) const {
  std::string out;
  if (node >= rings_.size()) return out;
  const FlightRing& ring = rings_[node];
  const std::size_t have = std::min(ring.count, ring.slots.size());
  const std::size_t take = std::min(limit, have);
  // Oldest-first over the last `take` completed spans.
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t pos =
        (ring.next + ring.slots.size() - take + i) % ring.slots.size();
    const FlightRecord& fr = ring.slots[pos];
    SpanRecord rec;
    rec.begin = fr.begin;
    rec.end = fr.end;
    rec.inc = fr.inc;
    rec.detail = fr.detail;
    rec.name = fr.name;
    rec.flags = fr.flags;
    out += "  " + to_string(rec) + "\n";
  }
  for (const SpanId id : open_spans(node)) {
    out += "  " + to_string(span(id)) + "  <-- still open\n";
  }
  return out;
}

std::string SpanTracer::dump_all_flights(std::size_t limit) const {
  std::string out;
  for (const std::uint32_t node : involved_nodes()) {
    out += node == service_slot() ? "flight recorder, ord service:\n"
                                  : "flight recorder, p" + std::to_string(node) + ":\n";
    out += dump_flight(node, limit);
  }
  return out;
}

}  // namespace rr::obs
