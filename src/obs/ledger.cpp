#include "obs/ledger.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace rr::obs {
namespace {

// Wire constants this classifier parses against. The frame kinds come from
// fbl/frame.hpp; the control sub-kinds mirror recovery/messages.cpp's
// CtrlKind (obs cannot include recovery — tests/obs_ledger_test.cpp pins
// the agreement byte-for-byte against recovery::encode_control).
constexpr std::uint8_t kFrameApp = 1;
constexpr std::uint8_t kFrameHeartbeat = 2;
constexpr std::uint8_t kFrameCkptNotice = 3;
constexpr std::uint8_t kFrameControl = 4;
constexpr std::uint8_t kFrameSnapshot = 5;
constexpr std::uint8_t kCtrlDepRequest = 7;

constexpr const char* kCategoryNames[kCostCategoryCount] = {
    "app_payload",
    "piggyback_pruned",
    "piggyback_reship",
    "heartbeat",
    "ckpt_notice",
    "snapshot",
    "incvector_full",
    "incvector_delta",
    "gather_relay",
    "transport_ack",
    "transport_retransmit",
    "other",
    // The ctrl.<kind> tail matches recovery::control_name() order.
    "ctrl.ord_request",
    "ctrl.ord_reply",
    "ctrl.rset_request",
    "ctrl.rset_reply",
    "ctrl.inc_request",
    "ctrl.inc_reply",
    "ctrl.dep_request",
    "ctrl.dep_reply",
    "ctrl.dep_install",
    "ctrl.recovery_complete",
    "ctrl.replay_request",
    "ctrl.replay_data",
    "ctrl.det_push",
    "ctrl.det_ack",
};

/// Skip one encoded HeldDeterminant: Determinant (u32 source, u64 ssn,
/// u32 dest, u64 rsn) + sparse holder list (varint count + varint bits).
void skip_held_determinant(BufReader& r) {
  (void)r.u32();
  (void)r.u64();
  (void)r.u32();
  (void)r.u64();
  const auto holders = r.count(1);
  for (std::uint64_t i = 0; i < holders; ++i) (void)r.varint();
}

}  // namespace

const char* to_string(CostCategory c) {
  return kCategoryNames[static_cast<std::size_t>(c)];
}

CostLedger::CostLedger(CostLedgerConfig config, metrics::Registry& metrics)
    : config_(config), metrics_(metrics) {
  for (std::size_t i = 0; i < kCostCategoryCount; ++i) {
    const std::string suffix = kCategoryNames[i];
    bytes_counter_[i] = &metrics_.counter("ledger.bytes." + suffix);
    frames_counter_[i] = &metrics_.counter("ledger.frames." + suffix);
  }
  per_node_.assign((config_.num_nodes + std::size_t{1}) * kCostCategoryCount, 0);
}

void CostLedger::record(std::uint32_t slot, CostCategory c, std::uint64_t bytes,
                        std::uint64_t frames) {
  const auto i = static_cast<std::size_t>(c);
  bytes_[i] += bytes;
  frames_[i] += frames;
  bytes_counter_[i]->add(bytes);
  frames_counter_[i]->add(frames);
  per_node_[slot * kCostCategoryCount + i] += bytes;
}

void CostLedger::on_wire(std::uint32_t src, std::span<const std::byte> frame,
                         std::uint64_t wire_bytes, Envelope envelope) {
  const std::uint32_t slot = std::min(src, config_.num_nodes);
  if (envelope != Envelope::kFrame) {
    // No frame to read: the envelope alone decides the category.
    const CostCategory c = envelope == Envelope::kAck ? CostCategory::kTransportAck
                           : envelope == Envelope::kRetransmit
                               ? CostCategory::kTransportRetransmit
                               : CostCategory::kOther;
    record(slot, c, wire_bytes, 1);
    return;
  }
  try {
    // The transport header (if any) stays charged with the frame's
    // categories: the wrapper never smears the attribution.
    classify_frame(slot, frame, wire_bytes);
  } catch (const SerdeError&) {
    record(slot, CostCategory::kOther, wire_bytes, 1);
  }
}

void CostLedger::classify_frame(std::uint32_t slot,
                                std::span<const std::byte> payload,
                                std::uint64_t total) {
  BufReader r(payload);
  switch (r.u8()) {
    case kFrameApp: {
      // u32 inc, u64 ssn, varint n, n HeldDeterminants, bytes payload. The
      // piggybacked determinant region is carved out of the app charge; the
      // frame itself counts once, under app_payload.
      (void)r.u32();
      (void)r.u64();
      const auto n = r.count(1);
      const std::size_t before = r.remaining();
      for (std::uint64_t i = 0; i < n; ++i) skip_held_determinant(r);
      const std::uint64_t piggyback = before - r.remaining();
      const CostCategory pb_cat = config_.prune_piggyback
                                      ? CostCategory::kPiggybackPruned
                                      : CostCategory::kPiggybackReship;
      record(slot, CostCategory::kAppPayload, total - piggyback, 1);
      if (piggyback > 0) record(slot, pb_cat, piggyback, 0);
      return;
    }
    case kFrameHeartbeat:
      record(slot, CostCategory::kHeartbeat, total, 1);
      return;
    case kFrameCkptNotice:
      record(slot, CostCategory::kCkptNotice, total, 1);
      return;
    case kFrameControl:
      classify_control(slot, r, total);
      return;
    case kFrameSnapshot:
      record(slot, CostCategory::kSnapshot, total, 1);
      return;
    default:
      record(slot, CostCategory::kOther, total, 1);
      return;
  }
}

void CostLedger::classify_control(std::uint32_t slot, BufReader& r,
                                  std::uint64_t total) {
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > kCtrlCategoryCount) {
    record(slot, CostCategory::kOther, total, 1);
    return;
  }
  const auto cat =
      static_cast<CostCategory>(kFirstCtrlCategory + (kind - 1));
  if (kind != kCtrlDepRequest) {
    record(slot, cat, total, 1);
    return;
  }
  // DepRequest carries the leader's incvector (full snapshot or delta) and
  // may be relayed by gather-tree interior nodes. Carve the incvector bytes
  // into their own categories, and attribute the remainder to gather_relay
  // when the sender is not the leader named in the frame — that remainder
  // is pure fan-out cost the paper's flat O(n) gather would not pay twice.
  // The frame count stays under ctrl.dep_request either way, so the V10
  // per-kind equality with "recovery.msg.dep_request" covers relays too.
  (void)r.u64();                       // round
  (void)r.boolean();                   // block
  (void)r.boolean();                   // defer
  const std::uint32_t leader = r.u32();  // leader pid
  (void)r.u32();                       // leader incarnation
  (void)r.varint();                    // gather arity
  const std::size_t before = r.remaining();
  (void)r.varint();  // delta base_version
  (void)r.varint();  // delta version
  const bool full = r.boolean();
  const auto entries = r.count(8);
  for (std::uint64_t i = 0; i < entries; ++i) {
    (void)r.u32();  // process id
    (void)r.u32();  // incarnation floor
  }
  const std::uint64_t inc_bytes = before - r.remaining();
  const CostCategory inc_cat =
      full ? CostCategory::kIncVectorFull : CostCategory::kIncVectorDelta;
  const CostCategory rest_cat =
      slot != leader ? CostCategory::kGatherRelay : cat;
  record(slot, cat, 0, 1);
  record(slot, inc_cat, inc_bytes, 0);
  record(slot, rest_cat, total - inc_bytes, 0);
}

LedgerNodeSample& CostLedger::sample_slot(std::size_t flat) {
  const std::size_t chunk = flat >> kChunkShift;
  if (chunk == chunks_.size()) {
    chunks_.push_back(std::make_unique<LedgerNodeSample[]>(kChunkSize));
  }
  return chunks_[chunk][flat & (kChunkSize - 1)];
}

void CostLedger::take_sample(Time now, std::span<const std::uint64_t> blocked_ns) {
  RR_CHECK(blocked_ns.size() == config_.num_nodes);
  headers_.push_back(LedgerSampleHeader{
      .at = now,
      .net_bytes = metrics_.counter_value("net.bytes"),
      .ctrl_bytes = metrics_.counter_value("recovery.ctrl_bytes"),
  });
  for (std::uint32_t i = 0; i < config_.num_nodes; ++i) {
    sample_slot(node_rows_ + i) =
        LedgerNodeSample{.blocked_ns = blocked_ns[i],
                         .sent_bytes = node_total_bytes(i)};
  }
  node_rows_ += config_.num_nodes;
}

const LedgerNodeSample& CostLedger::sample_node(std::size_t i,
                                                std::uint32_t node) const {
  RR_CHECK(i < headers_.size() && node < config_.num_nodes);
  const std::size_t flat = i * config_.num_nodes + node;
  return chunks_[flat >> kChunkShift][flat & (kChunkSize - 1)];
}

std::uint64_t CostLedger::total_bytes() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t b : bytes_) sum += b;
  return sum;
}

std::uint64_t CostLedger::node_bytes(std::uint32_t node, CostCategory c) const {
  RR_CHECK(node <= config_.num_nodes);
  return per_node_[node * kCostCategoryCount + static_cast<std::size_t>(c)];
}

std::uint64_t CostLedger::node_total_bytes(std::uint32_t node) const {
  RR_CHECK(node <= config_.num_nodes);
  std::uint64_t sum = 0;
  const std::size_t base = node * kCostCategoryCount;
  for (std::size_t i = 0; i < kCostCategoryCount; ++i) sum += per_node_[base + i];
  return sum;
}

std::vector<std::string> CostLedger::audit(const metrics::Registry& m) const {
  std::vector<std::string> violations;
  char buf[192];
  // V10a — conservation: the category attribution is a partition of every
  // byte the network accepted, no more and no less.
  const std::uint64_t ledger_total = total_bytes();
  const std::uint64_t net_total = m.counter_value("net.bytes");
  if (ledger_total != net_total) {
    std::snprintf(buf, sizeof buf,
                  "V10: ledger category bytes sum to %" PRIu64
                  " but net.bytes counted %" PRIu64,
                  ledger_total, net_total);
    violations.emplace_back(buf);
  }
  // V10b — per-kind agreement: frames classified from the wire equal the
  // sender-side intent counters maintained by the recovery layer.
  for (std::size_t k = 0; k < kCtrlCategoryCount; ++k) {
    const std::size_t cat = kFirstCtrlCategory + k;
    const char* name = kCategoryNames[cat] + 5;  // strip "ctrl."
    const std::uint64_t wire = frames_[cat];
    const std::uint64_t intent = m.counter_value(std::string("recovery.msg.") + name);
    if (wire != intent) {
      std::snprintf(buf, sizeof buf,
                    "V10: wire-classified %s frames %" PRIu64
                    " != recovery.msg.%s %" PRIu64,
                    name, wire, name, intent);
      violations.emplace_back(buf);
    }
  }
  return violations;
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

}  // namespace

std::string export_metrics_json(const metrics::Registry& metrics,
                                const CostLedger* ledger) {
  std::string out;
  out.reserve(4096);
  out += "{\n\"counters\": {";
  bool first = true;
  for (const std::string& name : metrics.counter_names()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"" + name + "\": ";
    append_u64(out, metrics.counter_value(name));
  }
  out += "\n}";
  if (ledger != nullptr) {
    out += ",\n\"ledger\": {\n\"categories\": {";
    for (std::size_t i = 0; i < kCostCategoryCount; ++i) {
      const auto c = static_cast<CostCategory>(i);
      out += i == 0 ? "\n" : ",\n";
      out += "  \"";
      out += kCategoryNames[i];
      out += "\": {\"bytes\": ";
      append_u64(out, ledger->bytes(c));
      out += ", \"frames\": ";
      append_u64(out, ledger->frames(c));
      out += "}";
    }
    // Per-node byte rows in category-enum order; the last row is the
    // service slot (ordinal service and any non-node sender).
    out += "\n},\n\"node_bytes\": [";
    for (std::uint32_t n = 0; n <= ledger->num_nodes(); ++n) {
      out += n == 0 ? "\n" : ",\n";
      out += "  [";
      for (std::size_t i = 0; i < kCostCategoryCount; ++i) {
        if (i != 0) out += ", ";
        append_u64(out, ledger->node_bytes(n, static_cast<CostCategory>(i)));
      }
      out += "]";
    }
    out += "\n],\n\"timeline\": {\"sample_every_ns\": ";
    append_i64(out, ledger->sample_every());
    out += ", \"samples\": [";
    for (std::size_t s = 0; s < ledger->sample_count(); ++s) {
      const LedgerSampleHeader& h = ledger->sample_header(s);
      out += s == 0 ? "\n" : ",\n";
      out += "  {\"t_ns\": ";
      append_i64(out, h.at);
      out += ", \"net_bytes\": ";
      append_u64(out, h.net_bytes);
      out += ", \"ctrl_bytes\": ";
      append_u64(out, h.ctrl_bytes);
      out += ", \"nodes\": [";
      for (std::uint32_t n = 0; n < ledger->num_nodes(); ++n) {
        const LedgerNodeSample& row = ledger->sample_node(s, n);
        if (n != 0) out += ", ";
        out += "[";
        append_u64(out, row.blocked_ns);
        out += ", ";
        append_u64(out, row.sent_bytes);
        out += "]";
      }
      out += "]}";
    }
    out += "\n]}\n}";
  }
  out += "\n}\n";
  return out;
}

}  // namespace rr::obs
