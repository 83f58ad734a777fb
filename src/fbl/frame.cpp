#include "fbl/frame.hpp"

namespace rr::fbl {

void encode_kind(BufWriter& w, FrameKind k) { w.u8(static_cast<std::uint8_t>(k)); }

FrameKind decode_kind(BufReader& r) {
  const auto k = r.u8();
  if (k < 1 || k > 5) throw SerdeError("unknown frame kind " + std::to_string(k));
  return static_cast<FrameKind>(k);
}

Bytes AppFrame::encode(std::size_t* piggyback_bytes) const {
  // Capacity is a guess (a holder list is f+2 varints at most in practice);
  // a larger determinant region just grows the buffer.
  constexpr std::size_t kDetGuess = HeldDeterminant::kMinWireBytes + 16;
  BufWriter w(payload.size() + dets.size() * kDetGuess + 32);
  encode_kind(w, FrameKind::kApp);
  w.u32(inc);
  w.u64(ssn);
  w.varint(dets.size());
  const std::size_t region = w.size();
  for (const auto& d : dets) d.encode(w);
  if (piggyback_bytes != nullptr) *piggyback_bytes = w.size() - region;
  w.bytes(payload);
  return std::move(w).take();
}

AppFrame AppFrame::decode(BufReader& r) {
  AppFrame f;
  f.inc = r.u32();
  f.ssn = r.u64();
  const auto n = r.count(HeldDeterminant::kMinWireBytes);
  f.dets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) f.dets.push_back(HeldDeterminant::decode(r));
  f.payload = r.bytes();
  return f;
}

Bytes HeartbeatFrame::encode() const {
  BufWriter w(8);
  encode_kind(w, FrameKind::kHeartbeat);
  w.u32(inc);
  return std::move(w).take();
}

HeartbeatFrame HeartbeatFrame::decode(BufReader& r) {
  HeartbeatFrame f;
  f.inc = r.u32();
  return f;
}

Bytes CkptNoticeFrame::encode() const {
  BufWriter w(64);
  encode_kind(w, FrameKind::kCkptNotice);
  w.u64(rsn);
  encode_watermarks(w, recv_marks);
  return std::move(w).take();
}

CkptNoticeFrame CkptNoticeFrame::decode(BufReader& r) {
  CkptNoticeFrame f;
  f.rsn = r.u64();
  f.recv_marks = decode_watermarks(r);
  return f;
}

}  // namespace rr::fbl
