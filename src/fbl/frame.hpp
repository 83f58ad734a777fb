// Wire frames for the failure-free protocol path.
//
// Every packet starts with a FrameKind byte. The fbl library owns the
// application frame (incarnation tag + ssn + piggybacked determinants +
// payload), the heartbeat and the checkpoint notice; recovery-control
// frames (kind kControl) are encoded/decoded by the recovery library
// behind the same leading byte.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"
#include "fbl/determinant.hpp"
#include "fbl/watermarks.hpp"

namespace rr::fbl {

enum class FrameKind : std::uint8_t {
  kApp = 1,
  kHeartbeat = 2,
  kCkptNotice = 3,
  kControl = 4,   // recovery control, see recovery/messages.hpp
  kSnapshot = 5,  // Chandy-Lamport markers/reports, see snapshot/snapshot.hpp
};

/// Writes the leading kind byte.
void encode_kind(BufWriter& w, FrameKind k);
/// Reads and returns the leading kind byte.
[[nodiscard]] FrameKind decode_kind(BufReader& r);

/// Application message as transmitted: the payload plus everything FBL
/// needs for logging and stale-message rejection.
struct AppFrame {
  Incarnation inc{0};  ///< sender's incarnation (stale-rejection tag)
  Ssn ssn{0};          ///< sender-global send sequence number
  std::vector<HeldDeterminant> dets;  ///< piggybacked receipt orders
  Bytes payload;

  /// Wire form. If `piggyback_bytes` is given, it receives the bytes the
  /// piggybacked determinants contribute (overhead accounting), measured
  /// while encoding so each holder list is walked once.
  [[nodiscard]] Bytes encode(std::size_t* piggyback_bytes = nullptr) const;
  [[nodiscard]] static AppFrame decode(BufReader& r);  // kind byte consumed
};

struct HeartbeatFrame {
  Incarnation inc{0};

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static HeartbeatFrame decode(BufReader& r);
};

/// Broadcast after a checkpoint commits; lets peers garbage-collect send
/// log entries (via recv_marks) and determinants (via rsn).
struct CkptNoticeFrame {
  Rsn rsn{0};
  Watermarks recv_marks;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static CkptNoticeFrame decode(BufReader& r);
};

}  // namespace rr::fbl
