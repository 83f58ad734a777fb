// Volatile determinant log with holder tracking.
//
// Holds every determinant a process knows — its own receipts plus those
// learned from piggybacks — keyed by (dest, rsn), together with the set of
// processes known to hold each one. Drives three protocol decisions:
//
//  * piggybacking: which determinants to attach to an outgoing message
//    (those not yet known at f+1 holders and not known at the destination);
//  * depinfo: the slice (dest ∈ R) a live process ships to the recovery
//    leader, and the merged slice the leader installs at recovering
//    processes;
//  * garbage collection: determinants whose destination has checkpointed
//    past their rsn can never be replayed and are dropped.
//
// Storage. Entries live in a chunked slot pool; a hash index maps (dest,
// rsn) to a slot, and each destination's lane lists its slots in rsn
// order. The per-message calls (record, add_holders, piggyback_for) are
// point lookups: a hash probe, rather than a descent through one ordered
// tree of every known determinant (about 12.5k per process at n = 32),
// whose cache-missing pointer chase dominated the send path. Whole-log
// and per-destination walks (slice_for, encode, forget_holder, prune_dest,
// replay_schedule) go lane by lane and keep (dest, rsn) order.
//
// The send path runs per message, so the log keeps the active set (below
// the propagation threshold and not stable) incrementally. active() is the
// one query behind the un-pruned piggyback, the f = n stable flush (no
// holder count can reach f+1 = n+1, so "active" is exactly "not yet on
// stable storage") and the output-commit barrier (!active is exactly
// "recoverable"). Gather-time queries (slice_for, max_ssn) may scan; they
// run once per recovery, not per message.
//
// Per-destination piggyback selection is event-driven, so record,
// add_holders and prune_dest do no per-destination work:
//
//  * Stamps. An entry draws a fresh stamp from a monotone counter when it
//    becomes active and again whenever forget_holder clears one of its
//    holder bits; 0 means inactive. active_ maps stamp -> slot.
//  * Cursors. Each destination has {seen, pending}. piggyback_for(to)
//    walks active_ past `seen`, adds the entries `to` does not hold to
//    `pending`, sets `seen` to the newest stamp, and returns the pending
//    entries still active and not held by `to`, dropping the rest.
//  * Invariant. For every destination, each active entry with stamp <=
//    seen that it does not hold is in its pending set. Holder bits only
//    grow outside forget_holder, and every way back into "active and not
//    held by to" (activation, a cleared bit, a pruned key re-recorded)
//    draws a stamp above every cursor.
//  * Cost. A send costs the active entries stamped since the previous send
//    to `to`, plus that destination's residue (entries it was last handed,
//    or still awaiting a deferred mark). At f < n the active set is a
//    handful of entries; at f = n thousands wait for the stable flush, yet
//    few are new since the last send, so neither regime scans active().
//    Eagerly updating every destination's pending set on each record costs
//    n-1 set operations per holder change; doing it only for destinations
//    whose bit changed still costs n-1 inserts per activation, which is why
//    the pending sets are filled lazily by the cursors instead.
//
// The holder mask a process keeps is its *local knowledge* — possibly
// behind reality, never ahead of it on the conservative side that matters:
// a bit is set only for processes the message carrying the determinant was
// handed to over a reliable channel, so at most the crashed processes
// themselves can be missing holders, which the f+1 rule absorbs.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/serde.hpp"
#include "fbl/determinant.hpp"

namespace rr::fbl {

class DeterminantLog {
 public:
  /// Propagation stops once a determinant is known at `holders_needed`
  /// (= f+1) processes. Defaults to "never" until the engine configures it;
  /// the call reindexes, so it is safe after decode()/load.
  void set_propagation_threshold(int holders_needed);

  /// Record `h` (merging holder knowledge if already present). Returns true
  /// if the determinant was new to this log. Two records disagreeing on
  /// (source, ssn) for one (dest, rsn) violate the protocol and abort.
  bool record(const HeldDeterminant& h);

  /// Merge additional holder knowledge for an existing determinant; no-op
  /// if the determinant is unknown.
  void add_holders(const Determinant& d, HolderMask extra);

  /// Retract `peer` as a holder everywhere (its volatile log died with it),
  /// except for its own receipts up to `kept_rsn`, which recovery
  /// re-established at the peer. Retracted determinants may re-enter the
  /// active set, so propagation re-achieves f+1.
  void forget_holder(ProcessId peer, Rsn kept_rsn);

  /// Determinants to piggyback on a message to `to`: the active set minus
  /// those already known to be held by `to`. Ordered by (dest, rsn).
  /// Advances `to`'s cursor, hence non-const.
  [[nodiscard]] std::vector<HeldDeterminant> piggyback_for(ProcessId to);

  /// The whole active set — not stable and below the propagation
  /// threshold — ignoring per-destination knowledge. Serves the un-pruned
  /// piggyback baseline, the f = n stable flush (the caller marks written
  /// determinants via add_holders(kStableHolder)) and the output-commit
  /// barrier. Ordered by (dest, rsn).
  [[nodiscard]] std::vector<HeldDeterminant> active() const;

  /// All determinants destined to any process in `dests` — the depinfo
  /// slice for a recovery whose recovering set is `dests`.
  [[nodiscard]] std::vector<HeldDeterminant> slice_for(const HolderMask& dests) const;

  /// Determinants destined to this log's owner with rsn > `after`, in rsn
  /// order — the replay schedule.
  [[nodiscard]] std::vector<Determinant> replay_schedule(ProcessId owner, Rsn after) const;

  /// Highest ssn among determinants (source -> dest); 0 if none. Used to
  /// compute post-replay receive watermarks.
  [[nodiscard]] Ssn max_ssn(ProcessId source, ProcessId dest) const;

  /// Drop determinants with dest == `dest` and rsn <= `upto` (dest
  /// checkpointed past them). Returns the number removed.
  std::size_t prune_dest(ProcessId dest, Rsn upto);

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t active_size() const noexcept { return active_.size(); }
  [[nodiscard]] bool contains(ProcessId dest, Rsn rsn) const;
  /// The entry for (dest, rsn), or nullptr; valid until the next record().
  [[nodiscard]] const HeldDeterminant* find(ProcessId dest, Rsn rsn) const;

  void clear();

  void encode(BufWriter& w) const;
  [[nodiscard]] static DeterminantLog decode(BufReader& r);

 private:
  using Key = std::pair<ProcessId, Rsn>;
  using Stamp = std::uint64_t;
  using Slot = std::uint32_t;  // position in the entry pool

  struct Entry {
    HeldDeterminant held;
    Stamp stamp{0};  // 0 = inactive
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // Process ids are below kMaxProcesses = 2^10, so keys hash apart.
      return static_cast<std::size_t>((k.second << 10) ^ k.first.value);
    }
  };

  /// Entries in chunks of at most kChunk, so growing the pool copies at most
  /// one chunk, and a small log allocates only what it holds.
  static constexpr std::size_t kChunk = 256;

  [[nodiscard]] Entry& at(Slot s) { return chunks_[s / kChunk][s % kChunk]; }
  [[nodiscard]] const Entry& at(Slot s) const { return chunks_[s / kChunk][s % kChunk]; }
  [[nodiscard]] Rsn rsn_of(Slot s) const { return at(s).held.det.rsn; }
  [[nodiscard]] const Entry* lookup(const Key& key) const;

  /// One destination's piggyback cursor: active entries stamped up to
  /// `seen` that the destination did not hold when walked are in `pending`.
  struct Cursor {
    Stamp seen{0};
    std::set<Key> pending;
  };

  [[nodiscard]] bool is_active(const HeldDeterminant& h) const {
    return (h.holders & kStableHolder) == 0 && holder_count(h.holders) < threshold_;
  }
  /// A slot holding `h`, reusing a released one first.
  Slot allocate(const HeldDeterminant& h);
  /// Bring the entry's stamp in line with its holders after they grew.
  void refresh(Slot s);
  /// Give the entry a stamp newer than every cursor, or none if inactive.
  void restamp(Slot s);
  /// Drop the entry from the index and the active set and free its slot;
  /// the caller removes it from its lane.
  void release(Slot s);

  int threshold_{64};  // effectively "keep propagating" until configured
  Stamp last_stamp_{0};
  std::vector<std::vector<Entry>> chunks_;        // entry pool, kChunk per chunk
  std::vector<Slot> free_;                        // released slots
  std::unordered_map<Key, Slot, KeyHash> index_;  // point lookups
  std::map<ProcessId, std::vector<Slot>> lanes_;  // per destination, rsn order
  std::map<Stamp, Slot> active_;  // piggyback candidates, in activation order
  std::vector<Cursor> cursors_;   // indexed by destination process id
};

}  // namespace rr::fbl
