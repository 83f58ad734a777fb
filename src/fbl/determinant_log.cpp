#include "fbl/determinant_log.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rr::fbl {

void DeterminantLog::set_propagation_threshold(int holders_needed) {
  RR_CHECK(holders_needed >= 1);
  threshold_ = holders_needed;
  active_.clear();
  cursors_.clear();
  for (const auto& [dest, lane] : lanes_) {
    for (const Slot s : lane) restamp(s);
  }
}

DeterminantLog::Slot DeterminantLog::allocate(const HeldDeterminant& h) {
  if (!free_.empty()) {
    const Slot s = free_.back();
    free_.pop_back();
    at(s) = Entry{h};
    return s;
  }
  if (chunks_.empty() || chunks_.back().size() == kChunk) chunks_.emplace_back();
  chunks_.back().push_back(Entry{h});
  return static_cast<Slot>((chunks_.size() - 1) * kChunk + chunks_.back().size() - 1);
}

void DeterminantLog::refresh(Slot s) {
  // Holders only grew: an inactive entry stays inactive, an active one may
  // have reached the threshold.
  const Entry& e = at(s);
  if (e.stamp != 0 && !is_active(e.held)) restamp(s);
}

void DeterminantLog::restamp(Slot s) {
  Entry& e = at(s);
  if (e.stamp != 0) active_.erase(e.stamp);
  e.stamp = is_active(e.held) ? ++last_stamp_ : 0;
  if (e.stamp != 0) active_.emplace(e.stamp, s);
}

void DeterminantLog::release(Slot s) {
  const Entry& e = at(s);
  if (e.stamp != 0) active_.erase(e.stamp);
  index_.erase(Key{e.held.det.dest, e.held.det.rsn});
  free_.push_back(s);
}

const DeterminantLog::Entry* DeterminantLog::lookup(const Key& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &at(it->second);
}

bool DeterminantLog::record(const HeldDeterminant& h) {
  const Key key{h.det.dest, h.det.rsn};
  const auto [it, inserted] = index_.try_emplace(key, Slot{0});
  if (!inserted) {
    const Slot found = it->second;
    Entry& e = at(found);
    // A receipt order names exactly one message: conflicting knowledge
    // about (dest, rsn) means the logging protocol itself is broken.
    RR_CHECK_MSG(e.held.det == h.det, "conflicting determinants for one receipt order");
    e.held.holders |= h.holders;
    refresh(found);
    return false;
  }
  const Slot s = allocate(h);
  it->second = s;
  // Receipts are mostly learned in rsn order, so the common insert is at
  // the back of the lane.
  std::vector<Slot>& lane = lanes_[key.first];
  if (lane.empty() || rsn_of(lane.back()) < key.second) {
    lane.push_back(s);
  } else {
    const auto pos = std::partition_point(lane.begin(), lane.end(),
                                          [&](Slot o) { return rsn_of(o) < key.second; });
    lane.insert(pos, s);
  }
  restamp(s);
  return true;
}

void DeterminantLog::add_holders(const Determinant& d, HolderMask extra) {
  const auto it = index_.find(Key{d.dest, d.rsn});
  if (it == index_.end()) return;
  const Slot s = it->second;
  Entry& e = at(s);
  if (e.held.det == d) {
    e.held.holders |= extra;
    refresh(s);
  }
}

void DeterminantLog::forget_holder(ProcessId peer, Rsn kept_rsn) {
  for (const auto& [dest, lane] : lanes_) {
    for (const Slot s : lane) {
      Entry& e = at(s);
      if (!holds(e.held.holders, peer)) continue;
      if (dest == peer && e.held.det.rsn <= kept_rsn) continue;
      e.held.holders &= ~holder_bit(peer);
      // Restamp even if it was already active: `peer`'s cursor passed it
      // while `peer` held it, so it must look new to that cursor.
      restamp(s);
    }
  }
}

std::vector<HeldDeterminant> DeterminantLog::piggyback_for(ProcessId to) {
  if (cursors_.size() <= to.value) cursors_.resize(to.value + 1);
  Cursor& cursor = cursors_[to.value];
  for (auto it = active_.upper_bound(cursor.seen); it != active_.end(); ++it) {
    const HeldDeterminant& held = at(it->second).held;
    if (!holds(held.holders, to)) cursor.pending.insert(Key{held.det.dest, held.det.rsn});
  }
  cursor.seen = last_stamp_;

  std::vector<HeldDeterminant> out;
  out.reserve(cursor.pending.size());
  for (auto it = cursor.pending.begin(); it != cursor.pending.end();) {
    const Entry* e = lookup(*it);
    if (e != nullptr && e->stamp != 0 && !holds(e->held.holders, to)) {
      out.push_back(e->held);
      ++it;
    } else {
      it = cursor.pending.erase(it);  // inactive, held by `to` or pruned
    }
  }
  return out;
}

std::vector<HeldDeterminant> DeterminantLog::active() const {
  std::vector<std::pair<Key, Slot>> keyed;
  keyed.reserve(active_.size());
  for (const auto& [stamp, s] : active_) {
    keyed.emplace_back(Key{at(s).held.det.dest, at(s).held.det.rsn}, s);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<HeldDeterminant> out;
  out.reserve(keyed.size());
  for (const auto& [key, s] : keyed) out.push_back(at(s).held);
  return out;
}

std::vector<HeldDeterminant> DeterminantLog::slice_for(const HolderMask& dests) const {
  std::vector<HeldDeterminant> out;
  for (const auto& [dest, lane] : lanes_) {
    if (!holds(dests, dest)) continue;
    for (const Slot s : lane) out.push_back(at(s).held);
  }
  return out;
}

std::vector<Determinant> DeterminantLog::replay_schedule(ProcessId owner, Rsn after) const {
  std::vector<Determinant> out;
  const auto lane = lanes_.find(owner);
  if (lane == lanes_.end()) return out;
  const auto first = std::partition_point(lane->second.begin(), lane->second.end(),
                                          [&](Slot s) { return rsn_of(s) <= after; });
  for (auto it = first; it != lane->second.end(); ++it) out.push_back(at(*it).held.det);
  return out;
}

Ssn DeterminantLog::max_ssn(ProcessId source, ProcessId dest) const {
  Ssn best = 0;
  const auto lane = lanes_.find(dest);
  if (lane == lanes_.end()) return best;
  for (const Slot s : lane->second) {
    const Determinant& d = at(s).held.det;
    if (d.source == source) best = std::max(best, d.ssn);
  }
  return best;
}

std::size_t DeterminantLog::prune_dest(ProcessId dest, Rsn upto) {
  const auto lane = lanes_.find(dest);
  if (lane == lanes_.end()) return 0;
  // Cursors keep the pruned keys until their next walk drops them.
  std::vector<Slot>& slots = lane->second;
  std::size_t n = 0;
  for (; n < slots.size() && rsn_of(slots[n]) <= upto; ++n) release(slots[n]);
  slots.erase(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

bool DeterminantLog::contains(ProcessId dest, Rsn rsn) const {
  return index_.contains(Key{dest, rsn});
}

const HeldDeterminant* DeterminantLog::find(ProcessId dest, Rsn rsn) const {
  const Entry* e = lookup(Key{dest, rsn});
  return e == nullptr ? nullptr : &e->held;
}

void DeterminantLog::clear() {
  chunks_.clear();
  free_.clear();
  index_.clear();
  lanes_.clear();
  active_.clear();
  cursors_.clear();
}

void DeterminantLog::encode(BufWriter& w) const {
  w.varint(size());
  for (const auto& [dest, lane] : lanes_) {
    for (const Slot s : lane) at(s).held.encode(w);
  }
}

DeterminantLog DeterminantLog::decode(BufReader& r) {
  DeterminantLog log;
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) log.record(HeldDeterminant::decode(r));
  return log;
}

}  // namespace rr::fbl
