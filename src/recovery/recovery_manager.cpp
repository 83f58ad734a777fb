#include "recovery/recovery_manager.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace rr::recovery {

namespace {

// Gather tree (RecoveryConfig::gather_arity): a BFS-complete k-ary tree over
// the array [leader] + participants, where `participants` is the sorted
// live set every side derives identically from (all processes − R). Node j's
// children sit at indices j*k+1 .. j*k+k. Index 0 is the leader; participant
// i sits at index i+1.

std::size_t tree_index_of(const std::vector<ProcessId>& participants, ProcessId pid) {
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (participants[i] == pid) return i + 1;
  }
  return 0;  // not a participant (caller treats as "no tree position")
}

std::vector<ProcessId> tree_children(const std::vector<ProcessId>& participants,
                                     std::size_t node_index, std::uint32_t arity) {
  std::vector<ProcessId> kids;
  const std::size_t total = participants.size() + 1;
  for (std::size_t c = node_index * arity + 1; c <= node_index * arity + arity && c < total;
       ++c) {
    kids.push_back(participants[c - 1]);
  }
  return kids;
}

/// Every participant in the subtree rooted at `root` (inclusive).
std::vector<ProcessId> tree_subtree(const std::vector<ProcessId>& participants, ProcessId root,
                                    std::uint32_t arity) {
  std::vector<ProcessId> out;
  const std::size_t r = tree_index_of(participants, root);
  if (r == 0) return out;
  const std::size_t total = participants.size() + 1;
  std::vector<std::size_t> queue{r};
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::size_t j = queue[qi];
    out.push_back(participants[j - 1]);
    for (std::size_t c = j * arity + 1; c <= j * arity + arity && c < total; ++c) {
      queue.push_back(c);
    }
  }
  return out;
}

}  // namespace

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kNonBlocking: return "non-blocking";
    case Algorithm::kBlocking: return "blocking";
    case Algorithm::kDeferUnsafe: return "defer-unsafe";
  }
  return "?";
}

RecoveryManager::RecoveryManager(sim::Simulator& sim, ProcessId self, ProcessId ord_service,
                                 RecoveryConfig config, Hooks hooks,
                                 metrics::Registry& metrics)
    : sim_(sim),
      self_(self),
      ord_service_(ord_service),
      config_(config),
      hooks_(std::move(hooks)),
      metrics_(metrics),
      progress_timer_(sim, config.progress_period, [this] { progress_tick(); }) {
  RR_CHECK(hooks_.send_ctrl && hooks_.broadcast_ctrl && hooks_.my_incarnation &&
           hooks_.all_processes && hooks_.is_suspected && hooks_.depinfo_slice &&
           hooks_.marks_for && hooks_.set_delivery_blocked && hooks_.set_defer_unsafe &&
           hooks_.sync_log_then_send && hooks_.install && hooks_.peer_recovered);
}

void RecoveryManager::reset_for_restart() {
  progress_timer_.stop();
  incvector_.clear();
  blocked_on_.clear();
  defer_on_.clear();
  recovering_ = false;
  ord_requested_ = false;
  installed_ = false;
  ord_ = 0;
  round_.reset();
  covered_.clear();
  // Delta-versioning state is volatile on both sides: our version counter
  // restarts at 0 and peers' stale confirmations are invalidated by the
  // incarnation bump (leader_inc mismatch forces full snapshots).
  incv_version_ = 0;
  incv_changed_at_.clear();
  leader_incv_seen_.clear();
  confirmed_.clear();
  relay_.reset();
}

void RecoveryManager::begin_recovery() {
  RR_CHECK(!recovering_);
  recovering_ = true;
  installed_ = false;
  ord_ = 0;
  // Own floor: everyone must reject our previous incarnation's frames.
  raise_floor(self_, hooks_.my_incarnation());
  RR_CHECK_MSG(!ord_requested_, "ord must be acquired exactly once per incarnation");
  ord_requested_ = true;
  send(ord_service_, OrdRequest{hooks_.my_incarnation()});
  progress_timer_.start();
  metrics_.counter("recovery.started").add();
}

void RecoveryManager::on_replay_complete() {
  RR_CHECK(recovering_);
  recovering_ = false;
  installed_ = false;
  round_.reset();
  // Keep ticking while an interior-relay watchdog still needs us.
  if (!relay_) progress_timer_.stop();
  metrics_.counter("recovery.completed").add();
  // Built by the node from the logging engine (post-replay watermarks).
  // RecoveryComplete retires us at the ord service, raises everyone's
  // incvector floor for us, and triggers retransmission of what we missed.
}

void RecoveryManager::on_control(ProcessId src, const ControlMessage& m) {
  if (const auto* reply = std::get_if<OrdReply>(&m)) {
    if (recovering_ && ord_ == 0) {
      ord_ = reply->ord;
      RR_DEBUG("recov", "%s acquired ord %llu", to_string(self_).c_str(),
               static_cast<unsigned long long>(ord_));
      evaluate_leadership(reply->rset);
    }
  } else if (const auto* reply = std::get_if<RSetReply>(&m)) {
    if (round_ && round_->phase == Phase::kRefreshR) {
      on_rset(reply->rset);
    } else if (round_) {
      // Mid-gather R refresh: a process we are waiting on has crashed and
      // re-registered as recovering — it will never answer this round.
      // This is the paper's "if a live process fails before replying,
      // restart the gathering" trigger, caught at registration time (the
      // failure detector alone can miss it when the process restores and
      // resumes heartbeating before the suspicion timeout).
      for (const auto& member : reply->rset) {
        const bool awaited = round_->expect_inc.contains(member.pid) ||
                             round_->expect_dep.contains(member.pid);
        if (awaited && !covered_.contains({member.pid, member.inc})) {
          restart_round("gather target re-registered as recovering");
          return;
        }
      }
    } else if (recovering_) {
      evaluate_leadership(reply->rset);
    }
  } else if (std::holds_alternative<IncRequest>(m)) {
    // Answer in any state: if we already completed, our current incarnation
    // is exactly what the leader should put in its incvector.
    send(src, IncReply{std::get<IncRequest>(m).round, hooks_.my_incarnation()});
  } else if (const auto* reply = std::get_if<IncReply>(&m)) {
    if (round_ && round_->phase == Phase::kGatherInc && reply->round == round_->id &&
        round_->expect_inc.erase(src) > 0) {
      round_->got_inc[src] = reply->inc;
      if (round_->expect_inc.empty()) begin_gather_dep();
    }
  } else if (const auto* req = std::get_if<DepRequest>(&m)) {
    handle_dep_request(src, *req);
  } else if (const auto* reply = std::get_if<DepReply>(&m)) {
    // Round ids are per-leader counters, so a relayed round can collide
    // with our own leader round's id: an awaited child is the tiebreak.
    if (relay_ && reply->round == relay_->round && relay_->await.contains(src)) {
      absorb_relay_reply(src, *reply);
    } else if (round_ && round_->phase == Phase::kGatherDep && reply->round == round_->id) {
      // Determinants merge as a set; contributions are deduplicated per pid
      // (a re-parented participant may answer both directly and through its
      // old relay — expect_dep.erase returning 0 drops the duplicate).
      for (const auto& h : reply->dets) round_->gathered.record(h);
      for (const auto& c : reply->contribs) absorb_contribution(c);
      if (round_->expect_dep.empty()) finish_round();
    } else if (relay_ && reply->round == relay_->round) {
      absorb_relay_reply(src, *reply);
    }
  } else if (const auto* install = std::get_if<DepInstall>(&m)) {
    if (recovering_) {
      merge_floors(install->incvector);
      installed_ = true;
      metrics_.counter("recovery.installs_received").add();
      hooks_.install(*install);
    }
  } else if (const auto* done = std::get_if<RecoveryComplete>(&m)) {
    handle_recovery_complete(src, *done);
  }
  // OrdRequest / RSetRequest are for the ord service; ReplayRequest /
  // ReplayData are handled by the node (they touch the send log / replay
  // engine directly).
}

void RecoveryManager::evaluate_leadership(const std::vector<RMember>& rset) {
  if (!recovering_ || ord_ == 0) return;
  // Leader = lowest unfinished ordinal whose process is not suspected
  // (paper: "the next process in ordinal number becomes a recovery leader").
  const RMember* leader = nullptr;
  bool covered_all = true;
  for (const auto& member : rset) {
    if (leader == nullptr && (member.pid == self_ || !hooks_.is_suspected(member.pid))) {
      leader = &member;
    }
    if (!covered_.contains({member.pid, member.inc})) covered_all = false;
  }
  if (leader == nullptr || leader->pid != self_) {
    // Someone else leads; if we were mid-round (e.g. a lower-ord member
    // resurfaced), stand down — installs merge, so duplicated leadership is
    // safe but wasteful.
    if (round_) {
      RR_DEBUG("recov", "%s stands down as leader", to_string(self_).c_str());
      round_.reset();
    }
    return;
  }
  if (round_) return;          // already leading a round
  if (covered_all) return;     // nothing new to recover
  // Leading despite a lower ordinal in R means that ordinal's process is
  // suspected dead: this is the paper's next-ordinal failover.
  bool failover = false;
  for (const auto& member : rset) {
    if (member.pid != self_ && member.ord < ord_) failover = true;
  }
  start_round(failover);
}

void RecoveryManager::start_round(bool failover) {
  Round r;
  r.id = next_round_id_++;
  r.phase = Phase::kRefreshR;
  r.phase_started = sim_.now();
  round_ = std::move(r);
  metrics_.counter("recovery.rounds").add();
  RR_DEBUG("recov", "%s leads round %llu", to_string(self_).c_str(),
           static_cast<unsigned long long>(round_->id));
  phase(failover ? trace::PhaseId::kLeaderFailover : trace::PhaseId::kLeaderElected);
  send(ord_service_, RSetRequest{});
}

void RecoveryManager::restart_round(const char* why) {
  RR_CHECK(round_);
  if (config_.bug_skip_gather_restart) {
    // Seeded bug (see RecoveryConfig): leave the round wedged on a reply
    // that will never come. The explorer must catch the non-termination.
    metrics_.counter("recovery.bug_restart_skipped").add();
    return;
  }
  metrics_.counter("recovery.gather_restarts").add();
  RR_INFO("recov", "%s restarts gather round %llu (%s)", to_string(self_).c_str(),
          static_cast<unsigned long long>(round_->id), why);
  phase(trace::PhaseId::kGatherRestarted);
  round_.reset();
  start_round();
}

void RecoveryManager::on_rset(const std::vector<RMember>& rset) {
  RR_CHECK(round_ && round_->phase == Phase::kRefreshR);
  // Abandon if our registration vanished (we completed concurrently) or a
  // lower-ord live member should lead instead.
  bool self_in = false;
  for (const auto& m : rset) {
    if (m.pid == self_) self_in = true;
  }
  if (!self_in) {
    round_.reset();
    return;
  }
  round_->rset = rset;
  for (const auto& m : rset) {
    if (m.ord < ord_ && !hooks_.is_suspected(m.pid)) {
      RR_DEBUG("recov", "%s defers to lower ord %llu (%s)", to_string(self_).c_str(),
               static_cast<unsigned long long>(m.ord), to_string(m.pid).c_str());
      round_.reset();
      return;
    }
  }
  phase(trace::PhaseId::kGatherStarted);
  if (config_.algorithm == Algorithm::kNonBlocking) {
    begin_gather_inc();
  } else {
    // The comparators skip the incarnation round (fewer messages); the
    // registry-reported incarnations fill the install's incvector.
    begin_gather_dep();
  }
}

void RecoveryManager::begin_gather_inc() {
  RR_CHECK(round_);
  round_->phase = Phase::kGatherInc;
  round_->phase_started = sim_.now();
  round_->expect_inc.clear();
  round_->got_inc.clear();
  for (const auto& m : round_->rset) {
    if (m.pid == self_) continue;
    round_->expect_inc.insert(m.pid);
    send(m.pid, IncRequest{round_->id});
  }
  if (round_->expect_inc.empty()) begin_gather_dep();
}

fbl::IncVector RecoveryManager::build_incvector() const {
  RR_CHECK(round_);
  fbl::IncVector v = incvector_;
  for (const auto& m : round_->rset) fbl::raise_incarnation(v, m.pid, m.inc);
  for (const auto& [pid, inc] : round_->got_inc) fbl::raise_incarnation(v, pid, inc);
  fbl::raise_incarnation(v, self_, hooks_.my_incarnation());
  return v;
}

void RecoveryManager::begin_gather_dep() {
  RR_CHECK(round_);
  // The incarnation round (or, for the comparators, the registry snapshot)
  // is complete: the incvector this round will distribute is now fixed.
  phase(trace::PhaseId::kIncVectorBuilt);
  round_->phase = Phase::kGatherDep;
  round_->phase_started = sim_.now();
  round_->expect_dep.clear();
  round_->gathered.clear();
  round_->live_marks.clear();
  round_->participants.clear();
  round_->direct.clear();

  std::set<ProcessId> recovering_pids;
  std::vector<ProcessId> rset_pids;
  for (const auto& m : round_->rset) {
    recovering_pids.insert(m.pid);
    rset_pids.push_back(m.pid);
  }

  for (const ProcessId pid : hooks_.all_processes()) {
    if (pid == self_ || recovering_pids.contains(pid)) continue;
    round_->participants.push_back(pid);
  }
  std::sort(round_->participants.begin(), round_->participants.end());
  for (const ProcessId pid : round_->participants) round_->expect_dep.insert(pid);

  DepRequest req;
  req.round = round_->id;
  req.block = config_.algorithm == Algorithm::kBlocking;
  req.defer = config_.algorithm == Algorithm::kDeferUnsafe;
  req.leader = self_;
  req.leader_inc = hooks_.my_incarnation();
  req.arity = config_.gather_arity;
  // The blocking baseline relies on stillness for safety; both running
  // comparators need the incvector floor to reject stale messages.
  if (!req.block) req.delta = build_delta(round_->participants);
  req.recovering = rset_pids;
  round_->req = req;

  if (req.arity == 0) {
    // Flat broadcast+collect: every participant answers the leader.
    for (const ProcessId pid : round_->participants) send(pid, req);
  } else {
    // Tree gather: contact only the root's children; interior nodes
    // forward and merge. expect_dep still lists everyone — contributions
    // arrive aggregated.
    for (const ProcessId pid :
         tree_children(round_->participants, 0, req.arity)) {
      round_->direct.insert(pid);
      send(pid, req);
    }
  }

  // The leader's own restored knowledge (checkpointed determinant log,
  // receive watermarks) joins the gather for free.
  for (const auto& h : hooks_.depinfo_slice(rset_pids)) round_->gathered.record(h);
  round_->live_marks[self_] = hooks_.marks_for(rset_pids);

  if (round_->expect_dep.empty()) finish_round();
}

fbl::IncDelta RecoveryManager::build_delta(const std::vector<ProcessId>& participants) {
  // Fold the round's floors into our own vector first; the wire delta is
  // then a pure slice of incvector_ by version.
  merge_floors(build_incvector());
  fbl::IncDelta d;
  d.version = incv_version_;
  const Incarnation my_inc = hooks_.my_incarnation();
  std::uint64_t base = UINT64_MAX;
  bool full = participants.empty();
  for (const ProcessId pid : participants) {
    const auto it = confirmed_.find(pid);
    if (it == confirmed_.end() || it->second.first != my_inc) {
      full = true;
      break;
    }
    base = std::min(base, it->second.second);
  }
  d.full = full;
  if (full) {
    d.base_version = 0;
    d.entries = incvector_;
    metrics_.counter("recovery.incv_full_sent").add();
  } else {
    d.base_version = base;
    for (const auto& [pid, at] : incv_changed_at_) {
      if (at > base) d.entries[pid] = incvector_.at(pid);
    }
    metrics_.counter("recovery.incv_delta_sent").add();
  }
  return d;
}

void RecoveryManager::absorb_contribution(const DepContribution& c) {
  RR_CHECK(round_);
  if (round_->expect_dep.erase(c.pid) == 0) return;  // duplicate or unknown
  round_->live_marks[c.pid] = c.marks;
  if (c.incv_resync) {
    // The participant missed our delta baseline (first contact after a
    // crash on either side); it applied the entries anyway — merge-max is
    // safe — but only a full snapshot restores version agreement.
    confirmed_.erase(c.pid);
    metrics_.counter("recovery.incv_resyncs").add();
  } else {
    confirmed_[c.pid] = {hooks_.my_incarnation(), c.incv_version};
  }
}

void RecoveryManager::reparent_leader(ProcessId child) {
  RR_CHECK(round_ && round_->phase == Phase::kGatherDep);
  metrics_.counter("recovery.subtree_reparents").add();
  RR_INFO("recov", "%s (leader) re-parents subtree of suspected %s (round %llu)",
          to_string(self_).c_str(), to_string(child).c_str(),
          static_cast<unsigned long long>(round_->id));
  phase_at(trace::PhaseId::kSubtreeReparented, child, round_->id);
  DepRequest direct = round_->req;
  direct.arity = 0;
  for (const ProcessId m : tree_subtree(round_->participants, child, round_->req.arity)) {
    if (m == child || !round_->expect_dep.contains(m)) continue;
    send(m, direct);
  }
}

void RecoveryManager::finish_round() {
  RR_CHECK(round_);
  phase(trace::PhaseId::kDepinfoCollected);
  DepInstall install;
  install.round = round_->id;
  install.incvector = build_incvector();
  install.dets = round_->gathered.slice_for(~fbl::HolderMask{0});
  install.live_marks = round_->live_marks;

  for (const auto& m : round_->rset) {
    covered_.insert({m.pid, m.inc});
    if (m.pid == self_) continue;
    send(m.pid, install);
  }
  metrics_.counter("recovery.installs_sent").add();

  // Self-install.
  merge_floors(install.incvector);
  installed_ = true;
  round_.reset();
  hooks_.install(install);
}

void RecoveryManager::progress_tick() {
  if (relay_) {
    // Relay watchdog (live side): a child that went quiet without tripping
    // the failure detector must not wedge the subtree. After half the
    // phase timeout, re-parent whatever is still awaited (once); after the
    // full timeout, forward the partial aggregate and let the leader's
    // restart triggers own the round's fate.
    if (sim_.now() - relay_->started > config_.phase_timeout) {
      metrics_.counter("recovery.relay_flush_partial").add();
      flush_relay();
    } else if (!relay_->swept && sim_.now() - relay_->started > config_.phase_timeout / 2) {
      relay_->swept = true;
      const std::set<ProcessId> stuck = relay_->await;
      for (const ProcessId pid : stuck) {
        if (relay_ && relay_->await.contains(pid)) reparent_relay(pid);
      }
    }
  }
  if (!recovering_) {
    if (!relay_ && progress_timer_.running()) progress_timer_.stop();
    return;
  }
  if (round_) {
    if (sim_.now() - round_->phase_started > config_.phase_timeout) {
      restart_round("phase timeout");
      return;
    }
    // Watch for gather targets that crashed into R mid-round (see the
    // RSetReply handler). Skip while the round is itself refreshing R.
    if (round_->phase != Phase::kRefreshR) send(ord_service_, RSetRequest{});
    return;
  }
  if (ord_ == 0) return;  // OrdReply still in flight (reliable network)
  // Member leader-watch / new-failure watch: refresh R and re-evaluate.
  send(ord_service_, RSetRequest{});
}

void RecoveryManager::handle_dep_request(ProcessId from, const DepRequest& req) {
  // Apply the incvector delta. merge-max is always safe to apply; the
  // version bookkeeping only decides whether we can *confirm* holding the
  // leader's vector (and thus keep its deltas small) or must ask for a
  // full snapshot.
  bool resync = false;
  std::uint64_t version_held = 0;
  merge_floors(req.delta.entries);
  if (req.delta.full) {
    leader_incv_seen_[req.leader] = {req.leader_inc, req.delta.version};
    version_held = req.delta.version;
  } else {
    const auto it = leader_incv_seen_.find(req.leader);
    if (it == leader_incv_seen_.end() || it->second.first != req.leader_inc ||
        it->second.second < req.delta.base_version) {
      resync = true;  // baseline gap: entries between it and us are unknown
    } else {
      it->second.second = std::max(it->second.second, req.delta.version);
      version_held = it->second.second;
    }
  }

  if (req.block && !recovering_) {
    for (const ProcessId pid : req.recovering) blocked_on_.insert(pid);
    hooks_.set_delivery_blocked(true);
  }
  if (req.defer && !recovering_) {
    for (const ProcessId pid : req.recovering) defer_on_.insert(pid);
    hooks_.set_defer_unsafe(defer_on_);
  }

  DepContribution me;
  me.pid = self_;
  me.inc = hooks_.my_incarnation();
  me.incv_version = version_held;
  me.incv_resync = resync;
  me.marks = hooks_.marks_for(req.recovering);

  if (req.arity > 0) {
    // Tree gather: work out our children and relay the request. The
    // participant list is derived exactly as the leader derived it (the
    // leader itself is in R, so "all − R" excludes it on both sides).
    std::set<ProcessId> recovering_pids(req.recovering.begin(), req.recovering.end());
    std::vector<ProcessId> participants;
    for (const ProcessId pid : hooks_.all_processes()) {
      if (!recovering_pids.contains(pid)) participants.push_back(pid);
    }
    std::sort(participants.begin(), participants.end());
    const std::size_t my_index = tree_index_of(participants, self_);
    std::vector<ProcessId> kids =
        my_index == 0 ? std::vector<ProcessId>{}
                      : tree_children(participants, my_index, req.arity);
    if (!kids.empty()) {
      Relay rel;
      rel.round = req.round;
      rel.reply_to = from;
      rel.defer = req.defer;
      rel.started = sim_.now();
      rel.participants = std::move(participants);
      rel.req = req;
      for (const ProcessId pid : kids) rel.await.insert(pid);
      rel.got.insert(self_);
      rel.contribs.push_back(me);
      for (const auto& h : hooks_.depinfo_slice(req.recovering)) rel.dets.record(h);
      relay_ = std::move(rel);
      metrics_.counter("recovery.relays").add();
      for (const ProcessId pid : kids) send(pid, req);
      // Watch the subtree: the progress timer doubles as the relay's
      // suspicion/timeout sweep on live processes.
      if (!progress_timer_.running()) progress_timer_.start();
      return;
    }
  }

  // Leaf (or flat gather): answer `from` — the leader, or the interior
  // node that forwarded the request — directly.
  DepReply reply;
  reply.round = req.round;
  reply.dets = hooks_.depinfo_slice(req.recovering);
  reply.contribs = {me};
  if (req.defer) {
    // Manetho-style: the reply must survive our own crash before the
    // recovering process can depend on it — synchronous stable write.
    hooks_.sync_log_then_send(from, reply);
  } else {
    send(from, reply);
  }
}

void RecoveryManager::absorb_relay_reply(ProcessId child, const DepReply& reply) {
  RR_CHECK(relay_);
  relay_->await.erase(child);
  for (const auto& h : reply.dets) relay_->dets.record(h);
  for (const auto& c : reply.contribs) {
    if (relay_->got.insert(c.pid).second) relay_->contribs.push_back(c);
  }
  if (relay_->await.empty()) flush_relay();
}

void RecoveryManager::reparent_relay(ProcessId child) {
  RR_CHECK(relay_);
  relay_->await.erase(child);
  metrics_.counter("recovery.subtree_reparents").add();
  RR_INFO("recov", "%s re-parents subtree of suspected %s (round %llu)",
          to_string(self_).c_str(), to_string(child).c_str(),
          static_cast<unsigned long long>(relay_->round));
  phase_at(trace::PhaseId::kSubtreeReparented, child, relay_->round);
  // Reach the orphaned subtree directly: its members answer us as leaves
  // (arity 0 stops them from re-relaying). The suspected child itself is
  // left to the leader's restart triggers.
  DepRequest direct = relay_->req;
  direct.arity = 0;
  for (const ProcessId m : tree_subtree(relay_->participants, child, relay_->req.arity)) {
    if (m == child || relay_->got.contains(m)) continue;
    relay_->await.insert(m);
    send(m, direct);
  }
  if (relay_->await.empty()) flush_relay();
}

void RecoveryManager::flush_relay() {
  RR_CHECK(relay_);
  DepReply reply;
  reply.round = relay_->round;
  reply.dets = relay_->dets.slice_for(~fbl::HolderMask{0});
  reply.contribs = std::move(relay_->contribs);
  const ProcessId to = relay_->reply_to;
  const bool defer = relay_->defer;
  relay_.reset();
  if (defer) {
    hooks_.sync_log_then_send(to, reply);
  } else {
    send(to, reply);
  }
  if (!recovering_ && progress_timer_.running()) progress_timer_.stop();
}

void RecoveryManager::handle_recovery_complete(ProcessId peer, const RecoveryComplete& m) {
  raise_floor(peer, m.inc);
  if (!blocked_on_.empty()) {
    blocked_on_.erase(peer);
    if (blocked_on_.empty()) hooks_.set_delivery_blocked(false);
  }
  if (!defer_on_.empty()) {
    defer_on_.erase(peer);
    hooks_.set_defer_unsafe(defer_on_);
  }
  hooks_.peer_recovered(peer, m);
}

void RecoveryManager::on_suspicion(ProcessId peer, bool suspected) {
  if (!suspected) return;
  if (relay_ && relay_->await.contains(peer)) {
    reparent_relay(peer);
    return;
  }
  if (round_) {
    if (round_->phase == Phase::kGatherDep && round_->direct.erase(peer) > 0) {
      // Tree gather: a direct child fell — adopt its subtree instead of
      // tearing the round down. If the suspicion was real, the child will
      // re-register as recovering and the mid-gather RSet check restarts
      // the round; if it was false, its (now duplicate) reply just drops.
      reparent_leader(peer);
      return;
    }
    const bool awaiting =
        (round_->phase == Phase::kGatherInc && round_->expect_inc.contains(peer)) ||
        (round_->phase == Phase::kGatherDep && round_->req.arity == 0 &&
         round_->expect_dep.contains(peer));
    if (awaiting) restart_round("target suspected");
    return;
  }
  if (recovering_ && ord_ != 0 && !installed_) {
    // Our leader may be the suspect; refresh R now instead of waiting for
    // the next tick.
    send(ord_service_, RSetRequest{});
  }
}

void RecoveryManager::send(ProcessId to, const ControlMessage& m) { hooks_.send_ctrl(to, m); }

void RecoveryManager::broadcast(const ControlMessage& m) { hooks_.broadcast_ctrl(m); }

void RecoveryManager::phase(trace::PhaseId id) {
  phase_at(id, self_, round_ ? round_->id : 0);
}

void RecoveryManager::phase_at(trace::PhaseId id, ProcessId subject, std::uint64_t round_id) {
  if (!hooks_.phase) return;
  trace::PhaseEventInfo info;
  info.pid = self_;
  info.phase = id;
  info.round = round_id;
  info.ord = ord_;
  info.subject = subject;
  hooks_.phase(info);
}

void RecoveryManager::raise_floor(ProcessId about, Incarnation inc) {
  if (inc <= fbl::incarnation_of(incvector_, about)) {
    fbl::raise_incarnation(incvector_, about, inc);  // materialize the entry
    return;
  }
  fbl::raise_incarnation(incvector_, about, inc);
  incv_changed_at_[about] = ++incv_version_;
  if (hooks_.floor_raised) hooks_.floor_raised(about, inc);
}

void RecoveryManager::merge_floors(const fbl::IncVector& from) {
  for (const auto& [pid, inc] : from) raise_floor(pid, inc);
}

}  // namespace rr::recovery
