// The recovery state machine — the paper's contribution (§3) plus the
// blocking baseline it is evaluated against (§5).
//
// One RecoveryManager runs inside every process and plays three roles:
//
//  * live participant: answers depinfo requests, applies incvector floors,
//    reacts to RecoveryComplete broadcasts — and, under the blocking
//    baseline only, stalls application delivery while any recovery is in
//    flight;
//  * recovering member: acquires an ord, waits for the leader, applies the
//    DepInstall, and announces completion after replay;
//  * recovery leader (lowest unfinished ord): refreshes R, gathers the
//    recovering incarnations (new algorithm), gathers depinfo from every
//    live process, restarts the gather whenever a targeted live process is
//    suspected or the phase times out, and installs the merged depinfo.
//
// Algorithm::kNonBlocking is the paper's new algorithm: live processes
// never stop delivering; safety comes from the incvector distributed with
// each DepRequest. Algorithm::kBlocking is the comparator "optimized for
// low communication overhead": it skips the incarnation-gather round and
// the incvector distribution, and instead stalls live application delivery
// from the moment a DepRequest arrives until every recovering process has
// announced completion.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/types.hpp"
#include "fbl/determinant_log.hpp"
#include "fbl/inc_vector.hpp"
#include "fbl/watermarks.hpp"
#include "metrics/registry.hpp"
#include "recovery/messages.hpp"
#include "sim/simulator.hpp"
#include "trace/phase_hook.hpp"

namespace rr::recovery {

enum class Algorithm {
  kNonBlocking,  ///< the paper's new algorithm
  kBlocking,     ///< message-lean baseline that stalls live processes
  /// Manetho-style comparator the paper describes in §2.2 but does not
  /// measure: live processes keep running but (a) refrain from delivering
  /// application messages that reference recovering processes' receipt
  /// orders until recovery completes, and (b) synchronously record their
  /// depinfo replies on stable storage before sending them.
  kDeferUnsafe,
};

[[nodiscard]] const char* to_string(Algorithm a);

struct RecoveryConfig {
  Algorithm algorithm{Algorithm::kNonBlocking};
  /// Leader-watch / leadership re-evaluation cadence while recovering.
  Duration progress_period = milliseconds(500);
  /// A gather phase stuck longer than this restarts the round (covers
  /// targets that crashed without being detected yet).
  Duration phase_timeout = seconds(5);
  /// Depinfo gather fan-out. 0 = flat: the leader contacts every live
  /// process and collects n-1 direct replies, which is the paper's shape
  /// and fine at n≈16 but makes the leader an O(n) hot spot at n≈1024.
  /// k >= 2 builds a k-ary gather/scatter tree over the sorted live
  /// participants (leader at the root): requests fan out edge-by-edge and
  /// each interior node merges its subtree's replies into one, so the
  /// leader handles O(k) messages per round instead of O(n). Suspicion of
  /// an interior node re-parents its subtree (kSubtreeReparented) so the
  /// partial gather keeps flowing while the usual restart triggers decide
  /// the round's fate.
  std::uint32_t gather_arity{0};
  /// Deliberately seeded bug for the fault-schedule explorer's
  /// self-test: suppress every gather-restart trigger (concurrent failure,
  /// suspicion, phase timeout), so a leader whose gather target dies hangs
  /// forever. Never enable outside explorer/verification runs.
  bool bug_skip_gather_restart{false};
};

class RecoveryManager {
 public:
  struct Hooks {
    /// Transport (the node counts control messages and bytes).
    std::function<void(ProcessId, const ControlMessage&)> send_ctrl;
    std::function<void(const ControlMessage&)> broadcast_ctrl;

    /// Identity and membership.
    std::function<Incarnation()> my_incarnation;
    std::function<std::vector<ProcessId>()> all_processes;  // app processes only
    std::function<bool(ProcessId)> is_suspected;

    /// Depinfo from the local logging engine: determinants destined to any
    /// pid in `rset`, and our delivered-ssn watermarks for those sources.
    std::function<std::vector<fbl::HeldDeterminant>(const std::vector<ProcessId>&)>
        depinfo_slice;
    std::function<fbl::Watermarks(const std::vector<ProcessId>&)> marks_for;

    /// Blocking baseline: stall/resume application delivery at a live
    /// process.
    std::function<void(bool)> set_delivery_blocked;

    /// Defer-unsafe comparator: hold back application messages referencing
    /// receipt orders of the given recovering set (empty set = resume).
    std::function<void(const std::set<ProcessId>&)> set_defer_unsafe;

    /// Defer-unsafe comparator: durably record a control reply on stable
    /// storage, then transmit it (the synchronous-logging delay §2.2
    /// criticizes).
    std::function<void(ProcessId, const ControlMessage&)> sync_log_then_send;

    /// Recovering side: apply an install (merge determinants, feed the
    /// replay engine).
    std::function<void(const DepInstall&)> install;

    /// A peer finished recovery: retransmit what it missed, fix holder
    /// masks, nudge our replay engine.
    std::function<void(ProcessId, const RecoveryComplete&)> peer_recovered;

    /// Optional: our incvector floor for `about` was raised to `inc`
    /// (trace/V7 instrumentation; fires only on an actual increase).
    std::function<void(ProcessId, Incarnation)> floor_raised;

    /// Optional tap fired at named protocol phase boundaries (see
    /// trace/phase_hook.hpp). Must not re-enter the manager synchronously.
    trace::PhaseHook phase;
  };

  RecoveryManager(sim::Simulator& sim, ProcessId self, ProcessId ord_service,
                  RecoveryConfig config, Hooks hooks, metrics::Registry& metrics);

  /// Crash: wipe all volatile recovery state (called by the node before
  /// restart; the manager is reused across incarnations).
  void reset_for_restart();

  /// Restore finished — acquire an ord and join/lead recovery.
  void begin_recovery();

  /// The node's replay engine drained its schedule; announce completion.
  void on_replay_complete();

  /// Demuxed control frame.
  void on_control(ProcessId src, const ControlMessage& m);

  /// Failure-detector edge (suspected went up or down).
  void on_suspicion(ProcessId peer, bool suspected);

  [[nodiscard]] bool recovering() const noexcept { return recovering_; }
  [[nodiscard]] bool leading() const noexcept { return round_.has_value(); }
  [[nodiscard]] bool install_received() const noexcept { return installed_; }
  [[nodiscard]] Ord ord() const noexcept { return ord_; }
  [[nodiscard]] const fbl::IncVector& incvector() const noexcept { return incvector_; }
  [[nodiscard]] const std::set<ProcessId>& blocked_on() const noexcept { return blocked_on_; }
  [[nodiscard]] const RecoveryConfig& config() const noexcept { return config_; }

 private:
  enum class Phase { kRefreshR, kGatherInc, kGatherDep };

  struct Round {
    std::uint64_t id{0};
    Phase phase{Phase::kRefreshR};
    Time phase_started{0};
    std::vector<RMember> rset;
    std::set<ProcessId> expect_inc;
    std::map<ProcessId, Incarnation> got_inc;
    std::set<ProcessId> expect_dep;
    fbl::DeterminantLog gathered;
    std::map<ProcessId, fbl::Watermarks> live_marks;
    // Tree gather (arity > 0): sorted live participants (the BFS array is
    // [leader] + participants), the leader's direct children, and the
    // request to re-send with arity 0 when a child subtree is re-parented.
    std::vector<ProcessId> participants;
    std::set<ProcessId> direct;
    DepRequest req;
  };

  /// Interior-node state of a tree gather: this (live) process forwarded a
  /// DepRequest to its children and owes `reply_to` one merged reply.
  struct Relay {
    std::uint64_t round{0};
    ProcessId reply_to;  ///< parent that forwarded the request to us
    bool defer{false};
    bool swept{false};  ///< half-timeout re-parent sweep already ran
    Time started{0};
    std::vector<ProcessId> participants;
    std::set<ProcessId> await;  ///< children (plus re-parented descendants)
    std::set<ProcessId> got;    ///< contributor pids already merged (dedup)
    fbl::DeterminantLog dets;
    std::vector<DepContribution> contribs;
    DepRequest req;  ///< for direct re-sends on re-parent
  };

  // Leader machinery.
  void start_round(bool failover = false);
  void restart_round(const char* why);
  void on_rset(const std::vector<RMember>& rset);
  void begin_gather_inc();
  void begin_gather_dep();
  void finish_round();
  [[nodiscard]] fbl::IncVector build_incvector() const;
  /// Fold this round's floors into incvector_ and slice the delta against
  /// the lowest version every participant has confirmed (full on any
  /// unconfirmed participant or leader-incarnation mismatch).
  [[nodiscard]] fbl::IncDelta build_delta(const std::vector<ProcessId>& participants);
  void absorb_contribution(const DepContribution& c);
  void reparent_leader(ProcessId child);

  // Member machinery.
  void evaluate_leadership(const std::vector<RMember>& rset);
  void progress_tick();

  // Live-side handlers.
  void handle_dep_request(ProcessId from, const DepRequest& req);
  void handle_recovery_complete(ProcessId peer, const RecoveryComplete& m);
  void absorb_relay_reply(ProcessId child, const DepReply& reply);
  void reparent_relay(ProcessId child);
  void flush_relay();

  void send(ProcessId to, const ControlMessage& m);
  void broadcast(const ControlMessage& m);

  /// Fire the configured phase hook (no-op when unset).
  void phase(trace::PhaseId id);
  void phase_at(trace::PhaseId id, ProcessId subject, std::uint64_t round_id);
  /// Raise incvector_[about] to `inc`, firing floor_raised on an increase.
  void raise_floor(ProcessId about, Incarnation inc);
  /// merge_max into incvector_ through raise_floor.
  void merge_floors(const fbl::IncVector& from);

  sim::Simulator& sim_;
  ProcessId self_;
  ProcessId ord_service_;
  RecoveryConfig config_;
  Hooks hooks_;
  metrics::Registry& metrics_;

  // Live-side state.
  fbl::IncVector incvector_;
  std::set<ProcessId> blocked_on_;  // blocking baseline: R pids awaited
  std::set<ProcessId> defer_on_;    // defer-unsafe comparator: R pids awaited
  /// Incvector versioning for delta distribution: incv_version_ bumps on
  /// every actual floor raise, incv_changed_at_[p] remembers the version at
  /// which p's floor last moved (the delta since V is exactly the entries
  /// with changed_at > V).
  std::uint64_t incv_version_{0};
  std::map<ProcessId, std::uint64_t> incv_changed_at_;
  /// Receiver side: per leader, the (leader incarnation, version) of that
  /// leader's incvector we last held completely. A delta whose baseline is
  /// beyond this is still applied (merge-max is safe) but flagged for
  /// resync.
  std::map<ProcessId, std::pair<Incarnation, std::uint64_t>> leader_incv_seen_;
  /// Leader side: per participant, the (our incarnation, version) it last
  /// confirmed — the delta baseline pool. Erased on a reported resync.
  std::map<ProcessId, std::pair<Incarnation, std::uint64_t>> confirmed_;
  /// Interior-node tree-gather relay (live side; at most one at a time —
  /// a newer round from any leader supersedes it).
  std::optional<Relay> relay_;

  // Recovering-side state.
  bool recovering_{false};
  bool ord_requested_{false};
  bool installed_{false};
  Ord ord_{0};
  std::uint64_t next_round_id_{1};
  std::optional<Round> round_;
  /// (pid, inc) pairs already covered by an install this manager issued.
  std::set<std::pair<ProcessId, Incarnation>> covered_;
  sim::RepeatingTimer progress_timer_;
};

}  // namespace rr::recovery
