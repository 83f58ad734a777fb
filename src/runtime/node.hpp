// Node — one process's full runtime.
//
// Glues every layer together around a single application instance:
//
//   network demux ─→ FBL logging engine ─→ application handlers
//         │                │
//         ├─→ heartbeat ─→ failure detector
//         ├─→ checkpoint notices ─→ log GC
//         └─→ control frames ─→ recovery manager / replay engine
//
// and owns the crash/restore lifecycle. A crash wipes everything volatile
// (engine, application, queues, timers) and goes network-dark; the local
// supervisor notices after `supervisor_restart_delay` (the paper's
// "timeouts and retrials" detection term), restores the incarnation
// counter and the latest checkpoint from stable storage, and hands control
// to the recovery manager. Every step is measured: the per-recovery phase
// timeline (detect / restore / gather / replay) is what benches T1/T2
// print against the paper's numbers.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "app/application.hpp"
#include "common/types.hpp"
#include "detect/failure_detector.hpp"
#include "fbl/engine.hpp"
#include "metrics/counters.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "obs/span.hpp"
#include "recovery/output_commit.hpp"
#include "recovery/recovery_manager.hpp"
#include "recovery/replay.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"
#include "storage/checkpoint_store.hpp"
#include "storage/stable_storage.hpp"
#include "trace/trace.hpp"

namespace rr::runtime {

struct NodeConfig {
  ProcessId id;
  std::uint32_t num_processes{0};
  std::uint32_t f{1};
  ProcessId ord_service;
  /// Piggyback pruning (see fbl::EngineConfig): off = the un-pruned O(n)
  /// baseline for the scale bench and the equivalence property test.
  bool prune_piggyback{true};
  recovery::RecoveryConfig recovery;
  detect::DetectorConfig detector;
  storage::StorageConfig storage;
  /// Reliable-delivery transport between app processes (off = passthrough,
  /// the paper's perfect-fabric assumption). Enable alongside link faults.
  net::TransportConfig transport;
  /// Independent checkpoint cadence.
  Duration checkpoint_period = seconds(10);
  /// Crash-to-restore-start delay (local watchdog detection).
  Duration supervisor_restart_delay = seconds(2);
  /// CPU cost of re-executing one message during replay.
  Duration replay_delivery_cost = microseconds(50);
  /// Asynchronous determinant flush cadence for the f = n instance.
  Duration det_flush_period = milliseconds(250);
  /// Optional structured protocol trace (owned by the cluster).
  trace::TraceLog* trace{nullptr};
  /// Optional causal span tracer (owned by the cluster). The node reports
  /// its lifecycle edges (crash / restore / recovery-complete) and hands the
  /// tap to its stable-storage device.
  obs::SpanTracer* tracer{nullptr};
  /// Optional protocol-phase tap (the cluster's fan-out to trace, spans and
  /// its phase probe), handed to the recovery manager.
  trace::PhaseHook phase_hook;
};

/// Completed-recovery measurement, one entry per recovery of this node.
struct RecoveryTimeline {
  Incarnation inc{0};
  Time crashed_at{0};
  Time restore_started{0};
  Time restored_at{0};
  Time installed_at{0};
  Time completed_at{0};
  std::size_t replayed{0};
  std::size_t gather_restarts_seen{0};

  [[nodiscard]] Duration detect() const { return restore_started - crashed_at; }
  [[nodiscard]] Duration restore() const { return restored_at - restore_started; }
  [[nodiscard]] Duration gather() const { return installed_at - restored_at; }
  [[nodiscard]] Duration replay() const { return completed_at - installed_at; }
  [[nodiscard]] Duration total() const { return completed_at - crashed_at; }
};

class Node : public net::Endpoint {
 public:
  Node(sim::Simulator& sim, net::Network& network, NodeConfig config,
       std::unique_ptr<app::Application> application, std::vector<ProcessId> processes,
       metrics::Registry& metrics);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Initial boot: persist incarnation 1 and a pre-start checkpoint, then
  /// run the application's on_start. Asynchronous (storage latency).
  void start();

  /// Failure injection: crash-stop now. Safe at any point in the lifecycle
  /// (including mid-restore); the supervisor restarts after the configured
  /// delay.
  void crash();

  // net::Endpoint
  void deliver(ProcessId src, Bytes payload) override;

  // --- introspection ----------------------------------------------------

  [[nodiscard]] ProcessId id() const noexcept { return config_.id; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool recovering() const noexcept { return recovering_; }
  [[nodiscard]] bool delivery_blocked() const noexcept { return delivery_blocked_; }
  [[nodiscard]] Incarnation incarnation() const noexcept { return inc_; }
  [[nodiscard]] const app::Application& application() const { return *app_; }
  [[nodiscard]] app::Application& application() { return *app_; }
  [[nodiscard]] const fbl::LoggingEngine& engine() const { return engine_; }
  [[nodiscard]] const recovery::RecoveryManager& recovery_manager() const { return recovery_; }
  [[nodiscard]] storage::StableStorage& stable_storage() { return storage_; }
  [[nodiscard]] const net::ReliableTransport& transport() const { return transport_; }

  /// Total time application delivery was blocked by the recovery protocol
  /// (the paper's live-process intrusion metric).
  [[nodiscard]] Duration blocked_time() const { return blocked_.total(sim_.now()); }
  [[nodiscard]] std::uint64_t blocked_episodes() const { return blocked_.episodes(); }

  [[nodiscard]] const std::vector<RecoveryTimeline>& recoveries() const { return timelines_; }

  /// Messages the application delivered (includes replayed deliveries).
  [[nodiscard]] std::uint64_t app_delivered() const noexcept { return app_delivered_; }

  /// Inject an application send from outside a handler (examples/tests).
  void app_send(ProcessId to, Bytes payload);

  /// Queue an external output through the output-commit barrier.
  std::uint64_t commit_output(Bytes payload);

  /// Initiate a Chandy-Lamport snapshot with the given unique id; poll
  /// take_completed_snapshot() for the assembled result.
  void start_snapshot(std::uint64_t id);
  [[nodiscard]] std::optional<snapshot::GlobalSnapshot> take_completed_snapshot() {
    return snapshot_.take_completed();
  }

  /// Outputs actually released to the external world (survives crashes —
  /// the world does not forget). Pairs of (output id, payload).
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, Bytes>>& released_outputs() const {
    return released_outputs_;
  }
  [[nodiscard]] std::size_t outputs_pending() const { return outputs_.pending(); }

 private:
  class Ctx;

  // Lifecycle.
  void begin_restore();
  void finish_restore(const fbl::Checkpoint& cp);
  void load_stable_dets(std::vector<std::string> keys, fbl::Checkpoint cp);
  void finish_recovery();

  // Receive path.
  void handle_wire(ProcessId src, std::span<const std::byte> payload);
  void handle_app_frame(ProcessId src, fbl::AppFrame frame);
  /// Offer a frame to the engine, count what its piggyback taught us and,
  /// on kDeliver, hand the payload to the application.
  fbl::LoggingEngine::Verdict accept_app(ProcessId src, const fbl::AppFrame& frame);
  void try_deliver_app(ProcessId src, const fbl::AppFrame& frame);
  void drain_held(ProcessId src);
  void drain_blocked();
  void drain_pending_fresh();

  // Send path.
  void transmit_app_frame(ProcessId to, fbl::LoggingEngine::SendResult&& res);
  void confirm_piggyback_marks(ProcessId dst, std::uint64_t msg);

  // Control path.
  void send_control(ProcessId to, const recovery::ControlMessage& m);
  void broadcast_control(const recovery::ControlMessage& m);
  void handle_replay_request(ProcessId src, const recovery::ReplayRequest& req);
  void on_install(const recovery::DepInstall& install);
  void on_peer_recovered(ProcessId peer, const recovery::RecoveryComplete& m);
  void set_delivery_blocked(bool blocked);
  void set_defer_unsafe(const std::set<ProcessId>& rset);
  void sync_log_then_send(ProcessId to, const recovery::ControlMessage& m);
  [[nodiscard]] bool references_deferred(const fbl::AppFrame& frame) const;
  void drain_deferred();

  // Maintenance.
  void take_checkpoint();
  void flush_unstable_dets();
  void send_heartbeats();

  [[nodiscard]] std::string inc_key() const;
  [[nodiscard]] std::string det_block_key(std::uint64_t seq) const;
  [[nodiscard]] fbl::HolderMask mask_of(const std::vector<ProcessId>& pids) const;

  sim::Simulator& sim_;
  net::Network& network_;
  NodeConfig config_;
  metrics::Registry& metrics_;
  // Per-message counters.
  metrics::CounterHandle app_sent_{metrics_, "app.sent"};
  metrics::CounterHandle app_payload_bytes_{metrics_, "app.payload_bytes"};
  metrics::CounterHandle app_delivered_count_{metrics_, "app.delivered"};
  metrics::CounterHandle piggyback_dets_{metrics_, "fbl.piggyback_dets"};
  metrics::CounterHandle piggyback_bytes_{metrics_, "fbl.piggyback_bytes"};
  metrics::CounterHandle dets_learned_{metrics_, "fbl.dets_learned"};
  std::vector<ProcessId> processes_;  // app processes, sorted, incl. self
  net::ReliableTransport transport_;

  std::unique_ptr<app::Application> app_;
  std::unique_ptr<Ctx> ctx_;
  fbl::LoggingEngine engine_;
  storage::StableStorage storage_;
  storage::CheckpointStore ckpts_;
  detect::FailureDetector detector_;
  recovery::RecoveryManager recovery_;
  recovery::ReplayEngine replay_;
  recovery::OutputCommitManager outputs_;
  snapshot::SnapshotManager snapshot_;

  // Lifecycle state.
  std::uint64_t epoch_{0};  // bumped on crash; stale async callbacks bail
  bool alive_{false};
  bool started_{false};
  bool recovering_{false};
  bool needs_onstart_replay_{false};
  Incarnation inc_{0};

  // Delivery gating.
  bool delivery_blocked_{false};
  metrics::IntervalTracker blocked_;
  std::deque<std::pair<ProcessId, fbl::AppFrame>> blocked_queue_;
  std::deque<std::pair<ProcessId, fbl::AppFrame>> pending_fresh_;  // while recovering
  std::deque<std::pair<ProcessId, fbl::AppFrame>> pre_start_queue_;
  std::map<ProcessId, std::map<Ssn, fbl::AppFrame>> held_ooo_;

  // Defer-unsafe comparator (Algorithm::kDeferUnsafe): while non-empty,
  // application frames piggybacking determinants destined to these
  // recovering processes are held back.
  std::set<ProcessId> defer_rset_;
  struct DeferredFrame {
    ProcessId src;
    fbl::AppFrame frame;
    Time held_since{0};
  };
  std::deque<DeferredFrame> deferred_queue_;
  std::uint64_t sync_log_seq_{0};

  // Deferred holder marking (lossy fabric): determinants piggybacked on an
  // app frame are counted at the destination only once the transport's
  // cumulative ack covers the frame's message index. Per destination, in
  // send order; cleared with the transport's state on crash/restore.
  struct PendingMarks {
    std::uint64_t msg{0};
    std::vector<fbl::Determinant> dets;
  };
  std::map<ProcessId, std::deque<PendingMarks>> pending_marks_;

  // Replay-time send suppression: per live peer, the ssn it already
  // delivered from us (from DepInstall live_marks).
  fbl::Watermarks suppress_marks_;

  // Maintenance timers.
  sim::RepeatingTimer checkpoint_timer_;
  sim::RepeatingTimer det_flush_timer_;
  std::uint64_t det_block_seq_{0};
  std::vector<std::string> det_blocks_written_;
  bool det_flush_inflight_{false};

  // External world (never cleared by crashes).
  std::vector<std::pair<std::uint64_t, Bytes>> released_outputs_;
  std::uint64_t last_released_output_{0};

  // Measurement.
  std::uint64_t app_delivered_{0};
  std::optional<RecoveryTimeline> current_recovery_;
  std::vector<RecoveryTimeline> timelines_;
};

}  // namespace rr::runtime
