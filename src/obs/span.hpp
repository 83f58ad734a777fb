// Causal span tracer — the observability layer of the simulator.
//
// The paper's whole argument is about *where time goes* during recovery
// (stable-storage latency, intrusion on live processes), so the repo needs
// more than scalar counters: this module records a tree of timed spans per
// node, each attributed to a (node, incarnation) pair and linked to its
// parent, decomposing every recovery into the phases the protocol actually
// went through — detect, restore, election, gather / regather (with the
// incarnation-round sub-span), replay — plus the infrastructure intervals
// underneath them (control-packet transit, stable-storage operations).
//
// Design constraints:
//   * zero allocation on the hot path: spans live in an arena of
//     fixed-size records, grown in chunks that never move, and every
//     per-span metric handle is resolved once at construction;
//   * bounded post-mortem state: each node owns a flight-recorder ring
//     that retains the last N completed spans, dumped (with any still-open
//     spans) when the history checker reports an oracle violation or the
//     schedule explorer shrinks a repro;
//   * exportable: the whole arena renders as Chrome/Perfetto trace_event
//     JSON (see obs/perfetto.hpp) and feeds per-phase latency histograms
//     into metrics::Registry under "span.<name>" for the bench tables.
//
// The tracer never re-enters the protocol: every entry point only appends
// records. Feed points: runtime::Node (lifecycle), the cluster's PhaseHook
// chain (protocol phases), net::Network (packet transit) and
// storage::StableStorage (device intervals).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "metrics/registry.hpp"
#include "trace/phase_hook.hpp"  // header-only: PhaseId / PhaseEventInfo

namespace rr::obs {

/// Fixed span taxonomy (see DESIGN.md §7 for the opening/closing sites).
enum class SpanName : std::uint8_t {
  kRecovery = 0,   ///< crash → recovery complete (root, per incarnation)
  kDetect,         ///< crash → supervisor starts the restore
  kRestore,        ///< restore start → checkpoint + stable log reloaded
  kElection,       ///< restored → leads a round, or receives an install
  kGather,         ///< round's gather (leader side): started → depinfo done
  kRegather,       ///< a gather begun after a restart of the round
  kIncVector,      ///< incarnation round inside a gather: started → built
  kReplay,         ///< install applied → replay schedule drained
  kCtrlTransit,    ///< one control packet on the wire (send → delivery)
  kStorageWrite,   ///< stable-storage write: issue → device commit
  kStorageRead,    ///< stable-storage read: issue → data returned
  kStorageErase,   ///< stable-storage erase: issue → applied
};
inline constexpr std::size_t kSpanNameCount = 12;

[[nodiscard]] const char* to_string(SpanName name);

/// 1-based arena index; 0 = "no span".
using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

/// Node slot used for spans not owned by an application process (the ord
/// service, unknown endpoints). Always the last slot of the tracer.
struct SpanRecord {
  /// Sentinel `end` for spans still open.
  static constexpr Time kOpen = std::numeric_limits<Time>::min();
  /// Flag: closed by a restart/stand-down/crash rather than by finishing.
  static constexpr std::uint8_t kAborted = 0x1;

  Time begin{0};
  Time end{kOpen};
  SpanId parent{kNoSpan};
  std::uint32_t node{0};      ///< tracer slot (== ProcessId value for nodes)
  Incarnation inc{0};
  std::uint64_t detail{0};    ///< round id, payload bytes, ... (name-specific)
  SpanName name{SpanName::kRecovery};
  std::uint8_t flags{0};

  [[nodiscard]] bool open() const noexcept { return end == kOpen; }
  [[nodiscard]] bool aborted() const noexcept { return (flags & kAborted) != 0; }
  [[nodiscard]] Duration duration(Time now) const noexcept {
    return (open() ? now : end) - begin;
  }
};

struct SpanTracerConfig {
  /// Application processes; the tracer adds one extra slot for services.
  std::uint32_t num_nodes{0};
  /// Completed-span records retained per node for post-mortem dumps.
  std::uint32_t flight_capacity{64};
};

class SpanTracer {
 public:
  SpanTracer(SpanTracerConfig config, metrics::Registry& metrics);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // --- node lifecycle (runtime::Node) ------------------------------------

  /// Crash of `node` (old incarnation `inc`): closes every span the node
  /// still has open — a failed leader's gather must end at its crash time —
  /// then opens the recovery root and its `detect` child.
  void on_crash(Time now, std::uint32_t node, Incarnation inc);

  /// Supervisor noticed the crash: `detect` closes, `restore` opens.
  void on_restore_begin(Time now, std::uint32_t node);

  /// Checkpoint + stable determinants reloaded as incarnation `inc`:
  /// `restore` closes, `election` opens, and all subsequent spans of the
  /// node are attributed to the new incarnation.
  void on_restored(Time now, std::uint32_t node, Incarnation inc);

  /// Replay drained: closes `replay` (and any still-open led round — a
  /// completing leader abandons an in-flight round) and the recovery root.
  void on_recovery_complete(Time now, std::uint32_t node);

  // --- protocol phases (cluster phase-hook chain) ------------------------

  void on_phase(Time now, const trace::PhaseEventInfo& info);

  // --- infrastructure (both endpoints known at issue time) ---------------

  /// One packet of `bytes` on the wire: records a closed kCtrlTransit span
  /// on the *destination* node iff `frame`, the protocol frame it carries
  /// (transport framing already removed by net), is a control frame.
  void on_packet(Time sent, Time deliver_at, std::uint32_t dst, std::size_t bytes,
                 std::span<const std::byte> frame);

  /// One stable-storage operation interval (op is one of the kStorage*).
  void on_storage_op(Time issued, Time completes, std::uint32_t node, SpanName op,
                     std::size_t bytes);

  // --- introspection / export --------------------------------------------

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return config_.num_nodes; }
  /// Slot for spans owned by no application process (ord service, ...).
  [[nodiscard]] std::uint32_t service_slot() const noexcept { return config_.num_nodes; }
  [[nodiscard]] std::size_t span_count() const noexcept { return count_; }
  /// Record by 1-based id (id in [1, span_count()]).
  [[nodiscard]] const SpanRecord& span(SpanId id) const;

  /// Ids of all spans of `node` that are still open, outermost first.
  [[nodiscard]] std::vector<SpanId> open_spans(std::uint32_t node) const;

  /// True iff the node has neither ring content nor open spans.
  [[nodiscard]] bool flight_empty(std::uint32_t node) const;

  /// Nodes (slots) with any flight-recorder content, ascending.
  [[nodiscard]] std::vector<std::uint32_t> involved_nodes() const;

  /// Human-readable excerpt: the last `limit` completed spans of `node`
  /// (oldest first) followed by its still-open spans.
  [[nodiscard]] std::string dump_flight(std::uint32_t node, std::size_t limit = 20) const;

  /// dump_flight() for every involved node, prefixed with a per-node
  /// header. Empty string when nothing was recorded.
  [[nodiscard]] std::string dump_all_flights(std::size_t limit = 20) const;

 private:
  /// Compact completed-span record retained by the flight recorder.
  struct FlightRecord {
    Time begin{0};
    Time end{0};
    Incarnation inc{0};
    std::uint64_t detail{0};
    SpanName name{SpanName::kRecovery};
    std::uint8_t flags{0};
  };

  /// Bounded ring of FlightRecords (capacity fixed at construction).
  struct FlightRing {
    std::vector<FlightRecord> slots;
    std::size_t next{0};    ///< insertion cursor
    std::size_t count{0};   ///< total pushes (>= slots.size() once wrapped)
  };

  /// Per-node open-span registry. The protocol's span tree is shallow and
  /// its shape is fixed, so explicit slots beat a generic stack: phases are
  /// sequential under the root, a led gather nests its incvector round.
  struct NodeState {
    Incarnation inc{0};
    SpanId recovery{kNoSpan};
    SpanId phase{kNoSpan};     ///< detect / restore / election / replay
    SpanId gather{kNoSpan};    ///< gather / regather (leader side)
    SpanId incvec{kNoSpan};    ///< incarnation round inside the gather
    bool regather_next{false}; ///< next round of this recovery is a regather
  };

  static constexpr std::size_t kChunkShift = 10;  // 1024 records per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  [[nodiscard]] SpanRecord& record(SpanId id);
  [[nodiscard]] std::uint32_t slot_of(ProcessId pid) const {
    return pid.value < config_.num_nodes ? pid.value : config_.num_nodes;
  }

  SpanId begin_span(Time now, SpanName name, std::uint32_t node, SpanId parent,
                    std::uint64_t detail = 0);
  void end_span(Time now, SpanId id, bool aborted = false);
  /// Arena append of an already-closed interval (net/storage spans).
  SpanId complete_span(Time begin, Time end, SpanName name, std::uint32_t node,
                       SpanId parent, std::uint64_t detail);

  /// Innermost open protocol span of `node` (parent for infra spans).
  [[nodiscard]] SpanId active_of(const NodeState& st) const;

  void push_flight(const SpanRecord& rec);
  void record_latency(const SpanRecord& rec);

  SpanTracerConfig config_;
  metrics::Registry& metrics_;
  std::vector<std::unique_ptr<SpanRecord[]>> chunks_;
  std::size_t count_{0};
  std::vector<NodeState> nodes_;   // num_nodes + 1 (service slot)
  std::vector<FlightRing> rings_;  // parallel to nodes_
  /// "span.<name>" handles resolved once; hot-path records are index math.
  std::array<metrics::Histogram*, kSpanNameCount> hist_{};
  std::array<metrics::Accumulator*, kSpanNameCount> accum_{};
};

[[nodiscard]] std::string to_string(const SpanRecord& rec);

}  // namespace rr::obs
