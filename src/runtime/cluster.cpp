#include "runtime/cluster.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "fbl/determinant.hpp"

namespace rr::runtime {

Cluster::Cluster(ClusterConfig config, const app::AppFactory& factory)
    : config_(config),
      sim_(config.seed),
      network_(sim_, config.net, metrics_),
      ord_(kOrdServiceId, network_, metrics_) {
  RR_CHECK_MSG(config_.num_processes >= 2, "need at least two processes");
  RR_CHECK_MSG(config_.num_processes <= fbl::kMaxProcesses,
               "holder masks support at most 1024 processes");
  RR_CHECK_MSG(config_.f >= 1 && config_.f <= config_.num_processes, "1 <= f <= n required");

  network_.attach(kOrdServiceId, ord_);
  // The ord service is infrastructure: its links never take the lossy
  // profile (partitions around an app process still cut them).
  network_.set_fault_exempt(kOrdServiceId);
  if (config_.enable_trace) trace_ = std::make_unique<trace::TraceLog>();
  if (config_.enable_spans) {
    obs::SpanTracerConfig sc;
    sc.num_nodes = config_.num_processes;
    sc.flight_capacity = config_.flight_capacity;
    tracer_ = std::make_unique<obs::SpanTracer>(sc, metrics_);
    network_.set_tracer(tracer_.get());
  }
  if (config_.enable_ledger) {
    obs::CostLedgerConfig lc;
    lc.num_nodes = config_.num_processes;
    lc.prune_piggyback = config_.prune_piggyback;
    lc.sample_every = config_.ledger_sample_every;
    ledger_ = std::make_unique<obs::CostLedger>(lc, metrics_);
    network_.set_ledger(ledger_.get());
    if (config_.ledger_sample_every > 0) {
      ledger_timer_ = std::make_unique<sim::RepeatingTimer>(
          sim_, config_.ledger_sample_every, [this] { sample_ledger_now(); });
      ledger_timer_->start();
    }
  }

  pids_.reserve(config_.num_processes);
  for (std::uint32_t i = 0; i < config_.num_processes; ++i) pids_.push_back(ProcessId{i});

  config_.recovery.algorithm = config_.algorithm;
  // Every phase firing (nodes and ord service alike) is recorded on the
  // trace and the span tracer, and forwarded to the settable probe.
  const trace::PhaseHook phase_hook = [this](const trace::PhaseEventInfo& info) {
    if (trace_) {
      trace_->record(sim_.now(), trace::PhaseEvent{info.pid, info.phase, info.round, info.ord,
                                                   info.subject});
    }
    if (tracer_) tracer_->on_phase(sim_.now(), info);
    if (phase_probe_) phase_probe_(info);
  };
  ord_.set_phase_hook(phase_hook);
  for (const ProcessId pid : pids_) {
    NodeConfig nc;
    nc.id = pid;
    nc.num_processes = config_.num_processes;
    nc.f = config_.f;
    nc.ord_service = kOrdServiceId;
    nc.prune_piggyback = config_.prune_piggyback;
    nc.recovery = config_.recovery;
    nc.detector = config_.detector;
    nc.storage = config_.storage;
    nc.transport = config_.transport;
    nc.checkpoint_period = config_.checkpoint_period;
    nc.supervisor_restart_delay = config_.supervisor_restart_delay;
    nc.replay_delivery_cost = config_.replay_delivery_cost;
    nc.det_flush_period = config_.det_flush_period;
    nc.trace = trace_.get();
    nc.tracer = tracer_.get();
    nc.phase_hook = phase_hook;
    nodes_.push_back(
        std::make_unique<Node>(sim_, network_, nc, factory(pid), pids_, metrics_));
  }
}

void Cluster::start() {
  for (auto& n : nodes_) n->start();
}

Node& Cluster::node(ProcessId id) {
  RR_CHECK(id.value < nodes_.size());
  return *nodes_[id.value];
}

void Cluster::crash_at(ProcessId id, Time t) {
  RR_CHECK(id.value < nodes_.size());
  sim_.schedule_at(t, [this, id] { nodes_[id.value]->crash(); });
}

bool Cluster::all_idle() const {
  return std::all_of(nodes_.begin(), nodes_.end(), [](const auto& n) {
    return n->alive() && n->started() && !n->recovering() && !n->delivery_blocked();
  });
}

bool Cluster::any_recovering() const {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [](const auto& n) { return !n->alive() || n->recovering(); });
}

Duration Cluster::total_blocked_time() const {
  Duration total = 0;
  for (const auto& n : nodes_) total += n->blocked_time();
  return total;
}

Duration Cluster::max_blocked_time() const {
  Duration best = 0;
  for (const auto& n : nodes_) best = std::max(best, n->blocked_time());
  return best;
}

std::vector<RecoveryTimeline> Cluster::all_recoveries() const {
  std::vector<RecoveryTimeline> out;
  for (const auto& n : nodes_) {
    out.insert(out.end(), n->recoveries().begin(), n->recoveries().end());
  }
  std::sort(out.begin(), out.end(), [](const RecoveryTimeline& a, const RecoveryTimeline& b) {
    return a.completed_at < b.completed_at;
  });
  return out;
}

std::uint64_t Cluster::state_hash() const {
  Hasher h;
  for (const auto& n : nodes_) {
    h.mix_u64(n->id().value);
    h.mix_u64(n->application().state_hash());
  }
  return h.digest();
}

trace::CheckResult Cluster::check_history() const {
  RR_CHECK_MSG(trace_ != nullptr, "enable_trace must be set to check history");
  // The V9 exactly-once pass only holds when protocol traffic rode the
  // reliable transport — on the bare fabric, dropped frames stay lost.
  trace::CheckResult result = trace::check_history(*trace_, 16, config_.transport.enabled);
  // V10 cost conservation rides along whenever the ledger is armed: the
  // wire-side attribution must partition net.bytes and agree per control
  // kind with the recovery layer's own counters.
  if (ledger_ != nullptr) {
    for (std::string& v : ledger_->audit(metrics_)) {
      result.ok = false;
      result.violations.push_back(std::move(v));
    }
  }
  return result;
}

void Cluster::sample_ledger_now() {
  RR_CHECK_MSG(ledger_ != nullptr, "enable_ledger must be set to sample");
  std::vector<std::uint64_t> blocked;
  blocked.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    blocked.push_back(static_cast<std::uint64_t>(n->blocked_time()));
  }
  ledger_->take_sample(sim_.now(), blocked);
}

std::uint64_t Cluster::total_app_delivered() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n->app_delivered();
  return total;
}

}  // namespace rr::runtime
