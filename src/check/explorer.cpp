#include "check/explorer.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "app/workloads.hpp"
#include "common/hash.hpp"
#include "common/serde.hpp"
#include "exec/work_steal.hpp"
#include "fbl/frame.hpp"
#include "net/reliable.hpp"
#include "obs/perfetto.hpp"
#include "runtime/cluster.hpp"

namespace rr::check {

namespace {

/// Compressed-timescale cluster for exploration — the same constants the
/// test suite's fast_cluster() uses, so a repro line reproduces identical
/// timing whether replayed here or re-created in a test. Kept independent
/// of tests/ because the explorer is a library, not a test.
runtime::ClusterConfig explorer_cluster(const FaultSchedule& s) {
  runtime::ClusterConfig cfg;
  cfg.num_processes = s.n;
  cfg.f = s.f;
  cfg.algorithm = s.algorithm;
  cfg.seed = s.seed;
  cfg.net.base_latency = microseconds(200);
  cfg.net.jitter_max = microseconds(40);
  cfg.storage.seek_latency = milliseconds(2);
  cfg.storage.bytes_per_second = 8.0 * 1024 * 1024;
  cfg.detector.heartbeat_period = milliseconds(250);
  cfg.detector.timeout = milliseconds(1000);
  cfg.supervisor_restart_delay = s.restart;
  cfg.checkpoint_period = seconds(2);
  cfg.replay_delivery_cost = microseconds(10);
  cfg.recovery.progress_period = milliseconds(200);
  cfg.recovery.phase_timeout = milliseconds(2500);
  cfg.recovery.gather_arity = s.arity;
  cfg.recovery.bug_skip_gather_restart = s.seeded_bug;
  cfg.enable_trace = true;  // the checker needs the full structured history
  cfg.enable_spans = true;  // failure reports carry a flight-recorder dump
  // Every explored schedule arms the V10 cost-conservation oracle. The
  // timeline sampler stays off (sample_every = 0): the byte ledger adds no
  // sim events, so --replay lines recorded before it existed stay valid.
  cfg.enable_ledger = true;
  if (s.needs_reliable()) {
    // Lossy/partitioned schedules run over the reliable transport, retuned
    // to the compressed timescale: escalation to peer-unreachable lands at
    // roughly the failure-detector timeout (~1.1 s of backoff vs 1 s).
    cfg.transport.enabled = true;
    cfg.transport.rto_initial = milliseconds(20);
    cfg.transport.rto_max = milliseconds(500);
    cfg.transport.rto_jitter = milliseconds(2);
    cfg.transport.max_retries = 6;
    cfg.transport.probe_period = milliseconds(200);
  }
  return cfg;
}

app::AppFactory explorer_workload(const FaultSchedule& s) {
  // tokens=0 (every schedule line written before the key existed) keeps the
  // historical one-token-per-process workload bit-for-bit.
  const std::uint32_t seeded = s.tokens;
  return [seeded](ProcessId pid) {
    app::GossipConfig cfg;
    cfg.tokens_per_process = (seeded == 0 || pid.value < seeded) ? 1 : 0;
    cfg.payload_pad = 32;
    cfg.seed = 100 + pid.value;
    return std::make_unique<app::GossipApp>(cfg);
  };
}

/// True iff the packet carries an application frame. With the reliable
/// transport enabled, protocol frames travel behind its data header —
/// injections that target *application* frames must look through it, or
/// their coordinates would silently stop matching on lossy schedules.
bool is_app_frame(const Bytes& payload) {
  const auto frame = net::ReliableTransport::unwrap(payload).frame;
  return !frame.empty() &&
         std::to_integer<std::uint8_t>(frame[0]) ==
             static_cast<std::uint8_t>(fbl::FrameKind::kApp);
}

/// Stateless loss draw for `loss:` coordinates: a pure function of the
/// schedule seed and the send's channel coordinate, so the verdict is
/// bit-identical across --jobs values and re-runs.
bool loss_draw(std::uint64_t seed, ProcessId src, ProcessId dst, std::uint64_t chan_index,
               std::uint64_t ppm) {
  Hasher h;
  h.mix_u64(0x73636865646c6f73ULL);  // domain tag: "schedlos"
  h.mix_u64(seed);
  h.mix_u64((static_cast<std::uint64_t>(src.value) << 32) | dst.value);
  h.mix_u64(chan_index);
  return h.digest() % 1'000'000 < ppm;
}

/// Injections that name processes outside the cluster are ignored (this is
/// what lets the shrinker reduce n without first rewriting the schedule).
bool in_cluster(const Injection& inj, std::uint32_t n) {
  switch (inj.kind) {
    case Injection::Kind::kCrashAt:
      return inj.victim.value < n;
    case Injection::Kind::kPhaseCrash:
      return inj.victim == Injection::kFirer || inj.victim.value < n;
    case Injection::Kind::kDrop:
    case Injection::Kind::kDelay:
    case Injection::Kind::kStale:
    case Injection::Kind::kLoss:
    case Injection::Kind::kLossBurst:
    case Injection::Kind::kDup:
      return inj.src.value < n && inj.dst.value < n;
    case Injection::Kind::kStall:
    case Injection::Kind::kPartition:
    case Injection::Kind::kFlap:
      return inj.victim.value < n;
    case Injection::Kind::kTreeCrash:
      // Participant index must be resolvable in *some* gather (at most n-1
      // participants); whether the firing round has that many is checked at
      // resolution time.
      return inj.index + 1 < n;
  }
  return false;
}

}  // namespace

std::string RunOutcome::brief() const {
  if (!terminated) return "did not terminate (wedged recovery or livelock)";
  if (!check.ok) return check.violations.empty() ? "checker failed" : check.violations.front();
  return "ok";
}

RunOutcome ScheduleExplorer::run(const FaultSchedule& schedule, RunCapture* capture) {
  runtime::Cluster cluster(explorer_cluster(schedule), explorer_workload(schedule));

  struct HookState {
    const FaultSchedule* schedule;
    runtime::Cluster* cluster;
    std::uint64_t phase_events{0};
    std::uint64_t applied{0};
    /// Global occurrence count per PhaseId (indexable, values 1..9).
    std::array<std::uint32_t, 16> phase_count{};
    std::vector<bool> fired;  // one per injection: phase crash already placed
  };
  HookState st;
  st.schedule = &schedule;
  st.cluster = &cluster;
  st.fired.assign(schedule.injections.size(), false);

  cluster.set_phase_probe([&st](const trace::PhaseEventInfo& info) {
    ++st.phase_events;
    const auto slot = static_cast<std::size_t>(info.phase);
    if (slot < st.phase_count.size()) ++st.phase_count[slot];
    const std::uint32_t occurrence = st.phase_count[slot];
    const auto& sched = *st.schedule;
    for (std::size_t i = 0; i < sched.injections.size(); ++i) {
      const Injection& inj = sched.injections[i];
      if (st.fired[i] || !in_cluster(inj, sched.n)) continue;
      if (inj.kind == Injection::Kind::kPhaseCrash) {
        if (inj.phase != info.phase || inj.occurrence != occurrence) continue;
        const ProcessId victim = inj.victim == Injection::kFirer ? info.pid : inj.victim;
        if (victim.value >= sched.n) continue;
        st.fired[i] = true;
        ++st.applied;
        // schedule_at(now + delay): never re-enters the protocol state
        // machine synchronously, even with delay == 0.
        st.cluster->crash_at(victim, st.cluster->sim().now() + inj.delay);
      } else if (inj.kind == Injection::Kind::kTreeCrash) {
        if (info.phase != trace::PhaseId::kGatherStarted) continue;
        if (inj.occurrence != occurrence) continue;
        // Resolve the tree position against this round's participant set:
        // every non-recovering pid in ascending order — the same sorted
        // (all − R) both the leader and the relays compute, so index i
        // here is exactly tree slot i+1 (the leader holds slot 0).
        // Crashed-but-unregistered processes are still participants.
        std::vector<ProcessId> participants;
        for (std::uint32_t p = 0; p < sched.n; ++p) {
          const ProcessId pid{p};
          if (st.cluster->node(pid).recovering()) continue;
          participants.push_back(pid);
        }
        if (inj.index >= participants.size()) continue;  // unresolvable this round
        st.fired[i] = true;
        ++st.applied;
        st.cluster->crash_at(participants[inj.index],
                             st.cluster->sim().now() + inj.delay);
      }
    }
  });

  cluster.network().set_fault_hook(
      [&st](ProcessId src, ProcessId dst, const Bytes& payload,
            std::uint64_t chan_index) -> net::FaultDecision {
        net::FaultDecision decision;
        const auto& sched = *st.schedule;
        for (const Injection& inj : sched.injections) {
          if (!in_cluster(inj, sched.n) || inj.src != src || inj.dst != dst) continue;
          switch (inj.kind) {
            case Injection::Kind::kDrop:
              // Only application frames: heartbeats and recovery control
              // are the protocol's own liveness machinery, and the paper's
              // transport is reliable — drops model lost *payload*.
              if (chan_index >= inj.index && chan_index < inj.index + inj.count &&
                  is_app_frame(payload)) {
                decision.drop = true;
                ++st.applied;
              }
              break;
            case Injection::Kind::kDelay:
              if (chan_index >= inj.index && chan_index < inj.index + inj.count) {
                decision.extra_delay += inj.delay;
                ++st.applied;
              }
              break;
            case Injection::Kind::kStale:
              // Duplicate this app frame out of band: the copy arrives
              // after `delay`, typically after its sender has crashed and
              // recovered — exactly the straggler incvectors must reject.
              // The *inner* frame is injected, stripped of any reliable-
              // transport header: the straggler models a late network
              // duplicate the transport no longer remembers, and must reach
              // the protocol layer rather than die in sequence dedup.
              if (chan_index == inj.index && is_app_frame(payload)) {
                st.cluster->network().inject(
                    src, dst,
                    BufferPool::global().copy_of(
                        net::ReliableTransport::unwrap(payload).frame),
                    inj.delay);
                ++st.applied;
              }
              break;
            case Injection::Kind::kLoss:
              // Probabilistic link loss, every frame kind — the reliable
              // transport (auto-enabled for this schedule) must recover.
              if (loss_draw(sched.seed, src, dst, chan_index, inj.index)) {
                decision.drop = true;
                ++st.applied;
              }
              break;
            case Injection::Kind::kLossBurst:
              // A dead interval: sends i..i+c-1 all die, any frame kind.
              if (chan_index >= inj.index && chan_index < inj.index + inj.count) {
                decision.drop = true;
                ++st.applied;
              }
              break;
            case Injection::Kind::kDup:
              // In-band duplicate: the copy carries the same transport
              // header, so receive-side dedup must suppress it (counted in
              // net.dup_suppressed; V9 fails if it reaches the app twice).
              if (chan_index >= inj.index && chan_index < inj.index + inj.count) {
                st.cluster->network().inject(src, dst,
                                             BufferPool::global().copy_of(payload),
                                             milliseconds(1));
                ++st.applied;
              }
              break;
            default:
              break;
          }
        }
        return decision;
      });

  // Storage-fault coordinates: each victim's stable-storage device gets a
  // hook mapping its device-wide op index onto the schedule's stall
  // windows. The device (and its op counter) survives crashes — storage is
  // stable by definition — so the coordinate is stable across re-runs.
  for (std::uint32_t pid = 0; pid < schedule.n; ++pid) {
    bool stalls_this_pid = false;
    for (const Injection& inj : schedule.injections) {
      if (inj.kind == Injection::Kind::kStall && inj.victim.value == pid) {
        stalls_this_pid = true;
        break;
      }
    }
    if (!stalls_this_pid) continue;
    cluster.node(pid).stable_storage().set_fault_hook(
        [&st, pid](std::uint64_t op_index) -> Duration {
          Duration extra = kDurationZero;
          for (const Injection& inj : st.schedule->injections) {
            if (inj.kind != Injection::Kind::kStall || inj.victim.value != pid) continue;
            if (op_index >= inj.index && op_index < inj.index + inj.count) {
              extra += inj.delay;
              ++st.applied;
            }
          }
          return extra;
        });
  }

  cluster.start();
  for (const Injection& inj : schedule.injections) {
    if (!in_cluster(inj, schedule.n)) continue;
    if (inj.kind == Injection::Kind::kCrashAt) {
      cluster.crash_at(inj.victim, inj.at);
      ++st.applied;
    } else if (inj.kind == Injection::Kind::kPartition ||
               inj.kind == Injection::Kind::kFlap) {
      // Partition windows are virtual-time driven: [at, at+delay) isolated,
      // repeated count times for flaps with a healed window of the same
      // length between cycles. Each toggle counts as one applied injection.
      const std::uint32_t cycles = inj.kind == Injection::Kind::kFlap ? inj.count : 1;
      const ProcessId victim = inj.victim;
      for (std::uint32_t k = 0; k < cycles; ++k) {
        const Time down_at = inj.at + static_cast<Duration>(2 * k) * inj.delay;
        cluster.sim().schedule_at(down_at, [&st, victim] {
          st.cluster->network().set_partitioned(victim, true);
          ++st.applied;
        });
        cluster.sim().schedule_at(down_at + inj.delay, [&st, victim] {
          st.cluster->network().set_partitioned(victim, false);
          ++st.applied;
        });
      }
    }
  }

  cluster.run_until(schedule.horizon);
  while (!cluster.all_idle() && cluster.sim().now() < schedule.idle_deadline) {
    cluster.run_for(milliseconds(250));
  }

  RunOutcome outcome;
  outcome.terminated = cluster.all_idle();
  outcome.check = cluster.check_history();
  if (schedule.needs_reliable() && outcome.terminated) {
    // V9, transport layer: for every channel whose endpoints agree on the
    // (epoch, stream) coordinate and whose receiver accepted the stream
    // from its first frame (baseline 0 — the exactly-once domain), every
    // message the sender saw acked must have been delivered. The history
    // checker's V9 pass covers the no-duplicate half per delivery record.
    for (const ProcessId s : cluster.pids()) {
      for (const ProcessId d : cluster.pids()) {
        if (s == d) continue;
        const auto sa = cluster.node(s).transport().send_audit(d);
        const auto ra = cluster.node(d).transport().recv_audit(s);
        if (!sa.exists || !ra.exists) continue;
        if (sa.epoch != ra.epoch || sa.stream != ra.stream) continue;
        if (ra.baseline_or_outstanding != 0) continue;  // resynced mid-stream
        if (ra.progress < sa.progress) {
          outcome.check.ok = false;
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "V9: transport audit: %u->%u acked %llu but delivered %llu",
                        s.value, d.value, static_cast<unsigned long long>(sa.progress),
                        static_cast<unsigned long long>(ra.progress));
          outcome.check.violations.emplace_back(buf);
        }
      }
    }
  }
  outcome.finished_at = cluster.sim().now();
  outcome.phase_events = st.phase_events;
  outcome.phase_count = st.phase_count;
  outcome.injections_applied = st.applied;
  outcome.recoveries = cluster.all_recoveries().size();
  outcome.gather_restarts = cluster.metrics().counter_value("recovery.gather_restarts");
  outcome.state_hash = cluster.state_hash();
  if (const obs::CostLedger* ledger = cluster.ledger()) {
    for (std::size_t i = 0; i < obs::kCostCategoryCount; ++i) {
      outcome.ledger_bytes[i] = ledger->bytes(static_cast<obs::CostCategory>(i));
      outcome.ledger_frames[i] = ledger->frames(static_cast<obs::CostCategory>(i));
    }
  }
  outcome.flight_dump = cluster.spans()->dump_all_flights();
  if (capture != nullptr && capture->want_trace_json) {
    capture->trace_json = obs::export_trace_event_json(*cluster.spans(), cluster.ledger());
  }
  if (capture != nullptr && capture->want_metrics_json) {
    capture->metrics_json = obs::export_metrics_json(cluster.metrics(), cluster.ledger());
  }
  return outcome;
}

namespace {

constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);

/// Index of the first candidate (in the given fixed order) that still
/// fails, spending the budget exactly as a serial greedy would: one run
/// per candidate consulted, stopping at the first failure. With jobs > 1
/// every candidate the budget could reach is evaluated speculatively in
/// parallel — ScheduleExplorer::run() is a pure function of the schedule,
/// so the verdicts are the same — but the budget is charged only for the
/// serial prefix. The shrink trajectory, including where the budget runs
/// out, is therefore bit-identical for every `jobs` value; speculative
/// runs past the first failure are simply wasted wall-clock the extra
/// cores paid for.
std::size_t first_failing(const std::vector<FaultSchedule>& candidates,
                          std::uint32_t& budget, unsigned jobs) {
  if (candidates.empty() || budget == 0) return kNoCandidate;
  const std::size_t limit = std::min<std::size_t>(candidates.size(), budget);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < limit; ++i) {
      --budget;
      if (!ScheduleExplorer::run(candidates[i]).ok()) return i;
    }
    return kNoCandidate;
  }
  std::vector<char> fails(limit, 0);
  exec::parallel_for(jobs, limit, [&](std::size_t i) {
    fails[i] = ScheduleExplorer::run(candidates[i]).ok() ? 0 : 1;
  });
  for (std::size_t i = 0; i < limit; ++i) {
    --budget;
    if (fails[i] != 0) return i;
  }
  return kNoCandidate;
}

}  // namespace

FaultSchedule ScheduleExplorer::shrink(const FaultSchedule& schedule, std::uint32_t budget,
                                       unsigned jobs) {
  if (jobs == 0) jobs = exec::default_jobs();
  FaultSchedule best = schedule;

  // 1. Drop injections, to a fixpoint: every removal candidate of the
  //    current best forms one speculative batch; the first (lowest-index)
  //    removal that still fails is committed and the batch is rebuilt.
  //    At the fixpoint each surviving injection is individually necessary.
  while (budget > 0 && !best.injections.empty()) {
    std::vector<FaultSchedule> candidates;
    candidates.reserve(best.injections.size());
    for (std::size_t i = 0; i < best.injections.size(); ++i) {
      FaultSchedule candidate = best;
      candidate.injections.erase(candidate.injections.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      candidates.push_back(std::move(candidate));
    }
    const std::size_t hit = first_failing(candidates, budget, jobs);
    if (hit == kNoCandidate) break;
    best = std::move(candidates[hit]);
  }

  // 2. Simplify the survivors: zero (else halve) delays, single-index
  //    fault windows. Each decision is a tiny ordered batch — [zeroed,
  //    halved] — consulted serially, speculated in parallel.
  for (std::size_t i = 0; i < best.injections.size() && budget > 0; ++i) {
    if (best.injections[i].delay > 0) {
      std::vector<FaultSchedule> candidates(2, best);
      candidates[0].injections[i].delay = 0;
      candidates[1].injections[i].delay /= 2;
      const std::size_t hit = first_failing(candidates, budget, jobs);
      if (hit != kNoCandidate) best = std::move(candidates[hit]);
    }
    if (best.injections[i].count > 1 && budget > 0) {
      std::vector<FaultSchedule> candidates(1, best);
      candidates[0].injections[i].count = 1;
      const std::size_t hit = first_failing(candidates, budget, jobs);
      if (hit != kNoCandidate) best = std::move(candidates[hit]);
    }
  }

  // 3. Shrink the cluster. Out-of-cluster injections are ignored by run(),
  //    so the candidate filters them out explicitly to keep the repro tidy.
  while (best.n > best.f + 2 && budget > 0) {
    FaultSchedule candidate = best;
    candidate.n = std::max(best.f + 2, best.n / 2);
    std::erase_if(candidate.injections,
                  [&](const Injection& inj) { return !in_cluster(inj, candidate.n); });
    if (candidate.n == best.n || candidate.injections.empty()) break;
    std::vector<FaultSchedule> candidates{std::move(candidate)};
    const std::size_t hit = first_failing(candidates, budget, jobs);
    if (hit == kNoCandidate) break;
    best = std::move(candidates[hit]);
  }

  return best;
}

std::vector<FaultSchedule> ScheduleExplorer::matrix(const ExploreOptions& options) {
  struct Cell {
    std::uint32_t n, f;
  };
  auto crash = [](std::uint32_t pid, Time at) {
    Injection inj;
    inj.kind = Injection::Kind::kCrashAt;
    inj.victim = ProcessId{pid};
    inj.at = at;
    return inj;
  };
  auto pcrash = [](trace::PhaseId phase, std::uint32_t k, Duration delay = kDurationZero) {
    Injection inj;
    inj.kind = Injection::Kind::kPhaseCrash;
    inj.victim = Injection::kFirer;
    inj.phase = phase;
    inj.occurrence = k;
    inj.delay = delay;
    return inj;
  };
  auto chan = [](Injection::Kind kind, std::uint32_t src, std::uint32_t dst,
                 std::uint64_t index, std::uint32_t count, Duration delay) {
    Injection inj;
    inj.kind = kind;
    inj.src = ProcessId{src};
    inj.dst = ProcessId{dst};
    inj.index = index;
    inj.count = count;
    inj.delay = delay;
    return inj;
  };
  auto sstall = [](std::uint32_t pid, std::uint64_t index, std::uint32_t count,
                   Duration delay) {
    Injection inj;
    inj.kind = Injection::Kind::kStall;
    inj.victim = ProcessId{pid};
    inj.index = index;
    inj.count = count;
    inj.delay = delay;
    return inj;
  };
  auto loss = [](std::uint32_t src, std::uint32_t dst, std::uint64_t ppm) {
    Injection inj;
    inj.kind = Injection::Kind::kLoss;
    inj.src = ProcessId{src};
    inj.dst = ProcessId{dst};
    inj.index = ppm;
    return inj;
  };
  auto window = [](Injection::Kind kind, std::uint32_t src, std::uint32_t dst,
                   std::uint64_t index, std::uint32_t count) {
    Injection inj;
    inj.kind = kind;  // kLossBurst or kDup
    inj.src = ProcessId{src};
    inj.dst = ProcessId{dst};
    inj.index = index;
    inj.count = count;
    return inj;
  };
  auto partition = [](std::uint32_t pid, Time at, Duration width) {
    Injection inj;
    inj.kind = Injection::Kind::kPartition;
    inj.victim = ProcessId{pid};
    inj.at = at;
    inj.delay = width;
    return inj;
  };
  auto flap = [](std::uint32_t pid, Time at, Duration width, std::uint32_t cycles) {
    Injection inj;
    inj.kind = Injection::Kind::kFlap;
    inj.victim = ProcessId{pid};
    inj.at = at;
    inj.delay = width;
    inj.count = cycles;
    return inj;
  };
  auto treecrash = [](std::uint64_t index, std::uint32_t k, Duration delay = kDurationZero) {
    Injection inj;
    inj.kind = Injection::Kind::kTreeCrash;
    inj.index = index;
    inj.occurrence = k;
    inj.delay = delay;
    return inj;
  };

  std::vector<FaultSchedule> out;
  const std::uint64_t seeds = options.seeds_per_cell == 0 ? 1 : options.seeds_per_cell;

  if (options.seed_bug) {
    // Concentrate on concurrent failures: the seeded bug skips the gather
    // restart, which only matters when a second process fails while a
    // round is in flight.
    const Cell cells[] = {{4, 2}, {8, 2}};
    for (const Cell cell : cells) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const std::uint32_t a = static_cast<std::uint32_t>(seed % cell.n);
        const std::uint32_t b = (a + 1) % cell.n;
        for (int variant = 0; variant < 2; ++variant) {
          FaultSchedule s;
          s.n = cell.n;
          s.f = cell.f;
          s.seed = seed;
          s.seeded_bug = true;
          s.injections = {crash(a, seconds(2)), crash(b, milliseconds(2300))};
          if (variant == 1) {
            s.injections.push_back(pcrash(trace::PhaseId::kGatherStarted, 1));
          }
          out.push_back(std::move(s));
          if (options.max_runs != 0 && out.size() >= options.max_runs) return out;
        }
      }
    }
    return out;
  }

  // The sweep grid. Every variant family below applies to each (cell, seed)
  // coordinate it is legal for (correlated crashes need f >= victims), so
  // the matrix is cells × seeds × applicable variants: 306 variant rows
  // across these six cells at 64 seeds each = 19584 schedules.
  const Cell cells[] = {{4, 1}, {6, 1}, {4, 2}, {6, 2}, {8, 2}, {8, 3}};
  for (const Cell cell : cells) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const std::uint32_t a = static_cast<std::uint32_t>(seed % cell.n);
      const std::uint32_t b = (a + 1) % cell.n;
      const std::uint32_t c = (a + 2) % cell.n;

      std::vector<FaultSchedule> variants;
      // emit(): one variant with the default restart; emit_failover(): the
      // restart delay stretched past the detector timeout, so the crashed
      // process stays silent long enough to be suspected and next-ordinal
      // failover becomes reachable.
      auto emit = [&](std::vector<Injection> injections) {
        FaultSchedule s;
        s.n = cell.n;
        s.f = cell.f;
        s.seed = seed;
        s.injections = std::move(injections);
        variants.push_back(std::move(s));
      };
      auto emit_failover = [&](std::vector<Injection> injections) {
        emit(std::move(injections));
        variants.back().restart = milliseconds(2500);
      };

      // --- the original eleven (one crash, phase re-crashes, packet noise)
      emit({crash(a, seconds(2))});
      emit({crash(a, seconds(2)), pcrash(trace::PhaseId::kLeaderElected, 1)});
      emit({crash(a, seconds(2)), pcrash(trace::PhaseId::kGatherStarted, 1)});
      emit({crash(a, seconds(2)), pcrash(trace::PhaseId::kIncVectorBuilt, 1)});
      emit({crash(a, seconds(2)), pcrash(trace::PhaseId::kDepinfoCollected, 1)});
      emit({crash(a, seconds(2)), pcrash(trace::PhaseId::kReplayStarted, 1)});
      if (cell.f >= 2) {  // leader failure during a concurrent round
        emit({crash(a, seconds(2)), crash(b, milliseconds(2300)),
              pcrash(trace::PhaseId::kGatherStarted, 1)});
      } else {  // sequential re-crash after full recovery
        emit({crash(a, seconds(2)), crash(a, seconds(5))});
      }
      emit({crash(a, seconds(2)), chan(Injection::Kind::kDrop, b, c, 2, 3, 0),
            chan(Injection::Kind::kDrop, c, b, 1, 2, 0)});
      emit({crash(a, seconds(2)),
            chan(Injection::Kind::kDelay, b, c, 1, 3, milliseconds(400))});
      emit({crash(a, seconds(2)), chan(Injection::Kind::kStale, a, b, 1, 1, seconds(3))});
      emit({chan(Injection::Kind::kDrop, b, c, 3, 2, 0),
            chan(Injection::Kind::kDelay, c, a, 2, 2, milliseconds(300)),
            chan(Injection::Kind::kStale, b, c, 0, 1, milliseconds(2500))});

      // --- delayed phase crashes: the victim dies shortly *after* the
      // phase boundary, mid-flight inside the follow-on work.
      for (const trace::PhaseId phase :
           {trace::PhaseId::kGatherStarted, trace::PhaseId::kReplayStarted}) {
        for (const Duration d : {milliseconds(10), milliseconds(100)}) {
          emit({crash(a, seconds(2)), pcrash(phase, 1, d)});
        }
      }

      // --- cascading leader failovers: kill the leader at each successive
      // occurrence of the phase, so leadership hops ordinals repeatedly.
      for (const trace::PhaseId phase :
           {trace::PhaseId::kLeaderElected, trace::PhaseId::kGatherStarted}) {
        for (const std::uint32_t depth : {2u, 3u}) {
          std::vector<Injection> cascade{crash(a, seconds(2))};
          for (std::uint32_t k = 1; k <= depth; ++k) cascade.push_back(pcrash(phase, k));
          emit_failover(std::move(cascade));
        }
      }

      // --- storage faults: mechanical stalls on the stable-storage device
      // (retried seeks / remapped blocks), addressed by device op index.
      emit({crash(a, seconds(2)), sstall(a, 0, 4, milliseconds(200))});
      emit({sstall(b, 2, 4, milliseconds(100))});
      emit({crash(a, seconds(2)), sstall(a, 1, 1, milliseconds(1500))});
      emit({sstall(a, 0, 8, milliseconds(50)), sstall(b, 0, 8, milliseconds(50))});

      // --- crash + noise combos
      emit({crash(a, seconds(2)), chan(Injection::Kind::kDrop, b, c, 2, 3, 0),
            chan(Injection::Kind::kStale, a, b, 1, 1, seconds(3))});
      emit({crash(a, seconds(2)),
            chan(Injection::Kind::kDelay, b, c, 1, 2, milliseconds(300)),
            sstall(a, 1, 2, milliseconds(150))});

      if (cell.f >= 2) {
        // --- correlated multi-node crashes: a rack/power-domain failure
        // takes two processes down together (or nearly so).
        for (const Duration gap : {kDurationZero, milliseconds(20), milliseconds(150)}) {
          emit({crash(a, seconds(2)), crash(b, seconds(2) + gap)});
        }
        // --- correlated crash meeting a stalled disk: the recovering pair
        // contends for a degraded device.
        emit({crash(a, seconds(2)), crash(b, milliseconds(2300)),
              sstall(a, 0, 4, milliseconds(200))});
        emit({crash(a, seconds(2)), crash(b, seconds(2)),
              sstall(b, 0, 3, milliseconds(300))});
        // --- correlated crash under packet noise
        emit({crash(a, seconds(2)), crash(b, milliseconds(2020)),
              chan(Injection::Kind::kDrop, c, a, 1, 2, 0)});
        emit({crash(a, seconds(2)), crash(b, milliseconds(2020)),
              chan(Injection::Kind::kStale, b, c, 1, 1, seconds(3))});
      }
      if (cell.f >= 3) {
        // --- triple correlated crash (needs f >= 3 concurrent tolerance)
        emit({crash(a, seconds(2)), crash(b, seconds(2)), crash(c, seconds(2))});
        emit({crash(a, seconds(2)), crash(b, milliseconds(2050)),
              crash(c, milliseconds(2100))});
      }

      // --- unreliable fabric (appended after the perfect-fabric families
      // so the canonical matrix prefix — and every repro line derived from
      // it — survives the growth). All of these auto-enable the reliable
      // transport; V1–V8 must still hold, and V9 checks exactly-once
      // delivery under retransmission. Partition windows are sized to heal
      // well inside the idle deadline — recovery stalls, then completes.
      emit({crash(a, seconds(2)), loss(b, c, 100000)});  // 10% bystander loss
      emit({crash(a, seconds(2)), loss(b, a, 200000)});  // lossy road to the victim
      emit({loss(a, b, 100000), loss(b, a, 100000)});    // symmetric loss, no crash
      emit({crash(a, seconds(2)), window(Injection::Kind::kLossBurst, b, c, 2, 5)});
      emit({window(Injection::Kind::kLossBurst, b, c, 1, 8)});
      emit({crash(a, seconds(2)), window(Injection::Kind::kDup, b, c, 1, 6)});
      emit({window(Injection::Kind::kDup, b, c, 0, 10),
            window(Injection::Kind::kDup, c, b, 2, 4)});
      emit({partition(b, seconds(1), milliseconds(1500))});  // clean partition + heal
      emit({crash(a, seconds(2)), partition(b, milliseconds(2200), milliseconds(1500))});
      emit({crash(a, seconds(2)), flap(b, milliseconds(1500), milliseconds(400), 3)});
      emit({crash(a, seconds(2)), loss(b, c, 100000),
            partition(c, milliseconds(2500), seconds(1))});
      if (cell.f >= 2) {
        // --- correlated crash while a third link is lossy
        emit({crash(a, seconds(2)), crash(b, milliseconds(2020)), loss(c, a, 100000)});
      }

      // --- gather-tree (scale) family, appended after the unreliable
      // fabric so the canonical matrix prefix survives the growth. The
      // same recoveries routed through a k-ary gather tree instead of the
      // flat broadcast+collect: interior relays must aggregate, and a
      // relay crash mid-gather must re-parent its subtree (or force a
      // round restart) without breaking V1–V8.
      for (const std::uint32_t arity : {2u, 3u}) {
        auto emit_tree = [&](std::vector<Injection> injections) {
          emit(std::move(injections));
          variants.back().arity = arity;
        };
        // Plain recovery through the tree (relay aggregation only).
        emit_tree({crash(a, seconds(2))});
        // The leader itself dies with the tree armed: failover must
        // rebuild the tree from the new leader.
        emit_tree({crash(a, seconds(2)), pcrash(trace::PhaseId::kGatherStarted, 1)});
        if (cell.f >= 2) {
          // A relay crash is a second overlapping failure: the victim is
          // still recovering when the relay dies, and with pruning a
          // determinant stops circulating at exactly f+1 holders — so at
          // f = 1 this pair may legitimately lose determinants (same
          // budget rule as the correlated-crash family above).
          // First tree slot — an interior relay wherever n allows one —
          // dies mid-gather: subtree re-parent or restart.
          emit_tree({crash(a, seconds(2)), treecrash(0, 1)});
          // A deeper slot (a leaf at these n), shortly after the gather
          // starts, so the reply may already be in flight.
          emit_tree({crash(a, seconds(2)), treecrash(2, 1, milliseconds(10))});
        }
        if (cell.f >= 3) {
          // Concurrent recovery plus a relay crash in the same round:
          // three overlapping failures.
          emit_tree({crash(a, seconds(2)), crash(b, milliseconds(2300)), treecrash(0, 1)});
        }
      }

      for (FaultSchedule& s : variants) {
        if (options.unreliable_only && !s.needs_reliable()) continue;
        if (options.scale_only && s.arity == 0) continue;
        out.push_back(std::move(s));
        if (options.max_runs != 0 && out.size() >= options.max_runs) return out;
      }
    }
  }
  return out;
}

ExploreResult ScheduleExplorer::explore(const ExploreOptions& options) {
  const std::vector<FaultSchedule> schedules = matrix(options);
  const unsigned jobs = options.jobs == 0 ? exec::default_jobs() : options.jobs;

  ExploreResult result;
  // Single consumer: whatever thread a run executed on, its outcome is
  // accounted here in canonical matrix order, so run counts, injection
  // totals, on_run callbacks and first-failure selection are bit-identical
  // to a serial sweep. Returns false once the sweep should stop.
  auto consume = [&](const FaultSchedule& schedule, const RunOutcome& outcome) {
    ++result.runs;
    result.injections_applied += outcome.injections_applied;
    if (options.on_run) options.on_run(schedule, outcome);
    if (!outcome.ok()) {
      ++result.failures;
      if (result.failures == 1) {
        result.first_failure = schedule;
        result.first_outcome = outcome;
      }
      if (options.stop_on_failure) return false;
    }
    return true;
  };

  if (jobs <= 1 || schedules.size() <= 1) {
    for (const FaultSchedule& schedule : schedules) {
      if (!consume(schedule, run(schedule))) break;
    }
  } else {
    // Work-stealing sweep: one slot per schedule index, filled by whichever
    // worker drew the index; this thread drains slots in canonical order.
    // On early stop the pool is cancelled — results already computed past
    // the stop point are simply discarded (each run is pure, so discarding
    // cannot change any consumed outcome).
    struct Slot {
      RunOutcome outcome;
      bool ready{false};
    };
    std::vector<Slot> slots(schedules.size());
    std::mutex mu;
    std::condition_variable cv;
    exec::WorkStealingPool pool(jobs);
    pool.run(schedules.size(), [&](std::size_t i) {
      RunOutcome outcome = run(schedules[i]);
      {
        std::lock_guard<std::mutex> lock(mu);
        slots[i].outcome = std::move(outcome);
        slots[i].ready = true;
      }
      cv.notify_all();
    });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      RunOutcome outcome;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return slots[i].ready; });
        outcome = std::move(slots[i].outcome);
      }
      if (!consume(schedules[i], outcome)) {
        pool.cancel();
        break;
      }
    }
    pool.join();
  }

  if (result.failures > 0) {
    result.shrunk = shrink(result.first_failure, options.shrink_budget, jobs);
    result.shrunk_outcome = run(result.shrunk);
    result.replay = result.shrunk.replay_line();
  }
  return result;
}

}  // namespace rr::check
