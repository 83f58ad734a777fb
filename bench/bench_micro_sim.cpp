// M2 — simulation-kernel microbenchmarks (google-benchmark).
//
// Event throughput bounds how much virtual time the experiment harness can
// cover per wall-clock second; these benchmarks keep the kernel honest.
#include <benchmark/benchmark.h>

#include <vector>

#include "fbl/determinant_log.hpp"
#include "fbl/engine.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace rr;

void BM_ScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_after(i, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1024)->Arg(65536);

void BM_CancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    const int n = static_cast<int>(state.range(0));
    ids.reserve(n);
    for (int i = 0; i < n; ++i) ids.push_back(sim.schedule_after(i + 1, [] {}));
    for (int i = 0; i < n; i += 2) sim.cancel(ids[i]);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CancelHeavy)->Arg(65536);

void BM_EnginePerMessage(benchmark::State& state) {
  // One sender/receiver pair exchanging messages with full logging: the
  // per-message protocol cost outside the simulator.
  fbl::LoggingEngine tx(fbl::EngineConfig{ProcessId{0}, 8, 2});
  fbl::LoggingEngine rx(fbl::EngineConfig{ProcessId{1}, 8, 2});
  const fbl::IncVector incs;
  Bytes payload(128);
  for (auto _ : state) {
    auto out = tx.make_frame(ProcessId{1}, payload, 1);
    BufReader r(out.frame);
    (void)fbl::decode_kind(r);
    const auto frame = fbl::AppFrame::decode(r);
    benchmark::DoNotOptimize(rx.accept(ProcessId{0}, frame, incs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnginePerMessage);

void BM_EngineMesh(benchmark::State& state) {
  // n engines (f = 3) in a fixed round-robin: engine k sends to each peer
  // in turn, and every frame is decoded and accepted at once. A pair of
  // engines cannot show what grows with n; here each determinant fans out
  // to up to n-1 destinations, so the per-destination piggyback cost does.
  // Every engine checkpoints once per round of n*(n-1) sends, so the logs
  // stay bounded like a running cluster's.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<fbl::LoggingEngine> engines;
  engines.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    engines.emplace_back(fbl::EngineConfig{ProcessId{i}, n, 3});
  }
  const fbl::IncVector incs;
  const Bytes payload(128);
  std::uint64_t k = 0;
  for (auto _ : state) {
    const auto from = static_cast<std::uint32_t>(k % n);
    const auto to = static_cast<std::uint32_t>((from + 1 + (k / n) % (n - 1)) % n);
    auto out = engines[from].make_frame(ProcessId{to}, payload, 1);
    BufReader r(out.frame);
    (void)fbl::decode_kind(r);
    const auto frame = fbl::AppFrame::decode(r);
    benchmark::DoNotOptimize(engines[to].accept(ProcessId{from}, frame, incs));
    if (++k % (static_cast<std::uint64_t>(n) * (n - 1)) == 0) {
      for (std::uint32_t c = 0; c < n; ++c) {
        const fbl::CkptNoticeFrame notice{engines[c].rsn(), engines[c].recv_marks()};
        (void)engines[c].det_log().prune_dest(ProcessId{c}, notice.rsn);
        for (std::uint32_t p = 0; p < n; ++p) {
          if (p != c) (void)engines[p].on_ckpt_notice(ProcessId{c}, notice);
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineMesh)->Arg(8)->Arg(32);

void BM_PiggybackSelection(benchmark::State& state) {
  fbl::DeterminantLog log;
  log.set_propagation_threshold(3);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    log.record(fbl::HeldDeterminant{
        fbl::Determinant{ProcessId{2}, static_cast<Ssn>(i + 1), ProcessId{0},
                         static_cast<Rsn>(i + 1)},
        fbl::holder_bit(ProcessId{0})});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.piggyback_for(ProcessId{3}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiggybackSelection)->Arg(16)->Arg(4096);

}  // namespace
