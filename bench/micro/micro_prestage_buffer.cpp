// PrestageBuffer microbenchmarks: CLGP probes the buffer on every fetch
// and the prefetch scan allocates/extends entries continuously, so its
// scan-based ops (the structure is small and fully associative by
// design) are on the per-cycle path of the paper's headline preset.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/prestage_buffer.hpp"

namespace {

using namespace prestage;

/// The fetch-side probe: find + consumer decrement on hit.
void BM_PrestageBufferFetch(benchmark::State& state) {
  core::PrestageBuffer pb(static_cast<std::uint32_t>(state.range(0)));
  for (std::uint32_t i = 0; i < pb.size(); ++i) {
    const auto* e = pb.allocate(static_cast<Addr>(i) * 64);
    (void)pb.fill(*e, e->gen, 0);
  }
  Rng rng(1);
  for (auto _ : state) {
    const Addr line = rng.below(pb.size()) * 64;
    benchmark::DoNotOptimize(pb.find(line));
    pb.on_fetch(line);
    pb.add_consumer(line);
  }
}
BENCHMARK(BM_PrestageBufferFetch)->Arg(4)->Arg(16)->Arg(64);

/// The prefetch-side churn: allocate over a footprint larger than the
/// buffer, with periodic recovery resets unpinning every entry.
void BM_PrestageBufferAllocateChurn(benchmark::State& state) {
  core::PrestageBuffer pb(16);
  Rng rng(2);
  std::uint64_t spins = 0;
  for (auto _ : state) {
    const Addr line = rng.below(256) * 64;
    if (auto* e = pb.find(line)) {
      pb.add_consumer(line);
      benchmark::DoNotOptimize(e);
    } else if (const auto* slot = pb.allocate(line)) {
      (void)pb.fill(*slot, slot->gen, 0);
    } else if (++spins % 8 == 0) {
      pb.reset_consumers();  // mispredict recovery unpins everything
    }
  }
}
BENCHMARK(BM_PrestageBufferAllocateChurn);

/// The per-cycle settle sweep that flips L1-transfer entries valid.
/// Sixteen transfers stay in flight, one due per cycle: each iteration
/// settles the one due now and re-arms its entry with a transfer due 16
/// cycles later, so every iteration's floor is due and settle() sweeps.
/// The re-arm (release, allocate, set_ready) is timed too. `due_frac`
/// counts the iterations that flipped an entry valid (1 when every
/// floor was due).
void BM_PrestageBufferSettle(benchmark::State& state) {
  constexpr std::uint32_t kInFlight = 16;
  core::PrestageBuffer pb(kInFlight);
  Addr lines[kInFlight];  // lines[c % kInFlight] is due at cycle c
  Addr next_line = 0;
  for (std::uint32_t i = 0; i < kInFlight; ++i) {
    lines[i] = next_line;
    next_line += 64;
    pb.set_ready(*pb.allocate(lines[i]), static_cast<Cycle>(i));
  }
  Cycle now = 0;
  std::uint64_t due = 0;
  for (auto _ : state) {
    pb.settle(now);
    Addr& line = lines[now % kInFlight];
    due += pb.find(line)->valid;
    pb.release(line);
    line = next_line;
    next_line += 64;
    pb.set_ready(*pb.allocate(line), now + kInFlight);
    ++now;
  }
  state.counters["due_frac"] =
      static_cast<double>(due) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PrestageBufferSettle);

}  // namespace

BENCHMARK_MAIN();
