#include "shadow.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bpred/ras.hpp"
#include "bpred/stream_predictor.hpp"
#include "common/prestage_assert.hpp"
#include "cpu/backend.hpp"
#include "cpu/frontend_driver.hpp"
#include "cpu/oracle.hpp"
#include "frontend/fetch_engine.hpp"
#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/registry.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/spec.hpp"

namespace perfbench {

using namespace prestage;

UnitSeconds& UnitSeconds::operator+=(const UnitSeconds& o) {
  backend += o.backend;
  driver += o.driver;
  fetch += o.fetch;
  prefetch += o.prefetch;
  mem += o.mem;
  recovery += o.recovery;
  timers += o.timers;
  total += o.total;
  return *this;
}

namespace {

/// A cheap monotonic timestamp: the TSC where there is one (a few ns per
/// read, against ~20 for a clock_gettime), else steady_clock ns. Units
/// are converted to seconds against steady_clock over the whole run.
std::uint64_t stamp() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Cost of one stamp() in stamp units. Every timed interval contains
/// one read, so each unit is charged this much per call and it is taken
/// back out. Minimum over a few repetitions: the undisturbed cost.
double stamp_cost() {
  static const double cost = [] {
    constexpr int kReads = 1 << 14;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (int rep = 0; rep < 8; ++rep) {
      const std::uint64_t t0 = stamp();
      std::uint64_t last = t0;
      for (int i = 0; i < kReads; ++i) last = stamp();
      best = std::min(best, last - t0);
    }
    return static_cast<double>(best) / kReads;
  }();
  return cost;
}

enum Unit : std::size_t {
  kBackend,
  kDriver,
  kFetch,
  kPrefetch,
  kMem,
  kRecovery,
  kNumUnits
};

/// Cpu's units, built exactly as Cpu::Cpu builds them.
class ShadowMachine {
 public:
  explicit ShadowMachine(const cpu::MachineConfig& config)
      : cfg_(config),
        timings_(cpu::DerivedTimings::from(config)),
        program_(config.workload
                     ? config.workload->program()
                     : workload::generate_program(
                           workload::profile_for(config.benchmark),
                           config.seed)),
        predictor_({.l1_entries = 1024, .l2_entries = 6144, .l2_assoc = 4}) {
    oracle_ = std::make_unique<cpu::Oracle>(
        cfg_.workload ? cfg_.workload->make_source(cfg_.seed + 17)
                      : std::make_unique<workload::TraceGenerator>(
                            program_, cfg_.seed + 17));

    mem::MemSystemConfig mem_cfg;
    mem_cfg.l2_latency = timings_.l2_latency;
    mem_cfg.mem_latency = cfg_.mem_latency;
    mem_cfg.l1_line_bytes = cfg_.line_bytes;
    mem_ = std::make_unique<mem::MemSystem>(mem_cfg);

    mem::IFetchCachesConfig icfg;
    icfg.l1_size_bytes = cfg_.l1i_size;
    icfg.line_bytes = cfg_.line_bytes;
    icfg.l1_latency = timings_.l1i_latency;
    icfg.l1_pipelined = cfg_.l1i_pipelined;
    icfg.has_l0 = cfg_.has_l0;
    icfg.l0_size_bytes = timings_.l0_size;
    caches_ = std::make_unique<mem::IFetchCaches>(icfg);

    prefetch::PrefetcherBuild build = prefetch::build_prefetcher(
        {.config = cfg_, .timings = timings_, .caches = *caches_,
         .mem = *mem_});
    queue_ = std::move(build.queue);
    prefetcher_ = std::move(build.prefetcher);

    frontend::FetchEngineConfig fecfg;
    fecfg.width = cfg_.width;
    fetch_ = std::make_unique<frontend::FetchEngine>(fecfg, *queue_, *caches_,
                                                     *mem_, *prefetcher_);
    backend_ = std::make_unique<cpu::Backend>(cfg_, *oracle_, program_, *mem_);
    driver_ = std::make_unique<cpu::FrontendDriver>(predictor_, ras_, *oracle_,
                                                    *queue_, program_);
  }

  ShadowRun run();

 private:
  cpu::MachineConfig cfg_;
  cpu::DerivedTimings timings_;
  workload::Program program_;

  std::unique_ptr<cpu::Oracle> oracle_;
  bpred::StreamPredictor predictor_;
  bpred::ReturnAddressStack ras_;
  std::unique_ptr<mem::MemSystem> mem_;
  std::unique_ptr<mem::IFetchCaches> caches_;
  std::unique_ptr<frontend::IFetchQueue> queue_;
  std::unique_ptr<prefetch::IPrefetcher> prefetcher_;
  std::unique_ptr<frontend::FetchEngine> fetch_;
  std::unique_ptr<cpu::Backend> backend_;
  std::unique_ptr<cpu::FrontendDriver> driver_;
  std::uint64_t recoveries_ = 0;
};

ShadowRun ShadowMachine::run() {
  if (cfg_.warmup_instructions != 0) {
    throw SimError("shadow machine: warm-up runs are not supported");
  }
  const std::uint64_t target = cfg_.max_instructions;
  // Cpu::run's wedge detector.
  const Cycle cycle_cap = 10000 + target * 400;

  std::array<std::uint64_t, kNumUnits> spent{};
  std::array<std::uint64_t, kNumUnits> calls{};
  const auto charge = [&spent, &calls](Unit u, std::uint64_t from,
                                       std::uint64_t to) {
    spent[u] += to - from;
    ++calls[u];
  };

  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t stamp_start = stamp();
  Cycle now = 0;
  while (backend_->committed() < target) {
    if (now >= cycle_cap) throw SimError("shadow machine wedged");
    const std::uint64_t t0 = stamp();
    backend_->begin_cycle(now);
    mem_->tick(now);
    const std::uint64_t t1 = stamp();
    charge(kMem, t0, t1);
    // Cpu::tick, with Cpu::do_recovery inlined.
    const bool recovering = backend_->recovery_due(now);
    if (recovering) {
      backend_->squash_younger_than_culprit();
      queue_->flush();
      fetch_->flush();
      prefetcher_->on_recovery(now);
      driver_->on_recovery();
      ++recoveries_;
    }
    const std::uint64_t t2 = stamp();
    charge(recovering ? kRecovery : kBackend, t1, t2);
    backend_->tick_commit(now);
    backend_->tick_issue(now);
    backend_->tick_dispatch(now);
    const std::uint64_t t3 = stamp();
    charge(kBackend, t2, t3);
    if (!recovering) {
      fetch_->tick(now, *backend_);
      const std::uint64_t t4 = stamp();
      charge(kFetch, t3, t4);
      prefetcher_->tick(now);
      const std::uint64_t t5 = stamp();
      charge(kPrefetch, t4, t5);
      driver_->tick(now);
      charge(kDriver, t5, stamp());
    }
    ++now;
  }
  const std::uint64_t stamp_span = stamp() - stamp_start;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const double seconds_per_stamp =
      stamp_span == 0 ? 0.0 : wall / static_cast<double>(stamp_span);
  const double cost = stamp_cost();
  const auto seconds = [&](Unit u) {
    const double net = static_cast<double>(spent[u]) -
                       cost * static_cast<double>(calls[u]);
    return std::max(0.0, net) * seconds_per_stamp;
  };

  ShadowRun r;
  r.cycles = now;
  r.committed = backend_->committed();
  r.fetch_sources = fetch_->fetch_sources;
  r.prefetch_sources = prefetcher_->prefetch_sources();
  r.lines_fetched = fetch_->lines_fetched.value();
  r.recoveries = recoveries_;
  r.l2_hits = mem_->l2_hits.value();
  r.l2_misses = mem_->l2_misses.value();
  r.mem_merges = mem_->merges.value();
  r.bus_busy_cycles = mem_->bus_busy_cycles.value();
  r.seconds.backend = seconds(kBackend);
  r.seconds.driver = seconds(kDriver);
  r.seconds.fetch = seconds(kFetch);
  r.seconds.prefetch = seconds(kPrefetch);
  r.seconds.mem = seconds(kMem);
  r.seconds.recovery = seconds(kRecovery);
  std::uint64_t reads = 0;
  for (const std::uint64_t n : calls) reads += n;
  r.seconds.timers = cost * static_cast<double>(reads) * seconds_per_stamp;
  r.seconds.total = wall;
  return r;
}

}  // namespace

ShadowRun run_shadow(const cpu::MachineConfig& cfg) {
  ShadowMachine machine(cfg);
  return machine.run();
}

bool matches(const ShadowRun& shadow, const cpu::RunResult& real) {
  for (int i = 0; i < kNumFetchSources; ++i) {
    const auto s = static_cast<FetchSource>(i);
    if (shadow.fetch_sources.count(s) != real.fetch_sources.count(s) ||
        shadow.prefetch_sources.count(s) != real.prefetch_sources.count(s)) {
      return false;
    }
  }
  return shadow.cycles == real.cycles &&
         shadow.committed == real.instructions &&
         shadow.lines_fetched == real.lines_fetched &&
         shadow.recoveries == real.recoveries &&
         shadow.l2_hits == real.l2_hits && shadow.l2_misses == real.l2_misses;
}

}  // namespace perfbench
