#include "cpu/cpu.hpp"

#include <algorithm>
#include <chrono>

#include "common/cancel.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"
#include "workload/synthetic_spec.hpp"

namespace prestage::cpu {

namespace {

/// Counter values at the warmup boundary, to report post-warmup deltas.
struct StatSnapshot {
  std::uint64_t fetch_src[kNumFetchSources] = {};
  std::uint64_t prefetch_src[kNumFetchSources] = {};
  std::uint64_t lines = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t blocks = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dcache_misses = 0;
  std::uint64_t prefetches = 0;
};

StatSnapshot take_snapshot(const frontend::FetchEngine& fe,
                           const prefetch::IPrefetcher& pf,
                           const mem::MemSystem& mem, const Backend& be,
                           std::uint64_t recoveries,
                           std::uint64_t blocks) {
  StatSnapshot s;
  for (int i = 0; i < kNumFetchSources; ++i) {
    s.fetch_src[i] = fe.fetch_sources.count(static_cast<FetchSource>(i));
    s.prefetch_src[i] =
        pf.prefetch_sources().count(static_cast<FetchSource>(i));
  }
  s.lines = fe.lines_fetched.value();
  s.recoveries = recoveries;
  s.blocks = blocks;
  s.l2_hits = mem.l2_hits.value();
  s.l2_misses = mem.l2_misses.value();
  s.dcache_misses = be.dcache_misses.value();
  s.prefetches = pf.prefetches();
  return s;
}

}  // namespace

Cpu::Cpu(const MachineConfig& config)
    : cfg_(config),
      timings_(DerivedTimings::from(config)),
      workload_(config.workload ? config.workload
                                : workload::synthetic_workload(
                                      config.benchmark, config.seed)),
      program_(workload_->program()),
      predictor_({.l1_entries = 1024, .l2_entries = 6144, .l2_assoc = 4}) {
  oracle_ = std::make_unique<Oracle>(workload_->make_source(cfg_.seed + 17));

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
  fetch_engine_ = std::make_unique<frontend::FetchEngine>(
      fecfg, *queue_, *caches_, *mem_, *prefetcher_);
  backend_ = std::make_unique<Backend>(cfg_, *oracle_, program_, *mem_);
  driver_ = std::make_unique<FrontendDriver>(predictor_, ras_, *oracle_,
                                             *queue_, program_);
}

Cpu::~Cpu() = default;

void Cpu::warm_ifetch(const std::vector<Addr>& warm_lines) {
  PRESTAGE_ASSERT(cycle_ == 0, "warm_ifetch after simulation started");
  for (const Addr line : warm_lines) {
    caches_->fill_demand(line);
    mem_->l2().insert(line);
  }
}

void Cpu::do_recovery(Cycle now) {
  backend_->squash_younger_than_culprit();
  queue_->flush();
  fetch_engine_->flush();
  prefetcher_->on_recovery(now);
  driver_->on_recovery();
  recoveries.add();
}

void Cpu::tick() {
  const Cycle now = cycle_;
  backend_->begin_cycle(now);
  mem_->tick(now);
  const bool recovering = backend_->recovery_due(now);
  if (recovering) do_recovery(now);
  backend_->tick_commit(now);
  backend_->tick_issue(now);
  backend_->tick_dispatch(now);
  if (!recovering) {
    // Fetch races ahead of the prefetch scan: a head-of-queue line the
    // scan has not reached yet goes down the demand path (L0/L1/L2 — the
    // emergency role of the caches), while the scan covers the lookahead.
    // The predictor pushes new blocks last, so the scan sees them one
    // cycle later — its one-cycle table latency (Table 2).
    fetch_engine_->tick(now, *backend_);
    prefetcher_->tick(now);
    driver_->tick(now);
  }
  ++cycle_;
}

bool Cpu::try_skip(Cycle cycle_cap) {
  const Cycle now = cycle_;
  // A unit reporting next_event <= now does work this cycle: no skip.
  // Checks are ordered by measured failure frequency (the back-end
  // rejects ~70% of busy-cycle probes) so the common case is cheap.
  // The driver's work predicate is cycle-independent (a redirect bubble
  // draining, or queue room for a prediction).
  const Cycle backend_next = backend_->next_event_cycle(now);
  if (backend_next <= now) return false;
  if (driver_->has_work()) return false;
  const IdlePlan fetch_plan = fetch_engine_->idle_plan(now, *backend_);
  if (fetch_plan.next_event <= now) return false;
  const Cycle mem_next = mem_->next_event_cycle(now);
  if (mem_next <= now) return false;
  const IdlePlan pf_plan = prefetcher_->idle_plan(now);
  if (pf_plan.next_event <= now) return false;

  Cycle horizon =
      std::min(std::min(backend_next, mem_next),
               std::min(fetch_plan.next_event, pf_plan.next_event));
  // All units event-free forever means the machine is wedged; tick on so
  // the cycle-cap assert fires exactly where a cycle-by-cycle run would.
  if (horizon == kNoCycle) return false;
  if (horizon > cycle_cap) horizon = cycle_cap;
  if (horizon <= now) return false;
  const std::uint64_t span = horizon - now;

#ifndef NDEBUG
  // Contract check: no unit may report work strictly inside the span —
  // a conservative-early horizon is wasted speed, a late one is a bug.
  if (const Cycle mid = horizon - 1; mid > now) {
    PRESTAGE_ASSERT(backend_->next_event_cycle(mid) >= horizon,
                    "backend reported work inside a skipped span");
    PRESTAGE_ASSERT(mem_->next_event_cycle(mid) >= horizon,
                    "memsys reported work inside a skipped span");
    PRESTAGE_ASSERT(
        fetch_engine_->idle_plan(mid, *backend_).next_event >= horizon,
        "fetch reported work inside a skipped span");
    PRESTAGE_ASSERT(prefetcher_->idle_plan(mid).next_event >= horizon,
                    "prefetcher reported work inside a skipped span");
  }
#endif

  // Fold the span's per-cycle effects: identical, by construction, to
  // ticking each skipped cycle against frozen state.
  backend_->fold_idle(span);
  if (fetch_plan.per_cycle != nullptr) fetch_plan.per_cycle->add(span);
  if (pf_plan.per_cycle != nullptr) pf_plan.per_cycle->add(span);
  cycle_ = horizon;
  cycles_skipped_ += span;
  return true;
}

RunResult Cpu::run() {
  const auto host_start = std::chrono::steady_clock::now();
  const std::uint64_t target =
      cfg_.warmup_instructions + cfg_.max_instructions;
  // Generous wedge detector: even mcf-like IPC stays well above 1/400.
  const Cycle cycle_cap = 10000 + target * 400;

  StatSnapshot warm{};
  std::uint64_t watchdog_poll = 0;
  while (backend_->committed() < target) {
    // Runaway-point watchdog: a cheap mask test per iteration, the
    // token/clock reads only every 4096th. Polling at iteration 0 too
    // means a pre-cancelled token never simulates a single cycle.
    if ((watchdog_poll++ & 0xFFFU) == 0U) {
      if (cfg_.cancel != nullptr && cfg_.cancel->cancelled()) {
        throw PointCancelled("run cancelled by token");
      }
      if (cfg_.max_host_seconds > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        host_start)
                  .count() > cfg_.max_host_seconds) {
        // Budget only — no elapsed reading — so the message (and any
        // failure record carrying it) is deterministic.
        throw PointCancelled(
            "run exceeded its host-seconds budget (" +
            std::to_string(cfg_.max_host_seconds) + "s)");
      }
    }
    if (!warmup_done_ && backend_->committed() >= cfg_.warmup_instructions) {
      warmup_done_ = true;
      warmup_cycle_ = cycle_;
      warmup_instrs_ = backend_->committed();
      warm = take_snapshot(*fetch_engine_, *prefetcher_, *mem_, *backend_,
                           recoveries.value(),
                           driver_->blocks_predicted.value());
    }
    PRESTAGE_ASSERT(cycle_ < cycle_cap, "machine wedged: committed " +
                                            std::to_string(backend_->committed()) +
                                            " of " + std::to_string(target));
    if (cfg_.enable_cycle_skip && try_skip(cycle_cap)) continue;
    tick();
  }
  if (!warmup_done_) {
    warmup_done_ = true;
    warmup_cycle_ = 0;
    warmup_instrs_ = 0;
  }

  const StatSnapshot end = take_snapshot(
      *fetch_engine_, *prefetcher_, *mem_, *backend_, recoveries.value(),
      driver_->blocks_predicted.value());

  RunResult r;
  r.benchmark = cfg_.benchmark;
  r.instructions = backend_->committed() - warmup_instrs_;
  r.cycles = cycle_ - warmup_cycle_;
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  for (int i = 0; i < kNumFetchSources; ++i) {
    const auto s = static_cast<FetchSource>(i);
    r.fetch_sources.add(s, end.fetch_src[i] - warm.fetch_src[i]);
    r.prefetch_sources.add(s, end.prefetch_src[i] - warm.prefetch_src[i]);
  }
  r.lines_fetched = end.lines - warm.lines;
  r.recoveries = end.recoveries - warm.recoveries;
  r.blocks_predicted = end.blocks - warm.blocks;
  r.mispredicts_per_kilo_instr =
      r.instructions == 0
          ? 0.0
          : 1000.0 * static_cast<double>(r.recoveries) /
                static_cast<double>(r.instructions);
  r.l2_hits = end.l2_hits - warm.l2_hits;
  r.l2_misses = end.l2_misses - warm.l2_misses;
  r.dcache_misses = end.dcache_misses - warm.dcache_misses;
  r.prefetches_issued = end.prefetches - warm.prefetches;
  r.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  // Throughput over everything the kernel simulated, warmup included.
  r.minstr_per_sec =
      r.host_seconds > 0.0
          ? static_cast<double>(backend_->committed()) / 1e6 /
                r.host_seconds
          : 0.0;
  r.cycles_skipped = cycles_skipped_;
  return r;
}

}  // namespace prestage::cpu
