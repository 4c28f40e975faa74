#include "cpu/cpu.hpp"

#include <algorithm>
#include <chrono>

#include "common/cancel.hpp"
#include "common/json.hpp"
#include "common/json_writer.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"
#include "workload/synthetic_spec.hpp"

namespace prestage::cpu {

namespace {

/// Statistics accumulated since @p start: @p end minus @p start for
/// instructions, cycles and every listed count.
RunResult since(const RunResult& start, RunResult end) {
  end.instructions -= start.instructions;
  end.cycles -= start.cycles;
  for (const auto& c : kRunCounts) end.*c.member -= start.*c.member;
  for (const auto& b : kRunSources) end.*b.member -= start.*b.member;
  return end;
}

/// Doubles round-trip through the writer's `%.10g` (and NaN/Inf become
/// null); a null reads back as 0.0 so stores with degenerate stats stay
/// loadable.
double read_double(const json::Value& v, const char* field) {
  const json::Value& f = v.at(field);
  return f.is_null() ? 0.0 : f.as_number();
}

}  // namespace

void write_result_body(JsonWriter& json, const RunResult& r) {
  json.field("instructions", r.instructions);
  json.field("cycles", r.cycles);
  json.field("ipc", r.ipc);
  json.field("mispredicts_per_kilo_instr", r.mispredicts_per_kilo_instr);
  for (const auto& c : kRunCounts) json.field(c.key, r.*c.member);
  for (const auto& b : kRunSources) {
    json.key(b.key);
    write_source_counts(json, r.*b.member);
  }
}

void write_sampling_fields(JsonWriter& json, const RunResult& r) {
  json.field("ipc_error", r.ipc_error);
  for (const auto& c : kSampleCounts) json.field(c.key, r.*c.member);
}

RunResult read_result_body(const json::Value& v) {
  RunResult r;
  r.instructions = v.at("instructions").as_u64();
  r.cycles = v.at("cycles").as_u64();
  r.ipc = read_double(v, "ipc");
  r.mispredicts_per_kilo_instr = read_double(v, "mispredicts_per_kilo_instr");
  for (const auto& c : kRunCounts) r.*c.member = v.at(c.key).as_u64();
  for (const auto& b : kRunSources) {
    const json::Value& counts = v.at(b.key);
    for (int i = 0; i < kNumFetchSources; ++i) {
      const auto s = static_cast<FetchSource>(i);
      (r.*b.member).add(s, counts.at(std::string(to_string(s))).as_u64());
    }
  }
  if (v.has("sampling")) {
    const json::Value& s = v.at("sampling");
    r.sampled = true;
    r.ipc_error = read_double(s, "ipc_error");
    for (const auto& c : kSampleCounts) r.*c.member = s.at(c.key).as_u64();
  }
  return r;
}

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

RunResult Cpu::totals() const {
  RunResult t;
  t.instructions = backend_->committed();
  t.cycles = cycle_;
  t.recoveries = recoveries.value();
  t.blocks_predicted = driver_->blocks_predicted.value();
  t.lines_fetched = fetch_engine_->lines_fetched.value();
  t.prefetches_issued = prefetcher_->prefetches();
  t.l2_hits = mem_->l2_hits.value();
  t.l2_misses = mem_->l2_misses.value();
  t.dcache_misses = backend_->dcache_misses.value();
  t.fetch_sources = fetch_engine_->fetch_sources;
  t.prefetch_sources = prefetcher_->prefetch_sources();
  return t;
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
  // Both saturate at kNoCycle: a budget near the top of the u64 range
  // must not wrap the wedge detector's cap down to a few thousand cycles.
  const std::uint64_t target =
      cfg_.max_instructions > kNoCycle - cfg_.warmup_instructions
          ? kNoCycle
          : cfg_.warmup_instructions + cfg_.max_instructions;
  // Generous wedge detector: even mcf-like IPC stays well above 1/400.
  const Cycle cycle_cap =
      target > (kNoCycle - 10000) / 400 ? kNoCycle : 10000 + target * 400;

  RunResult warm;  // all zero when there is no warm-up to exclude
  bool warm_taken = false;
  std::uint64_t watchdog_poll = 0;
  while (backend_->committed() < target) {
    // Runaway-point watchdog: a cheap mask test per iteration, the
    // clock read only every 4096th, iteration 0 included.
    if ((watchdog_poll++ & 0xFFFU) == 0U) {
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
    if (!warm_taken && backend_->committed() >= cfg_.warmup_instructions) {
      warm_taken = true;
      warm = totals();
    }
    PRESTAGE_ASSERT(cycle_ < cycle_cap, "machine wedged: committed " +
                                            std::to_string(backend_->committed()) +
                                            " of " + std::to_string(target));
    if (cfg_.enable_cycle_skip && try_skip(cycle_cap)) continue;
    tick();
  }
  RunResult r = since(warm, totals());
  r.benchmark = cfg_.benchmark;
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  r.mispredicts_per_kilo_instr =
      r.instructions == 0
          ? 0.0
          : 1000.0 * static_cast<double>(r.recoveries) /
                static_cast<double>(r.instructions);
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
