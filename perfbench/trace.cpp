#include "trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "campaign/engine.hpp"
#include "campaign/store.hpp"
#include "check.hpp"
#include "common/faultpoint.hpp"
#include "common/parallel.hpp"
#include "cpu/cpu.hpp"
#include "sample/plan.hpp"
#include "sample/runner.hpp"
#include "shadow.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using namespace prestage;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (0 for no samples).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;  // grid order: deterministic
  return s;
}

/// The presets whose HMEAN IPC is reported, the union of every
/// workload's preset axis (0 where a workload does not run one).
constexpr std::array<const char*, 6> kIpcPresets = {
    "base-pipelined", "base-l0", "fdp-l0", "fdp-l0-pb16",
    "clgp-l0",        "clgp-l0-pb16"};

/// What the replay measured and learned about one point.
struct PointTrace {
  campaign::PointResult result;
  double construct_s = 0.0;  ///< Cpu::Cpu
  double run_s = 0.0;        ///< Cpu::run
  double plan_s = 0.0;       ///< sample::build_plan (first point of a plan)
  double slices_s = 0.0;     ///< sample::run_sampled_point_with_plan
  double encode_s = 0.0;     ///< campaign::encode_line
  double append_s = 0.0;     ///< the store write
  // Unit counters read through Cpu's const accessors (full runs).
  std::uint64_t stall_structural = 0;
  std::uint64_t stall_no_request = 0;
  std::uint64_t ruu_full_stalls = 0;
  std::uint64_t wrong_path_blocks = 0;

  [[nodiscard]] double point_s() const {
    return construct_s + run_s + plan_s + slices_s + encode_s + append_s;
  }
};

/// The identity fields campaign::simulate fills in.
campaign::PointResult identity_of(const campaign::RunPoint& p) {
  campaign::PointResult r;
  r.key = p.key();
  r.preset = p.preset;
  r.config = p.config;
  r.node = cacti::to_string(p.node);
  r.benchmark = p.benchmark;
  r.l1i_size = p.l1i_size;
  r.instructions = p.instructions;
  r.seed = p.seed;
  return r;
}

/// sample::get_or_build_plan's cache discipline (build outside the lock,
/// first insert wins) around a direct, timed sample::build_plan call. A
/// cache of its own: the process-wide one is already warm from the
/// untraced run.
class PlanCache {
 public:
  std::shared_ptr<const sample::SamplePlan> get(
      const workload::WorkloadSpec& base, const cpu::MachineConfig& cfg,
      const sample::ResolvedSamplingParams& params, double& build_s) {
    const Key key{cfg.benchmark, cfg.seed, cfg.max_instructions};
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = plans_.find(key);
      if (it != plans_.end()) return it->second;
    }
    const auto t0 = Clock::now();
    auto plan = std::make_shared<const sample::SamplePlan>(sample::build_plan(
        base, cfg.seed, cfg.max_instructions, params));
    build_s = since(t0);
    const std::lock_guard<std::mutex> lock(mutex_);
    return plans_.emplace(key, std::move(plan)).first->second;
  }

 private:
  using Key = std::tuple<std::string, std::uint64_t, std::uint64_t>;
  std::mutex mutex_;
  std::map<Key, std::shared_ptr<const sample::SamplePlan>> plans_;
};

PointTrace execute(const campaign::RunPoint& p, PlanCache& plans) {
  PointTrace t;
  t.result = identity_of(p);
  const cpu::MachineConfig cfg = p.machine_config();
  if (p.sampling.enabled) {
    const auto base = sample::base_workload(cfg);
    const auto plan = plans.get(*base, cfg, p.sampling, t.plan_s);
    const auto t0 = Clock::now();
    t.result.result = sample::run_sampled_point_with_plan(cfg, base, *plan);
    t.slices_s = since(t0);
    return t;
  }
  auto t0 = Clock::now();
  cpu::Cpu machine(cfg);
  t.construct_s = since(t0);
  t0 = Clock::now();
  t.result.result = machine.run();
  t.run_s = since(t0);
  t.stall_structural = machine.fetch_engine().stall_cycles_structural.value();
  t.stall_no_request = machine.fetch_engine().stall_cycles_no_request.value();
  t.ruu_full_stalls = machine.backend().ruu_full_stalls.value();
  t.wrong_path_blocks = machine.driver().wrong_path_blocks.value();
  return t;
}

struct Replay {
  std::vector<campaign::RunPoint> grid;
  std::vector<PointTrace> points;  ///< grid order
  double expand_s = 0.0;
  double compact_s = 0.0;
  double wall_s = 0.0;
};

/// run_campaign's sequence on a fresh store, one public call at a time.
Replay replay(const campaign::CampaignSpec& spec, const std::string& store_path,
              unsigned jobs) {
  Replay r;
  const auto start = Clock::now();
  r.grid = campaign::expand(spec);
  r.expand_s = since(start);
  (void)campaign::ResultStore::load(store_path);
  // StoreAppender::append in its two halves, so encoding and the write
  // are timed apart.
  campaign::LineAppender lines(store_path, faults::Site::StoreAppend);
  PlanCache plans;
  std::vector<std::optional<PointTrace>> slots(r.grid.size());
  r.points.reserve(r.grid.size());
  std::mutex mutex;  // guards slots, next_flush, lines and r.points
  std::size_t next_flush = 0;
  parallel_for_indexed(r.grid.size(), jobs, [&](std::size_t i) {
    PointTrace t = execute(r.grid[i], plans);
    const std::lock_guard<std::mutex> lock(mutex);
    slots[i] = std::move(t);
    // Ordered flush, as the engine does: bytes independent of jobs.
    while (next_flush < slots.size() && slots[next_flush]) {
      PointTrace out = std::move(*slots[next_flush]);
      slots[next_flush].reset();
      ++next_flush;
      auto t0 = Clock::now();
      const std::string line = campaign::encode_line(out.result);
      out.encode_s = since(t0);
      t0 = Clock::now();
      lines.append_line(line);
      out.append_s = since(t0);
      r.points.push_back(std::move(out));
    }
  });
  const auto t0 = Clock::now();
  (void)campaign::compact_store(store_path, r.grid);
  r.compact_s = since(t0);
  r.wall_s = since(start);
  return r;
}

struct KernelSplit {
  UnitSeconds seconds;
  std::size_t points = 0;
  std::size_t mismatched = 0;
  std::uint64_t mem_merges = 0;
  std::uint64_t bus_busy_cycles = 0;
};

/// Every full-run point again on the shadow machine, checked against
/// the Cpu::run result the replay stored.
KernelSplit split_kernel(const Replay& r, unsigned jobs) {
  KernelSplit k;
  std::mutex mutex;  // guards k
  parallel_for_indexed(r.points.size(), jobs, [&](std::size_t i) {
    const ShadowRun s = run_shadow(r.grid[i].machine_config());
    const bool same = matches(s, r.points[i].result.result);
    const std::lock_guard<std::mutex> lock(mutex);
    k.seconds += s.seconds;
    ++k.points;
    if (!same) ++k.mismatched;
    k.mem_merges += s.mem_merges;
    k.bus_busy_cycles += s.bus_busy_cycles;
  });
  return k;
}

struct WorkloadTimes {
  std::map<std::string, double> generate_s;  ///< per benchmark
  double fill_s = 0.0;
};

/// One standalone generate_program call per distinct (benchmark, seed),
/// then TraceGenerator::fill over as many records as the grid's points
/// of that benchmark decoded.
WorkloadTimes time_workload_layer(const campaign::CampaignSpec& spec,
                                  const Replay& r, unsigned jobs) {
  const std::vector<std::string> benches = spec.resolved_benchmarks();
  std::map<std::string, std::uint64_t> records;
  for (const PointTrace& p : r.points) {
    const cpu::RunResult& res = p.result.result;
    records[p.result.benchmark] +=
        res.sampled ? res.sample_simulated_instructions : res.instructions;
  }
  std::vector<double> generate_s(benches.size());
  std::vector<double> fill_s(benches.size());
  parallel_for_indexed(benches.size(), jobs, [&](std::size_t i) {
    auto t0 = Clock::now();
    const workload::Program program = workload::generate_program(
        workload::profile_for(benches[i]), spec.seed);
    generate_s[i] = since(t0);
    // The Cpu's oracle seeds its walker with seed + 17 and pulls
    // 256-record batches.
    workload::TraceGenerator walker(program, spec.seed + 17);
    std::array<workload::DynInst, 256> batch;
    t0 = Clock::now();
    for (std::uint64_t left = records[benches[i]]; left > 0;) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(left, 256));
      left -= walker.fill(batch.data(), n);
    }
    fill_s[i] = since(t0);
  });
  WorkloadTimes w;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    w.generate_s[benches[i]] = generate_s[i];
  }
  w.fill_s = sum(fill_s);
  return w;
}

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedRun run_traced(const campaign::CampaignSpec& spec,
                     const std::string& store_path, unsigned jobs) {
  const Replay r = replay(spec, store_path, jobs);
  const bool full_runs = !spec.sampling.enabled;
  const KernelSplit k = full_runs ? split_kernel(r, jobs) : KernelSplit{};
  const WorkloadTimes w = time_workload_layer(spec, r, jobs);

  std::vector<double> construct, run, plan, slices;
  double encode_s = 0.0, append_s = 0.0, point_s = 0.0, synth_s = 0.0;
  double cycles = 0.0, skipped = 0.0, full_cycles = 0.0;
  double lines_fetched = 0.0, pb_lines = 0.0, prefetches = 0.0;
  double l2_misses = 0.0, recoveries = 0.0, committed = 0.0;
  double stall_structural = 0.0, stall_no_request = 0.0, ruu_full = 0.0;
  double wrong_path_blocks = 0.0;
  double budget = 0.0, simulated = 0.0, cold_starts = 0.0, error_rel = 0.0;
  std::size_t sampled_points = 0;
  for (const PointTrace& p : r.points) {
    const cpu::RunResult& res = p.result.result;
    if (res.sampled) {
      slices.push_back(p.slices_s);
      if (p.plan_s > 0.0) plan.push_back(p.plan_s);
      budget += static_cast<double>(p.result.instructions);
      simulated += static_cast<double>(res.sample_simulated_instructions);
      cold_starts += static_cast<double>(res.sample_cold_starts);
      error_rel += res.ipc_error / res.ipc;
      ++sampled_points;
    } else {
      construct.push_back(p.construct_s);
      run.push_back(p.run_s);
      synth_s += w.generate_s.at(p.result.benchmark);
      full_cycles += static_cast<double>(res.cycles);
    }
    encode_s += p.encode_s;
    append_s += p.append_s;
    point_s += p.point_s();
    cycles += static_cast<double>(res.cycles);
    skipped += static_cast<double>(res.cycles_skipped);
    lines_fetched += static_cast<double>(res.lines_fetched);
    pb_lines += static_cast<double>(
        res.fetch_sources.count(FetchSource::PreBuffer));
    prefetches += static_cast<double>(res.prefetches_issued);
    l2_misses += static_cast<double>(res.l2_misses);
    recoveries += static_cast<double>(res.recoveries);
    committed += static_cast<double>(res.instructions);
    stall_structural += static_cast<double>(p.stall_structural);
    stall_no_request += static_cast<double>(p.stall_no_request);
    ruu_full += static_cast<double>(p.ruu_full_stalls);
    wrong_path_blocks += static_cast<double>(p.wrong_path_blocks);
  }

  std::vector<double> generate_ms;
  for (const auto& [bench, s] : w.generate_s) generate_ms.push_back(s * 1e3);
  // The unit split is only printed when the shadow reproduced every
  // point; wrong numbers are worse than none.
  const bool split_ok = k.points > 0 && k.mismatched == 0;
  const UnitSeconds units = split_ok ? k.seconds : UnitSeconds{};

  TracedRun out;
  out.wall_s = r.wall_s;
  const std::string store_bytes = read_file(store_path);
  Metrics& m = out.metrics;
  m = {
      {"campaign.expand_s", r.expand_s},
      {"campaign.point_s", point_s},
      {"cpu.construct_s", sum(construct)},
      {"cpu.construct_ms.p50", percentile(construct, 0.5) * 1e3},
      {"cpu.construct_ms.p90", percentile(construct, 0.9) * 1e3},
      {"cpu.construct_share", frac(sum(construct), point_s)},
      {"cpu.run_s", sum(run)},
      {"cpu.point_ms.p50", percentile(run, 0.5) * 1e3},
      {"cpu.point_ms.p90", percentile(run, 0.9) * 1e3},
      {"cpu.run_share", frac(sum(run), point_s)},
      {"workload.generate_program_ms", percentile(generate_ms, 0.5)},
      {"workload.synth_share", frac(synth_s, sum(construct))},
      {"workload.trace_fill_s", w.fill_s},
      {"backend.s", units.backend},
      {"driver.s", units.driver},
      {"fetch.s", units.fetch},
      {"prefetch.s", units.prefetch},
      {"mem.s", units.mem},
      {"recovery.s", units.recovery},
      {"kernel.shadow_s", units.total},
      {"kernel.timer_s", units.timers},
      {"kernel.shadow_points", static_cast<double>(k.points)},
      {"kernel.shadow_match", k.mismatched == 0 ? 1.0 : 0.0},
      {"sample.build_plan_s", sum(plan)},
      {"sample.plans", static_cast<double>(plan.size())},
      {"sample.run_slices_s", sum(slices)},
      {"sample.point_ms.p50", percentile(slices, 0.5) * 1e3},
      {"sample.point_ms.p90", percentile(slices, 0.9) * 1e3},
      {"store.encode_s", encode_s},
      {"store.append_s", append_s},
  };
  {
    const auto t0 = Clock::now();
    const campaign::ResultStore loaded =
        campaign::ResultStore::load(store_path);
    m.emplace_back("store.load_s", since(t0));
    m.emplace_back("store.lines", static_cast<double>(loaded.size()));
  }
  m.emplace_back("store.compact_s", r.compact_s);
  m.emplace_back("store.bytes", static_cast<double>(store_bytes.size()));
  m.emplace_back("trace.replay_wall_s", r.wall_s);

  // Deterministic simulated counts.
  m.emplace_back("cpu.sim_cycles", cycles);
  m.emplace_back("cpu.ticks", cycles - skipped);
  m.emplace_back("cpu.skip_frac", frac(skipped, cycles));
  for (const char* preset : kIpcPresets) {
    double n = 0.0;
    double inv = 0.0;
    for (const PointTrace& p : r.points) {
      if (p.result.preset != preset) continue;
      n += 1.0;
      inv += 1.0 / p.result.result.ipc;
    }
    m.emplace_back(std::string("cpu.ipc_hmean.") + preset, frac(n, inv));
  }
  m.emplace_back("fetch.pb_share", frac(pb_lines, lines_fetched));
  m.emplace_back("fetch.stall_structural_frac",
                 frac(stall_structural, full_cycles));
  m.emplace_back("fetch.stall_no_request_frac",
                 frac(stall_no_request, full_cycles));
  m.emplace_back("prefetch.issued", prefetches);
  m.emplace_back("prefetch.useful_frac", frac(pb_lines, prefetches));
  m.emplace_back("mem.l2_misses", l2_misses);
  m.emplace_back("mem.merges",
                 split_ok ? static_cast<double>(k.mem_merges) : 0.0);
  m.emplace_back("mem.bus_busy_frac",
                 split_ok ? frac(static_cast<double>(k.bus_busy_cycles),
                                 full_cycles)
                          : 0.0);
  m.emplace_back("driver.mispredicts_pki",
                 frac(1000.0 * recoveries, committed));
  m.emplace_back("driver.wrong_path_blocks", wrong_path_blocks);
  m.emplace_back("backend.ruu_full_stall_frac", frac(ruu_full, full_cycles));
  m.emplace_back("sample.sim_frac", frac(simulated, budget));
  m.emplace_back("sample.cold_starts", cold_starts);
  m.emplace_back("sample.ipc_error_rel",
                 frac(error_rel, static_cast<double>(sampled_points)));
  return out;
}

}  // namespace perfbench
