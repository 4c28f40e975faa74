// Sampled-simulation subsystem coverage: parameter resolution and
// descriptor suffixes, plan determinism (including across worker
// counts), slice trace snapshots and the profile waypoints they resume
// from (generator and replayed traces), the single-flight plan cache, PSCK
// checkpoint round-trips (a round-tripped plan runs byte-identically)
// and corruption rejection, prefetcher save/restore semantics,
// reconstruction fidelity against the full run, sampled campaigns
// (points that share a plan wait for one build, and a plan build error
// quarantines its point), the report's store-derived effective speedup,
// error-bar-aware compare gating, and two golden
// store lines: a full run (the sampling block is strictly additive) and
// a sampled run (slice starts and reconstruction are byte-stable).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/compare.hpp"
#include "campaign/engine.hpp"
#include "campaign/perf.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "common/json_writer.hpp"
#include "common/prestage_assert.hpp"
#include "common/rng.hpp"
#include "cpu/cpu.hpp"
#include "expect_same_records.hpp"
#include "sample/bbv.hpp"
#include "sample/checkpoint.hpp"
#include "sample/plan.hpp"
#include "sample/runner.hpp"
#include "sim/presets.hpp"
#include "workload/synthetic_spec.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace prestage;
using campaign::CampaignSpec;
using campaign::PointResult;
using campaign::ResultStore;
using campaign::RunPoint;

std::string test_file(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

std::string fresh_file(const std::string& name) {
  const std::string path = test_file(name);
  std::filesystem::remove(path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The CI smoke-sampled knobs (bench/figures.cpp "smoke-sampled"):
/// 5000-instruction intervals, k <= 4, three-interval detailed warm-up.
sample::ResolvedSamplingParams smoke_params(std::uint64_t budget) {
  sample::SamplingParams p;
  p.enabled = true;
  p.interval_instructions = 5000;
  p.max_clusters = 4;
  p.warmup_intervals = 3;
  return p.resolve(budget);
}

/// One full-run point of the smoke grid.
RunPoint full_point(std::uint64_t instrs = 120000) {
  return RunPoint{.preset = "clgp-l0",
                  .config = "clgp-l0",
                  .node = cacti::TechNode::um045,
                  .l1i_size = 4096,
                  .benchmark = "eon",
                  .instructions = instrs,
                  .seed = 1,
                  .sampling = {}};
}

sample::SamplePlan eon_plan(std::uint64_t budget = 120000) {
  const auto cfg = full_point(budget).machine_config();
  const auto base = sample::base_workload(cfg);
  return sample::build_plan(*base, cfg.seed, budget, smoke_params(budget));
}

/// The sampled twin of full_point: eon clgp-l0 under the smoke knobs.
RunPoint sampled_point(std::uint64_t instrs = 120000) {
  RunPoint p = full_point(instrs);
  p.sampling = smoke_params(instrs);
  return p;
}

/// @p point's store line with @p result in place of a simulated one.
std::string line_of(const RunPoint& point, const cpu::RunResult& result) {
  PointResult r;
  r.key = point.key();
  r.preset = point.preset;
  r.config = point.config;
  r.node = cacti::to_string(point.node);
  r.benchmark = point.benchmark;
  r.l1i_size = point.l1i_size;
  r.instructions = point.instructions;
  r.seed = point.seed;
  r.result = result;
  return campaign::encode_line(r);
}

/// Reference signature: each stream adds its signed weight to every
/// dimension as it arrives, in double precision, then the L2 norm in
/// dimension order. Signs are bit d % 64 of the block's projection word
/// for group d / 64.
std::vector<double> per_stream_signature(
    const std::vector<std::pair<Addr, std::uint64_t>>& streams,
    std::uint32_t dim) {
  std::vector<double> acc(dim, 0.0);
  for (const auto& [pc, weight] : streams) {
    const auto w = static_cast<double>(weight);
    std::uint64_t signs = 0;
    for (std::uint32_t d = 0; d < dim; ++d) {
      if (d % 64U == 0) {
        signs = hash_mix(pc ^ (0x9e3779b97f4a7c15ULL * (d / 64U + 1U)));
      }
      acc[d] += ((signs >> (d % 64U)) & 1U) != 0 ? w : -w;
    }
  }
  double sq = 0.0;
  for (const double v : acc) sq += v * v;
  const double norm = std::sqrt(sq);
  std::vector<double> out(dim, 0.0);
  if (norm > 0.0) {
    for (std::uint32_t d = 0; d < dim; ++d) out[d] = acc[d] / norm;
  }
  return out;
}

TEST(Bbv, AccumulatorMatchesPerStreamProjection) {
  Rng rng(27);
  for (const std::uint32_t dim : {1U, 16U, 64U, 65U, 130U}) {
    for (const std::uint64_t max_weight : {64ULL, 50000ULL}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + ", weights 1-" +
                   std::to_string(max_weight));
      sample::SignatureAccumulator acc(dim);
      // Several intervals through one accumulator, the first of them
      // empty: finish() must leave nothing behind.
      for (int interval = 0; interval < 5; ++interval) {
        std::vector<Addr> pool;  // few blocks, so streams repeat them
        const std::uint64_t blocks = 1 + rng.below(40);
        for (std::uint64_t i = 0; i < blocks; ++i) {
          pool.push_back(0x10000 + rng.below(1U << 20U) * kInstrBytes);
        }
        std::vector<std::pair<Addr, std::uint64_t>> streams;
        const std::uint64_t n = interval == 0 ? 0 : 1 + rng.below(3000);
        std::vector<Addr> first_seen;
        for (std::uint64_t i = 0; i < n; ++i) {
          const Addr pc = pool[rng.below(pool.size())];
          streams.emplace_back(pc, 1 + rng.below(max_weight));
          acc.add(pc, streams.back().second);
          if (std::find(first_seen.begin(), first_seen.end(), pc) ==
              first_seen.end()) {
            first_seen.push_back(pc);
          }
        }
        EXPECT_EQ(acc.blocks(), first_seen) << "interval " << interval;
        const std::vector<double> got = acc.finish();
        const std::vector<double> want = per_stream_signature(streams, dim);
        ASSERT_EQ(got.size(), dim);
        for (std::uint32_t d = 0; d < dim; ++d) {
          // Bit patterns: a -0.0 for +0.0 fails too.
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[d]),
                    std::bit_cast<std::uint64_t>(want[d]))
              << "interval " << interval << ", dimension " << d << ": "
              << got[d] << " vs " << want[d];
        }
        if (n == 0) {
          for (const double v : got) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(v), 0U);
          }
        }
      }
    }
  }
}

TEST(SampleParams, ResolveFillsDefaultsAndZerosOnlyPinKnobs) {
  sample::SamplingParams p;
  p.enabled = true;
  const auto r = p.resolve(400000);
  EXPECT_EQ(r.interval_instructions, 10000u) << "budget/40";
  EXPECT_EQ(r.dim, 16u);
  EXPECT_EQ(r.max_clusters, 6u);
  EXPECT_EQ(r.warm_lines, 256u);
  EXPECT_EQ(r.warmup_intervals, 1u);
  // Tiny budgets clamp to the interval floor.
  EXPECT_EQ(p.resolve(4000).interval_instructions, 1000u);

  p.warmup_intervals = 3;
  EXPECT_EQ(p.resolve(400000).warmup_intervals, 3u);
}

TEST(SampleParams, DescriptorSuffixEmbedsEveryKnobOnlyWhenEnabled) {
  sample::SamplingParams p;
  EXPECT_EQ(p.resolve(400000).descriptor_suffix(), "")
      << "full-run descriptors (and keys) must be unchanged";
  p.enabled = true;
  p.interval_instructions = 5000;
  p.max_clusters = 4;
  p.warmup_intervals = 2;
  EXPECT_EQ(p.resolve(400000).descriptor_suffix(),
            "|sample=iv5000,dim16,k4,warm256,wu2");
}

TEST(SamplePlan, IsDeterministicAndCachedAcrossCalls) {
  const sample::SamplePlan a = eon_plan();
  const sample::SamplePlan b = eon_plan();
  ASSERT_EQ(a.slices.size(), b.slices.size());
  EXPECT_GT(a.clusters, 0u);
  EXPECT_EQ(a.intervals, 24u);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    EXPECT_EQ(a.slices[i].start, b.slices[i].start);
    EXPECT_EQ(a.slices[i].instructions, b.slices[i].instructions);
    EXPECT_EQ(a.slices[i].interval_index, b.slices[i].interval_index);
    EXPECT_EQ(a.slices[i].cluster, b.slices[i].cluster);
    EXPECT_EQ(a.slices[i].weight, b.slices[i].weight);
    EXPECT_EQ(a.slices[i].warm_start, b.slices[i].warm_start);
    EXPECT_EQ(a.slices[i].warm_lines, b.slices[i].warm_lines);
    EXPECT_LE(a.slices[i].warm_start, a.slices[i].start)
        << "detailed warm-up must start at or before the measured region";
    if (i > 0) {
      EXPECT_GT(a.slices[i].start, a.slices[i - 1].start);
    }
    // Fixed slice order: deterministic sum.
    weight_sum += a.slices[i].weight;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);

  // The process-wide cache returns one shared plan per key.
  const auto cfg = full_point().machine_config();
  const auto base = sample::base_workload(cfg);
  const auto p1 = sample::get_or_build_plan(*base, cfg.seed, 120000,
                                            smoke_params(120000));
  const auto p2 = sample::get_or_build_plan(*base, cfg.seed, 120000,
                                            smoke_params(120000));
  EXPECT_EQ(p1.get(), p2.get());
  auto deeper = smoke_params(120000);
  deeper.warmup_intervals = 1;
  const auto p3 =
      sample::get_or_build_plan(*base, cfg.seed, 120000, deeper);
  EXPECT_NE(p1.get(), p3.get()) << "warm-up depth is part of the plan key";
}

TEST(SamplePlan, SnapshotsSitAtEachWarmStart) {
  const sample::SamplePlan plan = eon_plan();
  for (std::size_t i = 0; i < plan.slices.size(); ++i) {
    const sample::Slice& s = plan.slices[i];
    ASSERT_NE(s.snapshot, nullptr) << "slice " << i;
    EXPECT_EQ(s.snapshot->instructions(), s.warm_start) << "slice " << i;
    if (i > 0 && plan.slices[i - 1].warm_start == s.warm_start) {
      EXPECT_EQ(plan.slices[i - 1].snapshot, s.snapshot)
          << "slices sharing a warm-up start share one snapshot";
    }
  }

  // A start that is not a stream boundary of this trace (a checkpoint
  // of another workload), or that steps back, is refused rather than
  // silently misaligned.
  const auto base = sample::base_workload(full_point().machine_config());
  sample::SamplePlan bad = plan;
  bad.slices.back().warm_start += 1;
  EXPECT_THROW(sample::attach_snapshots(bad, *base), SimError);
  sample::SamplePlan reversed = plan;
  std::reverse(reversed.slices.begin(), reversed.slices.end());
  ASSERT_GT(reversed.slices.front().warm_start,
            reversed.slices.back().warm_start);
  EXPECT_THROW(sample::attach_snapshots(reversed, *base), SimError);
}

/// FNV-1a over the eight little-endian bytes of @p v.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv_mix(h, bits);
}

TEST(SamplePlan, BuildPlanMatchesParentPin) {
  // Generated with the DynInst-batch profiler and snapshot walk that the
  // span walks replaced: every benchmark at 1M instructions, 5k
  // intervals, k <= 2, one interval of warm-up. The digest covers the
  // slice table (weights bit-exact, warm lines), unique_blocks, bic_by_k
  // and the first 1k records of every slice snapshot.
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"gzip", 0xc399d591554f5ec6ULL},    {"vpr", 0x93f927345e7b7c95ULL},
      {"gcc", 0xd32a5e54990996d6ULL},     {"mcf", 0x2c0206c5448fdea9ULL},
      {"crafty", 0x84f8814b63a51b2dULL},  {"parser", 0xccf6c6178eaa5d02ULL},
      {"eon", 0xeebfea19d1a1b9ceULL},     {"perlbmk", 0x204f82ad55ce92c5ULL},
      {"gap", 0xe1a6406570d8f16aULL},     {"vortex", 0x5787703f8cb47d83ULL},
      {"bzip2", 0xd83e6ba2bda641c4ULL},   {"twolf", 0x538e9deb71776056ULL},
  };
  constexpr std::uint64_t kBudget = 1000000;
  sample::SamplingParams knobs;
  knobs.enabled = true;
  knobs.interval_instructions = 5000;
  knobs.max_clusters = 2;
  knobs.warmup_intervals = 1;
  const sample::ResolvedSamplingParams params = knobs.resolve(kBudget);
  for (const auto& [bench, pin] : pins) {
    const auto spec = workload::synthetic_workload(bench, 1);
    const sample::SamplePlan plan =
        sample::build_plan(*spec, 1, kBudget, params);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    fnv_mix(h, plan.total_instructions);
    fnv_mix(h, plan.intervals);
    fnv_mix(h, plan.unique_blocks);
    fnv_mix(h, plan.clusters);
    fnv_mix(h, plan.bic_by_k.size());
    for (const double bic : plan.bic_by_k) fnv_double(h, bic);
    fnv_mix(h, plan.slices.size());
    for (const sample::Slice& s : plan.slices) {
      fnv_mix(h, s.start);
      fnv_mix(h, s.instructions);
      fnv_mix(h, s.interval_index);
      fnv_mix(h, s.cluster);
      fnv_double(h, s.weight);
      fnv_mix(h, s.warm_start);
      fnv_mix(h, s.warm_lines.size());
      for (const Addr line : s.warm_lines) fnv_mix(h, line);
      std::vector<workload::DynInst> recs(1000);
      (void)s.snapshot->clone()->fill(recs.data(), recs.size());
      for (const workload::DynInst& d : recs) {
        fnv_mix(h, d.pc);
        fnv_mix(h, static_cast<std::uint64_t>(d.op));
        fnv_mix(h, d.dst);
        fnv_mix(h, d.src1);
        fnv_mix(h, d.src2);
        fnv_mix(h, d.data_addr);
        fnv_mix(h, d.next_pc);
        fnv_mix(h, d.taken ? 1U : 0U);
        fnv_mix(h, d.ends_stream ? 1U : 0U);
        fnv_mix(h, d.seq);
      }
    }
    EXPECT_EQ(h, pin) << bench;

    // The profile pass stops exactly where its last interval closes.
    const auto source = spec->make_source(18);
    const sample::TraceProfile profile = sample::profile_source(
        *source, kBudget, params.interval_instructions, params.dim,
        params.warm_lines);
    EXPECT_EQ(source->instructions(), profile.total_instructions) << bench;
    EXPECT_EQ(profile.total_instructions, plan.total_instructions) << bench;
  }
}

/// The next @p n records of @p source, read from a clone of it.
std::vector<workload::DynInst> next_records(
    const workload::TraceSource& source, std::size_t n = 1000) {
  std::vector<workload::DynInst> out(n);
  (void)source.clone()->fill(out.data(), out.size());
  return out;
}

TEST(SamplePlan, WaypointsSitAtIntervalStarts) {
  // 5k intervals: 80 at 400k (a waypoint every 5th interval start) and
  // 200 at 1M (every 13th), so 15 either way.
  const std::pair<std::uint64_t, std::size_t> budgets[] = {{400000, 5},
                                                           {1000000, 13}};
  std::vector<workload::DynInst> batch(4096);
  for (const char* bench : {"eon", "gcc"}) {
    const auto spec = workload::synthetic_workload(bench, 1);
    for (const auto& [budget, every] : budgets) {
      const std::string what =
          std::string(bench) + " at " + std::to_string(budget);
      const auto source = spec->make_source(18);
      const sample::TraceProfile profile =
          sample::profile_source(*source, budget, 5000, 16, 256);
      EXPECT_EQ(source->instructions(), profile.total_instructions) << what;
      ASSERT_EQ(profile.waypoints.size(), 15u) << what;
      // Each waypoint continues exactly like a fresh source walked to
      // its interval start with fill().
      const auto fresh = spec->make_source(18);
      for (std::size_t j = 0; j < profile.waypoints.size(); ++j) {
        const std::uint64_t start = profile.intervals[(j + 1) * every].start;
        ASSERT_EQ(profile.waypoints[j]->instructions(), start)
            << what << " waypoint " << j;
        while (fresh->instructions() < start) {
          (void)fresh->fill(batch.data(),
                            static_cast<std::size_t>(std::min<std::uint64_t>(
                                batch.size(), start - fresh->instructions())));
        }
        workload::expect_same_records(
            next_records(*profile.waypoints[j]), next_records(*fresh),
            what + " waypoint " + std::to_string(j));
      }
    }
  }
}

TEST(SamplePlan, WaypointSnapshotsMatchAWalkFromZero) {
  constexpr std::uint64_t kBudget = 400000;
  sample::SamplingParams knobs;
  knobs.enabled = true;
  knobs.interval_instructions = 5000;
  knobs.max_clusters = 6;
  knobs.warmup_intervals = 3;
  const sample::ResolvedSamplingParams params = knobs.resolve(kBudget);

  // eon's generator trace, and the same trace recorded to a file (past
  // the profile's end, so the replay never wraps) and replayed.
  const auto generated = workload::synthetic_workload("eon", 1);
  workload::TraceHeader header;
  header.benchmark = "eon";
  header.program_seed = 1;
  header.trace_seed = 18;
  workload::TraceGenerator walk(generated->program(), header.trace_seed);
  const std::string path = fresh_file("eon.pstr");
  workload::write_trace_file(path, header,
                             workload::read_streams(walk, kBudget + 1000));
  const std::pair<const char*, std::shared_ptr<const workload::WorkloadSpec>>
      specs[] = {{"generator", generated},
                 {"replay", workload::load_replay_spec(path)}};

  for (const auto& [what, spec] : specs) {
    const sample::SamplePlan plan =
        sample::build_plan(*spec, 1, kBudget, params);
    ASSERT_GT(plan.slices.size(), 1u) << what;
    // build_plan's snapshot walk resumed from these same waypoints.
    const auto source = spec->make_source(18);
    sample::TraceProfile profile = sample::profile_source(
        *source, kBudget, params.interval_instructions, params.dim,
        params.warm_lines);
    sample::SamplePlan from_waypoints = plan;
    const std::uint64_t short_walk = sample::attach_snapshots(
        from_waypoints, *spec, std::move(profile.waypoints));
    sample::SamplePlan from_zero = plan;
    const std::uint64_t long_walk = sample::attach_snapshots(from_zero, *spec);
    EXPECT_EQ(long_walk, plan.slices.back().warm_start) << what;
    EXPECT_LT(short_walk, long_walk) << what;
    for (std::size_t i = 0; i < plan.slices.size(); ++i) {
      const std::string at = std::string(what) + " slice " + std::to_string(i);
      const std::vector<workload::DynInst> expected =
          next_records(*from_zero.slices[i].snapshot);
      workload::expect_same_records(next_records(*plan.slices[i].snapshot),
                                    expected, at);
      workload::expect_same_records(
          next_records(*from_waypoints.slices[i].snapshot), expected, at);
    }
  }
}

TEST(PlanCache, ConcurrentFirstTouchSharesOnePlan) {
  // A budget no other test plans at, so all eight threads race the
  // first build of this key.
  constexpr std::uint64_t kBudget = 90000;
  const auto cfg = full_point(kBudget).machine_config();
  const auto base = sample::base_workload(cfg);
  std::vector<std::shared_ptr<const sample::SamplePlan>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      got[i] = sample::get_or_build_plan(*base, cfg.seed, kBudget,
                                         smoke_params(kBudget));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& plan : got) EXPECT_EQ(plan.get(), got[0].get());
  EXPECT_FALSE(got[0]->slices.empty());
}

TEST(PlanCache, FailedBuildIsNotCached) {
  constexpr std::uint64_t kBudget = 80000;
  const auto cfg = full_point(kBudget).machine_config();
  const auto base = sample::base_workload(cfg);
  // build_plan refuses disabled params, and the plan key ignores
  // `enabled`: the retry below asks for the very key that failed.
  auto params = smoke_params(kBudget);
  params.enabled = false;
  EXPECT_THROW(
      (void)sample::get_or_build_plan(*base, cfg.seed, kBudget, params),
      SimError);
  params.enabled = true;
  const auto plan =
      sample::get_or_build_plan(*base, cfg.seed, kBudget, params);
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->slices.empty());
}

TEST(SampleCheckpoint, RoundTripsEveryFieldAndFileBytes) {
  const sample::SamplePlan plan = eon_plan();

  const std::vector<std::uint8_t> bytes = sample::serialize_checkpoint(plan);
  const sample::SamplePlan back =
      sample::deserialize_checkpoint(bytes.data(), bytes.size());

  EXPECT_TRUE(back.params.enabled);
  EXPECT_EQ(back.params.interval_instructions,
            plan.params.interval_instructions);
  EXPECT_EQ(back.params.dim, plan.params.dim);
  EXPECT_EQ(back.params.max_clusters, plan.params.max_clusters);
  EXPECT_EQ(back.params.warm_lines, plan.params.warm_lines);
  EXPECT_EQ(back.params.warmup_intervals, plan.params.warmup_intervals);
  EXPECT_EQ(back.workload, plan.workload);
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.total_instructions, plan.total_instructions);
  EXPECT_EQ(back.intervals, plan.intervals);
  EXPECT_EQ(back.unique_blocks, plan.unique_blocks);
  EXPECT_EQ(back.clusters, plan.clusters);
  ASSERT_EQ(back.slices.size(), plan.slices.size());
  for (std::size_t i = 0; i < plan.slices.size(); ++i) {
    EXPECT_EQ(back.slices[i].start, plan.slices[i].start);
    EXPECT_EQ(back.slices[i].instructions, plan.slices[i].instructions);
    EXPECT_EQ(back.slices[i].interval_index, plan.slices[i].interval_index);
    EXPECT_EQ(back.slices[i].cluster, plan.slices[i].cluster);
    EXPECT_EQ(back.slices[i].weight, plan.slices[i].weight);
    EXPECT_EQ(back.slices[i].warm_start, plan.slices[i].warm_start);
    EXPECT_EQ(back.slices[i].warm_lines, plan.slices[i].warm_lines);
  }
  // v1's trailing machine-state count is always 0.
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.end() - 4, bytes.end()),
            std::vector<std::uint8_t>(4, 0));

  // File round-trip: write, read, re-serialize to identical bytes.
  const std::string path = fresh_file("plan.psck");
  sample::write_checkpoint_file(path, plan);
  const sample::SamplePlan from_file = sample::read_checkpoint_file(path);
  EXPECT_EQ(sample::serialize_checkpoint(from_file), bytes);
}

TEST(SampleCheckpoint, RoundTrippedPlanRunsByteIdentically) {
  const RunPoint point = sampled_point();
  const cpu::MachineConfig cfg = point.machine_config();
  const auto base = sample::base_workload(cfg);
  const sample::SamplePlan fresh = eon_plan();
  const std::vector<std::uint8_t> bytes = sample::serialize_checkpoint(fresh);
  sample::SamplePlan back =
      sample::deserialize_checkpoint(bytes.data(), bytes.size());

  // PSCK carries no trace state: a read-back plan cannot run until its
  // snapshots are attached, and then it runs exactly like the fresh one.
  EXPECT_THROW((void)sample::run_sampled_point_with_plan(cfg, base, back),
               SimError);
  sample::attach_snapshots(back, *base);
  EXPECT_EQ(
      line_of(point, sample::run_sampled_point_with_plan(cfg, base, back)),
      line_of(point, sample::run_sampled_point_with_plan(cfg, base, fresh)));
}

TEST(SampleCheckpoint, RejectsCorruptBytes) {
  const sample::SamplePlan plan = eon_plan();
  std::vector<std::uint8_t> bytes = sample::serialize_checkpoint(plan);

  // Bad magic.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                 SimError);
  }
  // Unsupported version.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = 99;
    EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                 SimError);
  }
  // Truncation anywhere in the tail.
  EXPECT_THROW(sample::deserialize_checkpoint(bytes.data(), bytes.size() - 1),
               SimError);
  EXPECT_THROW(sample::deserialize_checkpoint(bytes.data(), 10), SimError);
  // Trailing garbage.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.push_back(0);
    EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                 SimError);
  }
  // Lying counts fail typed before anything is reserved for them. A
  // count is refused once its items, each at their smallest encoding
  // (slice 48 bytes, warm line 8), overrun the bytes left; the state
  // count is refused whenever it is not 0.
  const auto u32_at = [](const std::vector<std::uint8_t>& b, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(b[at + i]) << (8 * i);
    }
    return v;
  };
  const auto with_u32 = [](std::vector<std::uint8_t> b, std::size_t at,
                           std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    return b;
  };
  const std::size_t slice_count_at = 72 + plan.workload.size();
  const std::size_t warm_count_at = slice_count_at + 4 + 44;
  const std::size_t state_count_at = bytes.size() - 4;
  ASSERT_EQ(u32_at(bytes, slice_count_at), plan.slices.size());
  ASSERT_EQ(u32_at(bytes, warm_count_at),
            plan.slices.front().warm_lines.size());
  ASSERT_EQ(u32_at(bytes, state_count_at), 0u);
  const std::pair<std::size_t, std::size_t> counts[] = {
      {slice_count_at, 48}, {warm_count_at, 8}, {state_count_at, 8}};
  for (const auto& [at, item_bytes] : counts) {
    const std::size_t left = bytes.size() - at - 4;
    for (const std::uint32_t lie :
         {0xffffffffU, static_cast<std::uint32_t>(left / item_bytes + 1)}) {
      const std::vector<std::uint8_t> bad = with_u32(bytes, at, lie);
      EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                   SimError)
          << "count at byte " << at << " = " << lie;
    }
  }
  // The 79-byte header that ends in a slice count of 0xffffffff.
  {
    const std::vector<std::uint8_t> bad = with_u32(
        std::vector<std::uint8_t>(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(slice_count_at + 4)),
        slice_count_at, 0xffffffffU);
    ASSERT_EQ(bad.size(), 79u);
    EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                 SimError);
  }
  // A missing file is a SimError, not a crash.
  EXPECT_THROW(sample::read_checkpoint_file(fresh_file("absent.psck")),
               SimError);
}

TEST(SamplePrefetcherState, SaveRestoreSymmetryPerScheme) {
  // Warmed machines for a state-carrying scheme and the empty baseline:
  // whenever save_state says yes, a same-shape restore must accept the
  // bytes; the paired schemes decline both ways (conservative cold
  // restart, counted by the runner).
  const struct {
    const char* preset;
    bool checkpoints;
  } cases[] = {{"stream", true}, {"base", true}, {"clgp-l0", false}};
  for (const auto& c : cases) {
    cpu::MachineConfig cfg =
        sim::make_config(c.preset, cacti::TechNode::um045, 4096);
    cfg.benchmark = "eon";
    cfg.max_instructions = 20000;
    cpu::Cpu machine(cfg);
    (void)machine.run();
    std::vector<std::uint8_t> state;
    const bool saved = machine.prefetcher().save_state(state);
    EXPECT_EQ(saved, c.checkpoints) << c.preset;
    cpu::Cpu fresh(cfg);
    const bool restored =
        fresh.prefetcher_mut().restore_state(state.data(), state.size());
    EXPECT_EQ(restored, c.checkpoints) << c.preset;
  }
}

TEST(SampledRun, ReconstructsFullRunIpcWithinItsErrorBar) {
  for (const char* bench : {"eon", "gzip"}) {
    RunPoint full = full_point(400000);
    full.benchmark = bench;
    const PointResult fr = campaign::simulate(full);
    ASSERT_FALSE(fr.result.sampled);

    RunPoint sampled = full;
    sampled.sampling = smoke_params(400000);
    const PointResult sr = campaign::simulate(sampled);
    ASSERT_TRUE(sr.result.sampled);
    EXPECT_NE(sampled.key(), full.key())
        << "sampled estimates must never alias full-run results";
    EXPECT_GT(sr.result.ipc_error, 0.0);
    EXPECT_GE(sr.result.ipc_error,
              sr.result.ipc * sample::kMinRelativeIpcErrorPct / 100.0);
    EXPECT_NEAR(sr.result.ipc, fr.result.ipc, sr.result.ipc_error)
        << bench << ": reconstruction outside its own error bar";
    EXPECT_LT(sr.result.sample_simulated_instructions,
              full.instructions / 3)
        << bench << ": sampling must simulate a small fraction";
    EXPECT_GT(sr.result.sample_slices, 0u);
    EXPECT_LE(sr.result.sample_cold_starts, sr.result.sample_slices);
  }
}

/// 2 presets x 2 sizes x 2 benchmarks, sampled under the smoke knobs.
CampaignSpec sampled_tiny_spec() {
  CampaignSpec spec;
  spec.name = "sampled-tiny";
  spec.title = "sampled test grid";
  spec.presets = {"base", "clgp-l0"};
  spec.nodes = {cacti::TechNode::um045};
  spec.l1_sizes = {1024, 4096};
  spec.benchmarks = {"eon", "gzip"};
  spec.instructions = 60000;
  spec.sampling.enabled = true;
  spec.sampling.interval_instructions = 5000;
  spec.sampling.max_clusters = 4;
  spec.sampling.warmup_intervals = 3;
  return spec;
}

TEST(SampledCampaign, StoreBytesIdenticalForAnyWorkerCount) {
  const CampaignSpec spec = sampled_tiny_spec();
  std::string reference;
  for (const unsigned jobs : {1u, 4u}) {
    std::string store_name = "w";  // (two steps: GCC 12 -Wrestrict FP)
    store_name += std::to_string(jobs);
    store_name += ".jsonl";
    const std::string path = fresh_file(store_name);
    const auto outcome = campaign::run_campaign(spec, path, jobs);
    EXPECT_EQ(outcome.executed, 8u);
    const std::string bytes = read_file(path);
    EXPECT_NE(bytes.find("\"sampling\":{"), std::string::npos);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << jobs << " workers diverged";
    }
  }
}

TEST(SampledCampaign, PointsSharingAPlanWaitForOneBuild) {
  // Four points of one plan, at a budget no other test plans at: the
  // 4-worker run goes first, with a cold cache, so three points wait on
  // the first point's build; the 1-worker run then finds the plan
  // cached. Both must write the same bytes.
  CampaignSpec spec;
  spec.name = "sampled-shared-plan";
  spec.presets = {"base", "base-pipelined", "fdp-l0", "clgp-l0"};
  spec.nodes = {cacti::TechNode::um045};
  spec.l1_sizes = {4096};
  spec.benchmarks = {"gzip"};
  spec.instructions = 70000;
  spec.sampling.enabled = true;
  spec.sampling.interval_instructions = 5000;
  spec.sampling.max_clusters = 4;
  spec.sampling.warmup_intervals = 3;
  std::string reference;
  for (const unsigned jobs : {4u, 1u}) {
    std::string store_name = "shared-w";  // (steps: GCC 12 -Wrestrict FP)
    store_name += std::to_string(jobs);
    store_name += ".jsonl";
    const std::string path = fresh_file(store_name);
    const auto outcome = campaign::run_campaign(spec, path, jobs);
    EXPECT_EQ(outcome.executed, 4u);
    EXPECT_EQ(outcome.quarantined, 0u);
    const std::string bytes = read_file(path);
    EXPECT_NE(bytes.find("\"sampling\":{"), std::string::npos);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << jobs << " workers diverged";
    }
  }
}

TEST(SampledCampaign, ReportSpeedupComesFromTheStore) {
  const CampaignSpec spec = sampled_tiny_spec();
  const std::string path = fresh_file("speedup.jsonl");
  const std::string sidecar = campaign::perf_log_path(path);
  std::filesystem::remove(sidecar);
  ASSERT_EQ(campaign::run_campaign(spec, path, 2).executed, 8u);

  const ResultStore store = ResultStore::load(path);
  const campaign::ResultGrid grid(spec, store);
  const auto sampling = [&grid](const campaign::PerfLog& perf) {
    std::ostringstream out;
    JsonWriter json(out, JsonWriter::Style::Compact);
    campaign::write_report(json, grid, perf);
    return json::parse(out.str()).at("sampling");
  };

  const json::Value fresh = sampling(campaign::PerfLog::load(sidecar));
  const double points = fresh.at("points").as_number();
  EXPECT_EQ(points, 8.0);
  const double expected =
      static_cast<double>(grid.instructions()) * points /
      fresh.at("simulated_instructions").as_number();
  EXPECT_NEAR(fresh.at("effective_speedup").as_number(), expected,
              1e-9 * expected);

  // A resume after the store lost its tail (a torn or truncated write)
  // recomputes those points, so their host records appear twice. The
  // speedup reads the store, not the sidecar, and must not move.
  const std::string records = read_file(sidecar);
  {
    std::ofstream out(sidecar, std::ios::app);
    out << records.substr(records.find('\n') + 1);
  }
  EXPECT_EQ(campaign::PerfLog::load(sidecar).size(), 15u);
  EXPECT_EQ(sampling(campaign::PerfLog::load(sidecar))
                .at("effective_speedup")
                .as_number(),
            fresh.at("effective_speedup").as_number());
}

TEST(SampledCampaign, ReportSamplingSumsOnlyItsOwnGrid) {
  // A store shared with the same grid at a second budget holds both
  // grids' points; the report's sampling block counts only its own.
  const CampaignSpec spec = sampled_tiny_spec();
  const auto sampling = [&spec](const std::string& path) {
    const ResultStore store = ResultStore::load(path);
    const campaign::ResultGrid grid(spec, store);
    std::ostringstream out;
    JsonWriter json(out, JsonWriter::Style::Compact);
    campaign::write_report(json, grid);
    return json::parse(out.str()).at("sampling");
  };
  const std::string fresh = fresh_file("own.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, fresh, 2).executed, 8u);
  const std::string mixed = fresh_file("mixed.jsonl");
  std::filesystem::copy_file(fresh, mixed);
  CampaignSpec other = spec;
  other.instructions = 80000;
  ASSERT_EQ(campaign::run_campaign(other, mixed, 2).executed, 8u);

  const json::Value own = sampling(fresh);
  const json::Value shared = sampling(mixed);
  EXPECT_EQ(own.at("points").as_number(), 8.0);
  for (const char* field : {"points", "max_ipc_error", "cold_starts",
                            "simulated_instructions", "effective_speedup"}) {
    EXPECT_EQ(shared.at(field).as_number(), own.at(field).as_number())
        << field;
  }
}

TEST(SampledCampaign, PlanBuildErrorQuarantinesItsPoint) {
  // "nope" is no benchmark: the point cannot build its plan, the cache
  // keeps no failed build, so each attempt retries it, and the point is
  // quarantined while the rest of the grid completes.
  CampaignSpec spec;
  spec.name = "sampled-broken";
  spec.presets = {"base"};
  spec.nodes = {cacti::TechNode::um045};
  spec.l1_sizes = {4096};
  spec.benchmarks = {"eon", "nope"};
  spec.instructions = 60000;
  spec.sampling.enabled = true;
  spec.sampling.interval_instructions = 5000;
  spec.sampling.max_clusters = 4;
  const std::string path = fresh_file("broken.jsonl");
  const auto outcome = campaign::run_campaign(spec, path, 2);
  EXPECT_EQ(outcome.executed, 2u);
  ASSERT_EQ(outcome.quarantined, 1u);
  EXPECT_EQ(outcome.failures[0].benchmark, "nope");
  EXPECT_EQ(outcome.failures[0].error_class, "SimError");
  EXPECT_EQ(outcome.failures[0].attempts, 2u);
  EXPECT_EQ(ResultStore::load(path).entries().size(), 1u);

  campaign::FaultPolicy strict;
  strict.strict = true;
  EXPECT_THROW((void)campaign::run_campaign(spec, fresh_file("strict.jsonl"),
                                            2, {}, strict),
               SimError);
}

TEST(SampledCompare, ErrorBandWidensTheGate) {
  const auto make_point = [](double ipc, double ipc_error) {
    PointResult r;
    r.key = "00000000deadbeef";
    r.preset = "clgp-l0";
    r.config = "clgp-l0";
    r.node = "0.045um";
    r.benchmark = "eon";
    r.l1i_size = 4096;
    r.instructions = 100000;
    r.result.instructions = 100000;
    r.result.cycles = static_cast<Cycle>(100000.0 / ipc);
    r.result.ipc = ipc;
    if (ipc_error > 0.0) {
      r.result.sampled = true;
      r.result.ipc_error = ipc_error;
    }
    return r;
  };
  const auto diff = [&](double base_ipc, double base_err, double cand_ipc,
                        double cand_err) {
    ResultStore baseline;
    ResultStore candidate;
    baseline.insert(make_point(base_ipc, base_err));
    candidate.insert(make_point(cand_ipc, cand_err));
    return campaign::compare_stores(baseline, candidate, 2.0);
  };

  // Full runs: a 4% drop beats the 2% threshold and classifies.
  const auto full = diff(1.0, 0.0, 0.96, 0.0);
  EXPECT_EQ(full.regressions.size(), 1u);
  EXPECT_EQ(full.regressions[0].error_band_pct, 0.0);

  // The same drop between sampled estimates with +/-0.05 bars sits
  // inside the pair's 10% combined band: noise, not a regression.
  const auto sampled = diff(1.0, 0.05, 0.96, 0.05);
  EXPECT_EQ(sampled.common, 1u);
  EXPECT_TRUE(sampled.regressions.empty());
  EXPECT_TRUE(sampled.improvements.empty());

  // A drop beyond the combined band still classifies.
  const auto big = diff(1.0, 0.02, 0.9, 0.02);
  ASSERT_EQ(big.regressions.size(), 1u);
  EXPECT_NEAR(big.regressions[0].error_band_pct, 4.0, 1e-9);
}

TEST(SampledStore, FullRunLineMatchesGoldenPin) {
  // Byte-level pin of one full-run store line: the sampling feature must
  // be strictly additive, so this exact line (no "sampling" block) is
  // what any pre-sampling version of the store would also produce. If a
  // simulator change moves the numbers, re-pin from the failure output.
  const PointResult r = campaign::simulate(full_point(800));
  const std::string line = campaign::encode_line(r);
  EXPECT_EQ(line.find("\"sampling\""), std::string::npos);
  const std::string pinned =
      "{\"key\":\"57b5d309ab0ae267\",\"preset\":\"clgp-l0\","
      "\"config\":\"clgp-l0\",\"node\":\"0.045um\",\"l1i_size\":4096,"
      "\"benchmark\":\"eon\",\"instructions\":800,\"seed\":1,"
      "\"result\":{\"instructions\":800,\"cycles\":3315,"
      "\"ipc\":0.2413273002,\"mispredicts_per_kilo_instr\":11.25,"
      "\"recoveries\":9,\"blocks_predicted\":130,\"lines_fetched\":114,"
      "\"prefetches_issued\":68,\"l2_hits\":70,\"l2_misses\":96,"
      "\"dcache_misses\":112,"
      "\"fetch_sources\":{\"PB\":105,\"il0\":4,\"il1\":0,\"ul2\":4,"
      "\"Mem\":1},"
      "\"prefetch_sources\":{\"PB\":188,\"il0\":0,\"il1\":9,\"ul2\":31,"
      "\"Mem\":7}}}";
  EXPECT_EQ(line, pinned);
}

TEST(SampledStore, SampledLineMatchesGoldenPin) {
  // Byte-level pin of one sampled store line, recorded when every slice
  // still walked the trace from instruction 0 to its start: starting
  // slices from plan snapshots must not move a byte. Re-pin only for a
  // deliberate simulator or sampling change.
  const std::string line =
      campaign::encode_line(campaign::simulate(sampled_point()));
  const std::string pinned =
      "{\"key\":\"6c832fa5b7c5a6d0\",\"preset\":\"clgp-l0\","
      "\"config\":\"clgp-l0\",\"node\":\"0.045um\",\"l1i_size\":4096,"
      "\"benchmark\":\"eon\",\"instructions\":120000,\"seed\":1,"
      "\"result\":{\"instructions\":120000,\"cycles\":122948,"
      "\"ipc\":0.9760195825,\"mispredicts_per_kilo_instr\":6.391666667,"
      "\"recoveries\":767,\"blocks_predicted\":12229,"
      "\"lines_fetched\":14362,\"prefetches_issued\":5188,"
      "\"l2_hits\":1962,\"l2_misses\":430,\"dcache_misses\":621,"
      "\"fetch_sources\":{\"PB\":13933,\"il0\":335,\"il1\":15,"
      "\"ul2\":79,\"Mem\":0},"
      "\"prefetch_sources\":{\"PB\":26042,\"il0\":0,\"il1\":3339,"
      "\"ul2\":1230,\"Mem\":18},"
      "\"sampling\":{\"ipc_error\":0.07447571861,\"intervals\":24,"
      "\"clusters\":4,\"slices\":4,\"cold_starts\":4,"
      "\"simulated_instructions\":65345}}}";
  EXPECT_EQ(line, pinned);
}

}  // namespace
