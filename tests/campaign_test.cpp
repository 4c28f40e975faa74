// Campaign-layer coverage: grid expansion and content-hash keys, the
// in-order scheduler's determinism across worker counts,
// resume-equals-fresh-run store identity, corrupt/truncated store
// recovery, baseline comparison, and report determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bench/figures.hpp"
#include "campaign/compare.hpp"
#include "campaign/engine.hpp"
#include "campaign/perf.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "common/faultpoint.hpp"
#include "common/json.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "expect_same_stats.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

namespace {

using namespace prestage;
using campaign::CampaignSpec;
using campaign::PointResult;
using campaign::ResultStore;
using campaign::RunPoint;

/// Per-test-case file path (ctest -j runs cases concurrently against the
/// same TempDir, so fixed names would collide).
std::string test_file(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

/// test_file() that also deletes any leftover from a previous test run —
/// result stores are append-only, so a stale file would turn a fresh run
/// into a resume.
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

/// 2 presets x 1 node x 2 sizes x 2 benchmarks = 8 points, ~1ms each.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.title = "test grid";
  spec.presets = {"base", "clgp-l0"};
  spec.nodes = {cacti::TechNode::um045};
  spec.l1_sizes = {1024, 4096};
  spec.benchmarks = {"eon", "gzip"};
  spec.instructions = 800;
  return spec;
}

TEST(CampaignSpec, ExpandCanonicalizesSpecSpellings) {
  // "clgp+l0" and "clgp-l0" are the same configuration: their run
  // points must share keys, so stores pair across spellings.
  CampaignSpec a = tiny_spec();
  CampaignSpec b = tiny_spec();
  b.presets = {"base", "clgp+l0"};
  const auto pa = campaign::expand(a);
  const auto pb = campaign::expand(b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].key(), pb[i].key());
    EXPECT_EQ(pb[i].config, pa[i].config) << "canonical config shared";
  }
  // The grid's own spelling is preserved for provenance.
  EXPECT_EQ(pb.back().preset, "clgp+l0");
  EXPECT_EQ(pb.back().config, "clgp-l0");
}

TEST(CampaignSpec, ExpandIsPresetMajorWithUniqueStableKeys) {
  const CampaignSpec spec = tiny_spec();
  const auto points = campaign::expand(spec);
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(points.size(), spec.point_count());

  // Preset-major, then node, then size, then benchmark.
  EXPECT_EQ(points[0].preset, "base");
  EXPECT_EQ(points[0].l1i_size, 1024u);
  EXPECT_EQ(points[0].benchmark, "eon");
  EXPECT_EQ(points[1].benchmark, "gzip");
  EXPECT_EQ(points[2].l1i_size, 4096u);
  EXPECT_EQ(points[4].preset, "clgp-l0");

  std::set<std::string> keys;
  for (const RunPoint& p : points) keys.insert(p.key());
  EXPECT_EQ(keys.size(), points.size()) << "keys must be unique";

  // Expansion (and the keys) are a pure function of the spec.
  const auto again = campaign::expand(spec);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].key(), again[i].key());
  }
}

TEST(CampaignSpec, KeyEmbedsEveryAxis) {
  const RunPoint base{.preset = "base",
                      .config = "base",
                      .node = cacti::TechNode::um045,
                      .l1i_size = 4096,
                      .benchmark = "eon",
                      .instructions = 1000,
                      .seed = 1,
                      .sampling = {}};
  RunPoint p = base;
  p.config = "clgp";
  EXPECT_NE(p.key(), base.key());
  p = base;
  p.preset = "some-other-spelling";
  EXPECT_EQ(p.key(), base.key())
      << "keys follow the canonical config, not the spelling";
  p = base;
  p.node = cacti::TechNode::um090;
  EXPECT_NE(p.key(), base.key());
  p = base;
  p.l1i_size = 8192;
  EXPECT_NE(p.key(), base.key());
  p = base;
  p.benchmark = "gzip";
  EXPECT_NE(p.key(), base.key());
  p = base;
  p.instructions = 2000;
  EXPECT_NE(p.key(), base.key());
  p = base;
  p.seed = 2;
  EXPECT_NE(p.key(), base.key());
  EXPECT_EQ(base.key().size(), 16u) << "16 hex digits of FNV-1a 64";
}

/// A stored point with a distinct value in every field a store line
/// carries; @p sampled adds the sampling block. Its doubles have at most
/// ten significant digits, so the writer's "%.10g" keeps them exact.
PointResult hand_built_point(bool sampled) {
  PointResult p;
  p.key = "0123456789abcdef";
  p.preset = "clgp+l0";
  p.config = "clgp-l0";
  p.node = "0.09um";
  p.benchmark = "gcc";
  p.l1i_size = 2048;
  p.instructions = 5000;
  p.seed = 7;
  cpu::RunResult& r = p.result;
  r.benchmark = p.benchmark;
  r.instructions = 5001;
  r.cycles = 9002;
  r.ipc = 0.5555555556;
  r.mispredicts_per_kilo_instr = 12.125;
  std::uint64_t next = 100;
  for (const auto& c : cpu::kRunCounts) r.*c.member = next++;
  for (const auto& src : cpu::kRunSources) {
    for (int i = 0; i < kNumFetchSources; ++i) {
      (r.*src.member).add(static_cast<FetchSource>(i), next++);
    }
  }
  if (sampled) {
    r.sampled = true;
    r.ipc_error = 0.03125;
    for (const auto& c : cpu::kSampleCounts) r.*c.member = next++;
  }
  return p;
}

TEST(CampaignStore, LineRoundTripsExactly) {
  // A simulated point's doubles go through "%.10g" once, so its input
  // here is the record as first stored.
  const PointResult simulated = campaign::decode_line(campaign::encode_line(
      campaign::simulate(campaign::expand(tiny_spec())[3])));
  for (const PointResult& original :
       {simulated, hand_built_point(false), hand_built_point(true)}) {
    const std::string line = campaign::encode_line(original);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const PointResult decoded = campaign::decode_line(line);
    EXPECT_EQ(decoded.key, original.key);
    EXPECT_EQ(decoded.preset, original.preset);
    EXPECT_EQ(decoded.config, original.config);
    EXPECT_EQ(decoded.node, original.node);
    EXPECT_EQ(decoded.benchmark, original.benchmark);
    EXPECT_EQ(decoded.l1i_size, original.l1i_size);
    EXPECT_EQ(decoded.instructions, original.instructions);
    EXPECT_EQ(decoded.seed, original.seed);
    expect_same_stats(decoded.result, original.result, line);
    // Re-encoding the decoded record must reproduce the line byte for
    // byte (store idempotence).
    EXPECT_EQ(campaign::encode_line(decoded), line);
  }
}

TEST(CampaignStore, OutOfRangeCountsAreDroppedAsCorrupt) {
  // A count with no uint64 value (negative, fractional, or past 2^64)
  // must make its line corrupt, so the point is recomputed, rather than
  // decode to a wrapped or truncated number.
  const std::string good = campaign::encode_line(hand_built_point(false));
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to) + '\n';
  };
  const std::string path = fresh_file("store.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << with("\"cycles\":9002", "\"cycles\":-5646")
        << with("\"l1i_size\":2048", "\"l1i_size\":4096.5")
        << with("\"l2_hits\":104", "\"l2_hits\":1e300") << good << '\n';
  }
  const ResultStore store = ResultStore::load(path);
  EXPECT_EQ(store.load_stats().skipped, 3u);
  EXPECT_EQ(store.load_stats().loaded, 1u);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.entries()[0].result.cycles, 9002u);
}

TEST(CampaignEngine, StoreBytesIdenticalForAnyWorkerCount) {
  const CampaignSpec spec = tiny_spec();
  std::string reference;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    std::string store_name = "w";  // (two steps: GCC 12 -Wrestrict FP)
    store_name += std::to_string(jobs);
    store_name += ".jsonl";
    const std::string path = fresh_file(store_name);
    const auto outcome = campaign::run_campaign(spec, path, jobs);
    EXPECT_EQ(outcome.executed, 8u);
    const std::string bytes = read_file(path);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << jobs << " workers diverged";
    }
  }
}

TEST(CampaignEngine, ResumeAfterTruncationReproducesFreshBytes) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = fresh_file("store.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, path, 2).executed, 8u);
  const std::string fresh = read_file(path);

  // Kill-and-resume: keep only the first half of the lines.
  std::istringstream lines(fresh);
  std::ostringstream half;
  std::string line;
  for (int i = 0; i < 4 && std::getline(lines, line); ++i) {
    half << line << '\n';
  }
  { std::ofstream out(path, std::ios::trunc); out << half.str(); }

  const auto outcome = campaign::run_campaign(spec, path, 2);
  EXPECT_EQ(outcome.total, 8u);
  EXPECT_EQ(outcome.reused, 4u) << "surviving points must not recompute";
  EXPECT_EQ(outcome.executed, 4u);
  EXPECT_EQ(read_file(path), fresh);

  // A complete store executes nothing further.
  const auto noop = campaign::run_campaign(spec, path, 2);
  EXPECT_EQ(noop.reused, 8u);
  EXPECT_EQ(noop.executed, 0u);
  EXPECT_EQ(read_file(path), fresh);
}

TEST(CampaignEngine, PerfSidecarAppendsInStoreOrderForAnyWorkerCount) {
  // The sidecar is written from inside run_ordered's serialized sink,
  // so for any worker count its key sequence must equal the store's —
  // this pins the locking discipline the .perf append path relies on.
  const CampaignSpec spec = tiny_spec();
  for (const unsigned jobs : {1u, 8u}) {
    const std::string path = fresh_file("perf" + std::to_string(jobs));
    std::filesystem::remove(campaign::perf_log_path(path));
    ASSERT_EQ(campaign::run_campaign(spec, path, jobs).executed, 8u);

    const ResultStore store = ResultStore::load(path);
    std::vector<std::string> store_keys;
    for (const PointResult& r : store.entries()) {
      store_keys.push_back(r.key);
    }
    const auto log = campaign::PerfLog::load(campaign::perf_log_path(path));
    ASSERT_EQ(log.size(), 8u) << jobs << " workers";
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log.records()[i].key, store_keys[i])
          << "sidecar order diverged from store order at " << i << " with "
          << jobs << " workers";
      EXPECT_GE(log.records()[i].host_seconds, 0.0);
    }
  }
}

TEST(CampaignEngine, PerfSidecarKeepsRecomputedDuplicatesOnResume) {
  // Kill-and-resume recomputes the dropped half; the append-only
  // sidecar must record that host time twice while the store heals to
  // a single generation.
  const CampaignSpec spec = tiny_spec();
  const std::string path = fresh_file("store.jsonl");
  std::filesystem::remove(campaign::perf_log_path(path));
  ASSERT_EQ(campaign::run_campaign(spec, path, 8).executed, 8u);
  const std::string fresh = read_file(path);

  std::istringstream lines(fresh);
  std::ostringstream half;
  std::string line;
  for (int i = 0; i < 4 && std::getline(lines, line); ++i) {
    half << line << '\n';
  }
  { std::ofstream out(path, std::ios::trunc); out << half.str(); }
  ASSERT_EQ(campaign::run_campaign(spec, path, 8).executed, 4u);

  const auto log = campaign::PerfLog::load(campaign::perf_log_path(path));
  EXPECT_EQ(log.size(), 12u) << "8 fresh + 4 recomputed records";
  const auto scoped = campaign::scope_to_spec(log, spec);
  EXPECT_EQ(scoped.size(), 12u) << "same-grid duplicates are kept";
  EXPECT_EQ(campaign::summarize_perf(scoped).total.points, 12u);
}

TEST(CampaignEngine, TornFinalWriteHealsWithoutCorruptingNewRecords) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = fresh_file("store.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, path, 2).executed, 8u);
  const std::string fresh = read_file(path);

  // Kill mid-append: 3 complete lines plus half a record, NO newline.
  std::istringstream lines(fresh);
  std::ostringstream torn;
  std::string line;
  for (int i = 0; i < 3 && std::getline(lines, line); ++i) {
    torn << line << '\n';
  }
  std::getline(lines, line);
  torn << line.substr(0, line.size() / 2);
  { std::ofstream out(path, std::ios::trunc); out << torn.str(); }

  // Resume must terminate the torn line before appending, so the five
  // recomputed records all land parseable — and the post-run compaction
  // then rewrites the store without the garbage line, so the healed
  // file carries no scar tissue at all.
  const auto outcome = campaign::run_campaign(spec, path, 2);
  EXPECT_EQ(outcome.reused, 3u);
  EXPECT_EQ(outcome.executed, 5u);
  EXPECT_TRUE(outcome.compacted) << "the torn line forces a rewrite";

  const ResultStore healed = ResultStore::load(path);
  EXPECT_EQ(healed.load_stats().loaded, 8u);
  EXPECT_EQ(healed.load_stats().skipped, 0u)
      << "compaction physically removed the torn line";
  const campaign::ResultGrid grid(spec, healed);
  EXPECT_EQ(grid.missing(), 0u);
  EXPECT_EQ(read_file(path), fresh)
      << "healed store converges on the never-torn bytes";
  EXPECT_EQ(campaign::run_campaign(spec, path, 2).executed, 0u);
}

TEST(CampaignEngine, CorruptAndTruncatedLinesAreDroppedAndRecomputed) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = fresh_file("store.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, path, 2).executed, 8u);

  // Corrupt line 3 in place and append a truncated tail (as a crash
  // mid-append would) plus a well-formed-JSON-but-not-a-record line.
  std::istringstream lines(read_file(path));
  std::ostringstream damaged;
  std::string line;
  std::string dropped_key;
  for (int i = 0; std::getline(lines, line); ++i) {
    if (i == 2) {
      dropped_key = campaign::decode_line(line).key;
      damaged << "{\"key\":\"broke";  // no newline: torn write
      damaged << '\n';
    } else {
      damaged << line << '\n';
    }
  }
  damaged << "{}\n";
  { std::ofstream out(path, std::ios::trunc); out << damaged.str(); }

  const ResultStore store = ResultStore::load(path);
  EXPECT_EQ(store.load_stats().loaded, 7u);
  EXPECT_EQ(store.load_stats().skipped, 2u);
  EXPECT_FALSE(store.contains(dropped_key));

  const auto outcome = campaign::run_campaign(spec, path, 2);
  EXPECT_EQ(outcome.corrupt_dropped, 2u);
  EXPECT_EQ(outcome.reused, 7u);
  EXPECT_EQ(outcome.executed, 1u) << "only the damaged point recomputes";

  const ResultStore healed = ResultStore::load(path);
  EXPECT_TRUE(healed.contains(dropped_key));
  const campaign::ResultGrid grid(spec, healed);
  EXPECT_EQ(grid.missing(), 0u);
}

TEST(CampaignEngine, QuarantineIsolatesPoisonedPointAndResumeConverges) {
  const CampaignSpec spec = tiny_spec();
  const std::string ref_path = fresh_file("ref.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, ref_path, 2).executed, 8u);
  const std::string ref = read_file(ref_path);
  // An interior grid point: its quarantine leaves a gap the resume must
  // backfill, which is exactly what compaction exists to canonicalize.
  const RunPoint victim = campaign::expand(spec)[3];

  for (const unsigned jobs : {1u, 2u, 8u}) {
    const std::string path =
        fresh_file("store-j" + std::to_string(jobs) + ".jsonl");
    std::filesystem::remove(campaign::failures_log_path(path));

    campaign::RunOutcome faulted;
    {
      faults::ScopedFaults armed("point.execute:fail@key=" + victim.key());
      faulted = campaign::run_campaign(spec, path, jobs);
    }
    // key= defeats the retry loop (it fires on every attempt), so the
    // point quarantines while the other seven complete.
    EXPECT_EQ(faulted.quarantined, 1u) << "jobs=" << jobs;
    EXPECT_EQ(faulted.retried, 0u);
    ASSERT_EQ(faulted.failures.size(), 1u);
    EXPECT_EQ(faulted.failures[0].key, victim.key());
    EXPECT_EQ(faulted.failures[0].error_class, "FaultInjected");
    EXPECT_EQ(faulted.failures[0].attempts, 2u) << "default policy retries once";

    const auto log =
        campaign::FailureLog::load(campaign::failures_log_path(path));
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.records()[0].key, victim.key());
    EXPECT_EQ(log.records()[0].config, victim.config);
    EXPECT_EQ(log.dropped(), 0u);

    const ResultStore partial = ResultStore::load(path);
    EXPECT_EQ(partial.size(), 7u) << "the rest of the grid completed";
    EXPECT_FALSE(partial.contains(victim.key()));

    // Disarmed resume re-offers the quarantined key (it never reached
    // the store) and must converge on the never-faulted bytes.
    const auto resumed = campaign::run_campaign(spec, path, jobs);
    EXPECT_EQ(resumed.reused, 7u);
    EXPECT_EQ(resumed.executed, 1u);
    EXPECT_TRUE(resumed.compacted) << "backfilled gap forces a rewrite";
    EXPECT_EQ(read_file(path), ref) << "jobs=" << jobs;
  }
}

TEST(CampaignEngine, TransientFaultIsRetriedNotQuarantined) {
  const CampaignSpec spec = tiny_spec();
  const std::string ref_path = fresh_file("ref.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, ref_path, 1).executed, 8u);
  const std::string ref = read_file(ref_path);

  const std::string path = fresh_file("store.jsonl");
  campaign::RunOutcome out;
  {
    // A once-trigger fails the first execution attempt and is then
    // spent, so the default policy's single retry succeeds. jobs=1
    // keeps the hit order deterministic.
    faults::ScopedFaults armed("point.execute:fail@1");
    out = campaign::run_campaign(spec, path, 1);
  }
  EXPECT_EQ(out.retried, 1u);
  EXPECT_EQ(out.quarantined, 0u);
  EXPECT_TRUE(out.failures.empty());
  EXPECT_FALSE(out.compacted) << "nothing quarantined: store is canonical";
  EXPECT_FALSE(
      std::filesystem::exists(campaign::failures_log_path(path)))
      << "a clean run must not leave a .failures sidecar";
  EXPECT_EQ(read_file(path), ref)
      << "retries must not perturb the stored bytes";
}

TEST(CampaignEngine, StrictModeRethrowsAnnotatedWithPointIdentity) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = fresh_file("store.jsonl");
  const RunPoint victim = campaign::expand(spec)[2];
  campaign::FaultPolicy policy;
  policy.strict = true;

  faults::ScopedFaults armed("point.execute:fail@key=" + victim.key());
  try {
    campaign::run_campaign(spec, path, 1, {}, policy);
    FAIL() << "strict mode must rethrow the first point error";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(victim.key()), std::string::npos) << what;
    EXPECT_NE(what.find(victim.config), std::string::npos) << what;
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
  }
  EXPECT_FALSE(
      std::filesystem::exists(campaign::failures_log_path(path)))
      << "strict mode never quarantines";
}

TEST(CampaignEngine, ZeroRetriesQuarantinesOnFirstFailure) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = fresh_file("store.jsonl");
  campaign::FaultPolicy policy;
  policy.max_attempts = 1;
  campaign::RunOutcome out;
  {
    faults::ScopedFaults armed("point.execute:fail@1");
    out = campaign::run_campaign(spec, path, 1, {}, policy);
  }
  EXPECT_EQ(out.quarantined, 1u);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].attempts, 1u);
}

TEST(CampaignEngine, DurableModeWritesIdenticalBytes) {
  const CampaignSpec spec = tiny_spec();
  const std::string ref_path = fresh_file("ref.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, ref_path, 2).executed, 8u);

  const std::string path = fresh_file("store.jsonl");
  campaign::FaultPolicy policy;
  policy.durable = true;
  const auto out = campaign::run_campaign(spec, path, 2, {}, policy);
  EXPECT_EQ(out.executed, 8u);
  EXPECT_EQ(read_file(path), read_file(ref_path))
      << "fsync-per-line changes durability, never bytes";
}

TEST(CampaignEngine, WatchdogQuarantinesOverBudgetPointsAndResumeRecovers) {
  const CampaignSpec spec = tiny_spec();
  const std::string ref_path = fresh_file("ref.jsonl");
  ASSERT_EQ(campaign::run_campaign(spec, ref_path, 2).executed, 8u);

  const std::string path = fresh_file("store.jsonl");
  campaign::FaultPolicy policy;
  // A budget no real point can meet: every point must be cancelled at
  // the watchdog's first poll and quarantined as PointCancelled.
  policy.point_host_seconds = 1e-9;
  const auto out = campaign::run_campaign(spec, path, 2, {}, policy);
  EXPECT_EQ(out.quarantined, 8u);
  ASSERT_EQ(out.failures.size(), 8u);
  for (const campaign::FailureRecord& f : out.failures) {
    EXPECT_EQ(f.error_class, "PointCancelled");
  }

  // With the budget lifted, resume completes the grid and converges on
  // the never-budgeted bytes (the budget is host-only, not identity).
  const auto resumed = campaign::run_campaign(spec, path, 2);
  EXPECT_EQ(resumed.executed, 8u);
  EXPECT_EQ(read_file(path), read_file(ref_path));
}

TEST(CampaignEngine, FailureRecordRoundTripsThroughJsonl) {
  campaign::FailureRecord r;
  r.key = "0123456789abcdef";
  r.config = "clgp-l0-pb16";
  r.benchmark = "eon";
  r.error_class = "FaultInjected";
  r.message = "injected fault at point.execute";
  r.attempts = 3;
  const std::string line = campaign::encode_failure_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const campaign::FailureRecord d = campaign::decode_failure_line(line);
  EXPECT_EQ(d.key, r.key);
  EXPECT_EQ(d.config, r.config);
  EXPECT_EQ(d.benchmark, r.benchmark);
  EXPECT_EQ(d.error_class, r.error_class);
  EXPECT_EQ(d.message, r.message);
  EXPECT_EQ(d.attempts, r.attempts);

  EXPECT_THROW((void)campaign::decode_failure_line("{\"key\":\"torn"),
               json::JsonError);
  EXPECT_THROW((void)campaign::decode_failure_line("{}"), json::JsonError);
}

TEST(CampaignReport, GridAggregatesAndReportAreDeterministic) {
  const CampaignSpec spec = tiny_spec();
  const auto results = campaign::run_points(campaign::expand(spec), 2);
  ResultStore store;
  for (const auto& r : results) store.insert(r);

  const campaign::ResultGrid grid(spec, store);
  EXPECT_EQ(grid.missing(), 0u);
  EXPECT_EQ(grid.total_points(), 8u);

  // hmean over the benchmark axis matches a hand computation.
  std::vector<double> ipcs;
  for (const std::string& bench : grid.benchmarks()) {
    ipcs.push_back(
        grid.at("base", cacti::TechNode::um045, 1024, bench)->result.ipc);
  }
  EXPECT_DOUBLE_EQ(grid.hmean_ipc("base", cacti::TechNode::um045, 1024),
                   harmonic_mean(ipcs));

  const auto render = [&] {
    std::ostringstream out;
    JsonWriter json(out);
    campaign::write_report(json, grid);
    return out.str();
  };
  const std::string report = render();
  EXPECT_EQ(report, render()) << "report must be a pure function";
  EXPECT_NE(report.find("prestage-campaign-report-v1"), std::string::npos);
}

TEST(CampaignReport, ClaimsMeasureTheirCells) {
  CampaignSpec spec = tiny_spec();
  ResultStore store;
  for (const auto& r : campaign::run_points(campaign::expand(spec), 2)) {
    store.insert(r);
  }
  const auto render = [&store](const CampaignSpec& s) {
    const campaign::ResultGrid grid(s, store);
    std::ostringstream out;
    JsonWriter json(out, JsonWriter::Style::Compact);
    campaign::write_report(json, grid);
    return json::parse(out.str());
  };
  EXPECT_FALSE(render(spec).has("claims"))
      << "a spec without claims writes no claims key";

  const auto node = cacti::TechNode::um045;
  spec.claims.push_back({.first = {"clgp-l0", node, 1024},
                         .second = {"base", node, 4096},
                         .paper = 3.5});
  spec.claims.push_back({.first = {"clgp+l0", node, 4096},
                         .second = {"base", node, 4096},
                         .per_benchmark = true});
  const campaign::ResultGrid grid(spec, store);
  const double first = grid.hmean_ipc("clgp-l0", node, 1024);
  const double second = grid.hmean_ipc("base", node, 4096);
  std::uint64_t at_least = 0;
  for (const std::string& bench : grid.benchmarks()) {
    at_least += grid.at("clgp-l0", node, 4096, bench)->result.ipc >=
                grid.at("base", node, 4096, bench)->result.ipc;
  }

  const json::Value doc = render(spec);
  ASSERT_TRUE(doc.has("claims"));
  const std::vector<json::Value>& claims = doc.at("claims").array;
  ASSERT_EQ(claims.size(), 2u);
  const json::Value& speedup = claims[0];
  EXPECT_EQ(speedup.at("measure").as_string(), "hmean_speedup_pct");
  EXPECT_EQ(speedup.at("first").at("preset").as_string(), "clgp-l0");
  EXPECT_EQ(speedup.at("first").at("l1i_size").as_number(), 1024.0);
  EXPECT_EQ(speedup.at("second").at("l1i_size").as_number(), 4096.0);
  // The document prints 10 significant digits; evaluate() is exact.
  EXPECT_DOUBLE_EQ(campaign::evaluate(grid, spec.claims[0]).measured,
                   sim::speedup_pct(first, second));
  EXPECT_NEAR(speedup.at("first").at("hmean_ipc").as_number(), first, 1e-9);
  EXPECT_NEAR(speedup.at("second").at("hmean_ipc").as_number(), second,
              1e-9);
  EXPECT_NEAR(speedup.at("measured").as_number(),
              sim::speedup_pct(first, second), 1e-7);
  EXPECT_DOUBLE_EQ(speedup.at("paper").as_number(), 3.5);
  EXPECT_FALSE(speedup.has("holds")) << "not a judged claim";

  const json::Value& count = claims[1];
  EXPECT_EQ(count.at("measure").as_string(), "benchmarks_at_least");
  EXPECT_EQ(count.at("first").at("preset").as_string(), "clgp-l0")
      << "cells name the canonical spelling";
  EXPECT_EQ(campaign::evaluate(grid, spec.claims[1]).measured,
            static_cast<double>(at_least));
  EXPECT_EQ(count.at("measured").as_u64(), at_least);
  EXPECT_FALSE(count.has("paper"));
}

TEST(CampaignPerf, RecordRoundTripsAndAggregates) {
  campaign::PerfRecord r;
  r.key = "abc123";
  r.config = "clgp-l0";
  r.benchmark = "eon";
  r.host_seconds = 0.25;
  r.minstr_per_sec = 4.0;
  const campaign::PerfRecord back =
      campaign::decode_perf_line(campaign::encode_perf_line(r));
  EXPECT_EQ(back.key, r.key);
  EXPECT_EQ(back.config, r.config);
  EXPECT_EQ(back.benchmark, r.benchmark);
  EXPECT_DOUBLE_EQ(back.host_seconds, r.host_seconds);
  EXPECT_DOUBLE_EQ(back.minstr_per_sec, r.minstr_per_sec);

  campaign::PerfLog log;
  log.add(r);
  campaign::PerfRecord other = r;
  other.key = "def456";
  other.config = "base";
  other.host_seconds = 0.75;
  other.minstr_per_sec = 2.0;  // 1.5 Minstr over 0.75 s
  log.add(other);
  const campaign::PerfSummary summary = campaign::summarize_perf(log);
  EXPECT_EQ(summary.total.points, 2u);
  EXPECT_DOUBLE_EQ(summary.total.host_seconds, 1.0);
  // (0.25*4 + 0.75*2) / 1.0 = 2.5: seconds-weighted, not a plain mean.
  EXPECT_DOUBLE_EQ(summary.total.minstr_per_sec, 2.5);
  ASSERT_EQ(summary.per_config.size(), 2u);
  EXPECT_EQ(summary.per_config[0].first, "base");  // config-name order
  EXPECT_EQ(summary.per_config[1].first, "clgp-l0");

  // A sampled point's line in the older sidecar format, which also
  // carried its budget and simulated Minstr, still loads.
  const campaign::PerfRecord sampled = campaign::decode_perf_line(
      R"({"key":"0123abcd","config":"clgp-l0","benchmark":"gzip",)"
      R"("host_seconds":0.5,"minstr_per_sec":3,"sampled":true,)"
      R"("budget_minstr":0.4,"simulated_minstr":0.078})");
  EXPECT_EQ(sampled.key, "0123abcd");
  EXPECT_EQ(sampled.benchmark, "gzip");
  EXPECT_DOUBLE_EQ(sampled.host_seconds, 0.5);
  EXPECT_DOUBLE_EQ(sampled.minstr_per_sec, 3.0);
}

TEST(CampaignPerf, FoldIsDurationWeightedAcrossUnequalPoints) {
  // A 1-second point at 10 Minstr/s (10 Minstr) plus a 3-second point
  // at 2 Minstr/s (6 Minstr) is 16 Minstr over 4 seconds = 4.0 — the
  // plain mean of the rates (6.0) would overweight the short point.
  campaign::PerfRecord fast;
  fast.key = "k1";
  fast.config = "base";
  fast.host_seconds = 1.0;
  fast.minstr_per_sec = 10.0;
  campaign::PerfRecord slow;
  slow.key = "k2";
  slow.config = "base";
  slow.host_seconds = 3.0;
  slow.minstr_per_sec = 2.0;
  campaign::PerfLog log;
  log.add(fast);
  log.add(slow);
  const campaign::PerfAggregate agg = campaign::summarize_perf(log).total;
  EXPECT_EQ(agg.points, 2u);
  EXPECT_DOUBLE_EQ(agg.host_seconds, 4.0);
  EXPECT_DOUBLE_EQ(agg.minstr_per_sec, 4.0)
      << "aggregate rate must be total instructions / total seconds";
}

TEST(CampaignPerf, CorruptSidecarLinesAreCountedNotSilent) {
  const std::string path = fresh_file("torn.perf");
  campaign::PerfRecord r;
  r.key = "k1";
  r.config = "base";
  r.benchmark = "eon";
  r.host_seconds = 0.5;
  r.minstr_per_sec = 2.0;
  {
    std::ofstream out(path);
    out << campaign::encode_perf_line(r) << '\n';
    out << "{\"key\":\"torn";  // killed mid-append: no closing brace
  }
  const campaign::PerfLog log = campaign::PerfLog::load(path);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.dropped(), 1u);

  const campaign::PerfSummary summary = campaign::summarize_perf(log);
  EXPECT_EQ(summary.total.points, 1u);
  EXPECT_EQ(summary.dropped_lines, 1u)
      << "truncated telemetry must be visible, not silently smaller";

  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::Compact);
  json.begin_object();
  campaign::write_perf_summary(json, summary);
  json.end_object();
  EXPECT_NE(out.str().find("\"dropped_lines\":1"), std::string::npos)
      << out.str();

  // Scoping to a spec must carry the dropped count along.
  const campaign::PerfLog scoped =
      campaign::scope_to_spec(log, tiny_spec());
  EXPECT_EQ(scoped.dropped(), 1u);
}

TEST(CampaignEngine, PerfSidecarCoversExecutedPointsOnly) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = fresh_file("perf-store.jsonl");
  const std::string sidecar = campaign::perf_log_path(path);
  std::filesystem::remove(sidecar);

  ASSERT_EQ(campaign::run_campaign(spec, path, 2).executed, 8u);
  const campaign::PerfLog log = campaign::PerfLog::load(sidecar);
  ASSERT_EQ(log.size(), 8u);

  // Sidecar keys/configs mirror the store rows, and every record carries
  // real wall-clock time.
  const ResultStore store = ResultStore::load(path);
  for (const campaign::PerfRecord& r : log.records()) {
    const PointResult* p = store.find(r.key);
    ASSERT_NE(p, nullptr) << r.key;
    EXPECT_EQ(p->config, r.config);
    EXPECT_EQ(p->benchmark, r.benchmark);
    EXPECT_GT(r.host_seconds, 0.0);
    EXPECT_GT(r.minstr_per_sec, 0.0);
  }

  // A fully reused rerun executes nothing and records nothing new.
  const auto noop = campaign::run_campaign(spec, path, 2);
  EXPECT_EQ(noop.executed, 0u);
  EXPECT_DOUBLE_EQ(noop.host_seconds, 0.0);
  EXPECT_EQ(campaign::PerfLog::load(sidecar).size(), 8u);
}

TEST(CampaignReport, HostSectionOnlyWithPerfRecords) {
  const CampaignSpec spec = tiny_spec();
  ResultStore store;
  for (const RunPoint& p : campaign::expand(spec)) {
    store.insert(campaign::simulate(p));
  }
  const campaign::ResultGrid grid(spec, store);

  const auto render = [&grid](const campaign::PerfLog& perf) {
    std::ostringstream out;
    JsonWriter json(out, JsonWriter::Style::Compact);
    campaign::write_report(json, grid, perf);
    return out.str();
  };

  const std::string bare = render(campaign::PerfLog{});
  EXPECT_EQ(bare.find("\"host\""), std::string::npos)
      << "no sidecar -> no host section (report stays byte-stable)";

  campaign::PerfLog perf;
  for (const PointResult& p : store.entries()) {
    campaign::PerfRecord r = campaign::perf_record_of(p);
    r.host_seconds = 0.001;  // simulate() measured ~this; pin for shape
    r.minstr_per_sec = 1.0;
    perf.add(r);
  }
  const std::string with_host = render(perf);
  EXPECT_NE(with_host.find("\"host\""), std::string::npos);
  EXPECT_NE(with_host.find("\"per_config\""), std::string::npos);
  EXPECT_TRUE(with_host.starts_with(bare.substr(0, bare.size() - 1)))
      << "host section must be purely additive";
}

TEST(CampaignCompare, IdenticalStoresHaveNoRegressions) {
  const auto results = campaign::run_points(campaign::expand(tiny_spec()), 2);
  ResultStore a;
  ResultStore b;
  for (const auto& r : results) {
    a.insert(r);
    b.insert(r);
  }
  const auto cmp = campaign::compare_stores(a, b, 2.0);
  EXPECT_EQ(cmp.common, 8u);
  EXPECT_EQ(cmp.baseline_only, 0u);
  EXPECT_EQ(cmp.candidate_only, 0u);
  EXPECT_TRUE(cmp.regressions.empty());
  EXPECT_TRUE(cmp.improvements.empty());
}

TEST(CampaignCompare, FlagsIpcDeltasBeyondThreshold) {
  const auto results = campaign::run_points(campaign::expand(tiny_spec()), 2);
  ResultStore baseline;
  ResultStore candidate;
  for (std::size_t i = 0; i < results.size(); ++i) {
    baseline.insert(results[i]);
    PointResult changed = results[i];
    if (i == 0) changed.result.ipc *= 0.90;  // 10% slower
    if (i == 1) changed.result.ipc *= 1.20;  // 20% faster
    candidate.insert(changed);
  }
  const auto cmp = campaign::compare_stores(baseline, candidate, 2.0);
  ASSERT_EQ(cmp.regressions.size(), 1u);
  EXPECT_EQ(cmp.regressions[0].key, results[0].key);
  EXPECT_NEAR(cmp.regressions[0].delta_pct, -10.0, 0.01);
  EXPECT_NEAR(cmp.max_regression_pct, 10.0, 0.01);
  ASSERT_EQ(cmp.improvements.size(), 1u);
  EXPECT_NEAR(cmp.improvements[0].delta_pct, 20.0, 0.01);

  // A loose threshold silences both.
  const auto loose = campaign::compare_stores(baseline, candidate, 25.0);
  EXPECT_TRUE(loose.regressions.empty());
  EXPECT_TRUE(loose.improvements.empty());

  // Disjoint keys are counted, not paired.
  ResultStore empty;
  const auto disjoint = campaign::compare_stores(baseline, empty, 2.0);
  EXPECT_EQ(disjoint.common, 0u);
  EXPECT_EQ(disjoint.baseline_only, 8u);
}

TEST(ParallelFor, RunsEveryIndexOnceForAnyWorkerCount) {
  for (const unsigned jobs : {0u, 1u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(100);
    prestage::parallel_for_indexed(hits.size(), jobs, [&](std::size_t i) {
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", jobs " << jobs;
    }
  }
  // Empty ranges are a no-op.
  prestage::parallel_for_indexed(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, PropagatesTheFirstBodyException) {
  EXPECT_THROW(
      prestage::parallel_for_indexed(64, 4,
                                     [](std::size_t i) {
                                       if (i == 13) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
      std::runtime_error);
}

TEST(ParallelFor, StealingUnderUnevenLoadIsExactlyOnce) {
  // Uneven per-task cost puts the workers out of step, so they race for
  // the shared cursor at varying moments; every index must still run
  // exactly once (regression guard for the cursor hand-out).
  std::vector<std::atomic<int>> hits(512);
  std::atomic<long> checksum{0};
  prestage::parallel_for_indexed(hits.size(), 8, [&](std::size_t i) {
    volatile long spin = 0;
    for (std::size_t k = 0; k < (i % 16) * 1500; ++k) spin = spin + 1;
    hits[i].fetch_add(1);
    checksum.fetch_add(static_cast<long>(i));
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(checksum.load(), 512L * 511L / 2);
}

TEST(ParallelFor, HandsOutIndicesInAscendingOrder) {
  // Indices leave one shared cursor in order and a worker holds at most
  // one it has claimed but not started, so when body(i) starts, at most
  // workers - 1 lower indices are still unstarted: at least
  // i + 2 - workers bodies (this one included) have started. A scheduler
  // that preloads each worker with a chunk starts index count/workers
  // among the first few bodies.
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kTasks = 256;
  std::atomic<long> started{0};
  std::atomic<int> early{0};  // bodies that started ahead of that bound
  prestage::parallel_for_indexed(kTasks, kWorkers, [&](std::size_t i) {
    if (started.fetch_add(1) + 1 < static_cast<long>(i) + 2 - kWorkers) {
      early.fetch_add(1);
    }
    // Busy for 0.1-1 ms so the workers overlap.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(100 + 100 * (i * 7 % 10));
    while (std::chrono::steady_clock::now() < until) {
    }
  });
  EXPECT_EQ(started.load(), static_cast<long>(kTasks));
  EXPECT_EQ(early.load(), 0)
      << "bodies started ahead of lower indices still queued";
}

TEST(ParallelFor, ConcurrentThrowsDrainCleanlyToOneException) {
  // Every task throws at once: the first-error slot is written under
  // contention from all workers, exactly one exception must surface,
  // and the pool must still drain (join) rather than deadlock.
  std::atomic<int> started{0};
  EXPECT_THROW(prestage::parallel_for_indexed(128, 8,
                                              [&](std::size_t) {
                                                started.fetch_add(1);
                                                throw std::runtime_error(
                                                    "boom");
                                              }),
               std::runtime_error);
  EXPECT_GE(started.load(), 1);
}

TEST(FigureRegistry, CampaignsResolveByUniqueName) {
  std::set<std::string> names;
  for (const CampaignSpec& spec : figures::all_campaigns()) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    EXPECT_GT(spec.point_count(), 0u) << spec.name;
    EXPECT_EQ(figures::find(spec.name), &spec);
  }
  for (const char* name : {"fig1", "fig2", "fig4", "fig5", "fig6", "fig7",
                           "fig8", "family", "smoke"}) {
    EXPECT_NE(figures::find(name), nullptr) << name;
  }
  EXPECT_EQ(figures::find("fig3"), nullptr);
}

TEST(FigureRegistry, ClaimsNameGridCells) {
  // A claim's cells must lie on its campaign's axes; a stray cell would
  // otherwise assert only when the report is written.
  std::size_t claims = 0;
  for (const CampaignSpec& spec : figures::all_campaigns()) {
    std::set<std::string> presets;
    for (const std::string& p : spec.presets) {
      presets.insert(sim::canonical_name(*sim::parse_spec(p)));
    }
    const auto on_axes = [&](const campaign::GridCell& cell) {
      const auto c = sim::parse_spec(cell.preset);
      return c.has_value() && presets.count(sim::canonical_name(*c)) > 0 &&
             std::count(spec.nodes.begin(), spec.nodes.end(), cell.node) >
                 0 &&
             std::count(spec.l1_sizes.begin(), spec.l1_sizes.end(),
                        cell.l1i_size) > 0;
    };
    for (const campaign::Claim& claim : spec.claims) {
      ++claims;
      EXPECT_TRUE(on_axes(claim.first))
          << spec.name << ": " << claim.first.preset;
      EXPECT_TRUE(on_axes(claim.second))
          << spec.name << ": " << claim.second.preset;
    }
  }
  EXPECT_EQ(figures::find("fig5")->claims.size(), 9u)
      << "four per node plus the budget claim";
  EXPECT_EQ(figures::find("fig6")->claims.size(), 1u);
  EXPECT_EQ(claims, 10u) << "only fig5 and fig6 carry claims";
}

TEST(CampaignStore, RowsCarryTheCanonicalConfigString) {
  const auto points = campaign::expand(tiny_spec());
  const PointResult r = campaign::simulate(points[0]);
  EXPECT_EQ(r.config, "base");
  const PointResult decoded = campaign::decode_line(campaign::encode_line(r));
  EXPECT_EQ(decoded.config, r.config);

  // A pre-config-field store line (older registry version) falls back
  // to the preset spelling.
  std::string line = campaign::encode_line(r);
  const std::string field = "\"config\":\"base\",";
  const auto pos = line.find(field);
  ASSERT_NE(pos, std::string::npos);
  line.erase(pos, field.size());
  EXPECT_EQ(campaign::decode_line(line).config, "base");
}

TEST(CampaignCompare, ReportsRenamedAndUnknownConfigsByName) {
  const auto results = campaign::run_points(campaign::expand(tiny_spec()), 2);
  ResultStore baseline;
  ResultStore candidate;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i < 2) {
      // Two baseline points from a retired registry version: their
      // config no longer parses, and their keys exist nowhere else.
      PointResult retired = results[i];
      retired.key = "00000000000000f" + std::to_string(i);
      retired.preset = "retired-scheme-l0";
      retired.config = "retired-scheme-l0";
      baseline.insert(retired);
    } else {
      baseline.insert(results[i]);
    }
    candidate.insert(results[i]);
  }
  const auto cmp = campaign::compare_stores(baseline, candidate, 2.0);
  EXPECT_EQ(cmp.common, 6u);
  EXPECT_EQ(cmp.baseline_only, 2u);
  EXPECT_EQ(cmp.candidate_only, 2u);
  ASSERT_EQ(cmp.unknown_configs.size(), 1u);
  EXPECT_EQ(cmp.unknown_configs[0], "retired-scheme-l0");
  ASSERT_EQ(cmp.unpaired_by_config.count("retired-scheme-l0"), 1u);
  EXPECT_EQ(cmp.unpaired_by_config.at("retired-scheme-l0").baseline_only,
            2u);
  // The two genuine points the baseline is missing show up under their
  // real (still-parseable) config names.
  std::size_t candidate_only = 0;
  for (const auto& [config, n] : cmp.unpaired_by_config) {
    candidate_only += n.candidate_only;
    if (config != "retired-scheme-l0") {
      EXPECT_TRUE(prestage::sim::parse_spec(config).has_value()) << config;
    }
  }
  EXPECT_EQ(candidate_only, 2u);
}

}  // namespace
