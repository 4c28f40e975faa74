#include "campaign/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "campaign/perf.hpp"
#include "common/cancel.hpp"
#include "common/faultpoint.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "sample/runner.hpp"
#include "sim/report.hpp"

namespace prestage::campaign {

PointResult simulate(const RunPoint& point, double max_host_seconds) {
  PointResult r;
  r.key = point.key();
  // The point.execute site fires before any machine is built: an
  // injected failure models a poisoned point, not a half-simulated one.
  // The key is the probe context, so key= triggers pick one grid point
  // deterministically under any worker count.
  faults::check(faults::Site::PointExecute, r.key);
  r.preset = point.preset;  // the grid's spelling, for provenance
  r.config = point.config;  // canonical: what the key embeds
  r.node = cacti::to_string(point.node);
  r.benchmark = point.benchmark;
  r.l1i_size = point.l1i_size;
  r.instructions = point.instructions;
  r.seed = point.seed;
  cpu::MachineConfig cfg = point.machine_config();
  cfg.max_host_seconds = max_host_seconds;
  if (point.sampling.enabled) {
    r.result = sample::run_sampled_point(cfg, point.sampling);
  } else {
    cpu::Cpu machine(cfg);
    r.result = machine.run();
  }
  return r;
}

namespace {

/// The annotation every error leaving campaign execution carries: which
/// point failed, by key and canonical config (engine catch sites would
/// otherwise lose it).
std::string annotate(const RunPoint& point, const char* what) {
  return "run point " + point.key() + " (" + point.config + ", " +
         point.benchmark + "): " + what;
}

/// Failure taxonomy for the quarantine sidecar: specific classes first
/// (they all derive SimError), the JSON layer, then anything else.
const char* error_class_of(const std::exception& e) {
  if (dynamic_cast<const faults::FaultInjected*>(&e) != nullptr) {
    return "FaultInjected";
  }
  if (dynamic_cast<const PointCancelled*>(&e) != nullptr) {
    return "PointCancelled";
  }
  if (dynamic_cast<const SimError*>(&e) != nullptr) return "SimError";
  if (dynamic_cast<const json::JsonError*>(&e) != nullptr) {
    return "JsonError";
  }
  return "Exception";
}

/// One executed point: a result, or the failure record that quarantines
/// it. Either way `attempts` says how many tries it took.
struct PointOutcome {
  std::optional<PointResult> result;
  FailureRecord failure;
  unsigned attempts = 1;
};

/// The retry/quarantine executor. Retries are immediate (attempt-count
/// bounded, no sleeps); strict mode rethrows the first error annotated
/// with the point's identity instead.
PointOutcome execute_with_policy(const RunPoint& point,
                                 const FaultPolicy& policy) {
  const unsigned max_attempts = std::max(1U, policy.max_attempts);
  PointOutcome out;
  for (unsigned attempt = 1;; ++attempt) {
    out.attempts = attempt;
    try {
      out.result = simulate(point, policy.point_host_seconds);
      return out;
    } catch (const std::exception& e) {
      if (policy.strict) throw SimError(annotate(point, e.what()));
      if (attempt >= max_attempts) {
        out.failure = FailureRecord{point.key(),
                                    point.config,
                                    point.benchmark,
                                    error_class_of(e),
                                    e.what(),
                                    attempt};
        return out;
      }
    }
  }
}

/// Runs @p points across the pool under @p policy, handing each outcome
/// to @p sink in strict index order (under one lock, so sinks need no
/// locking of their own).
void run_ordered(const std::vector<const RunPoint*>& points, unsigned jobs,
                 const FaultPolicy& policy,
                 const std::function<void(PointOutcome)>& sink,
                 const Progress& progress) {
  std::vector<std::optional<PointOutcome>> slots(points.size());
  std::mutex mutex;
  std::size_t next_flush = 0;
  std::size_t completed = 0;
  parallel_for_indexed(points.size(), jobs, [&](std::size_t i) {
    PointOutcome r = execute_with_policy(*points[i], policy);
    const std::lock_guard<std::mutex> lock(mutex);
    slots[i] = std::move(r);
    ++completed;
    while (next_flush < slots.size() && slots[next_flush]) {
      // Detach the record and advance before calling the sink: if it
      // throws (full disk), another worker re-entering this loop must
      // see consistent state, not a still-engaged moved-from slot it
      // would flush again.
      PointOutcome out = std::move(*slots[next_flush]);
      slots[next_flush].reset();
      ++next_flush;
      sink(std::move(out));
    }
    if (progress) progress(completed, slots.size());
  });
}

}  // namespace

bool compact_store(const std::string& store_path,
                   const std::vector<RunPoint>& points) {
  std::ifstream in(store_path, std::ios::binary);
  if (!in) return false;  // nothing on disk: nothing to canonicalize
  std::ostringstream current_bytes;
  current_bytes << in.rdbuf();
  in.close();

  const ResultStore store = ResultStore::load(store_path);
  std::map<std::string, std::size_t> by_key;
  for (std::size_t i = 0; i < store.entries().size(); ++i) {
    by_key.emplace(store.entries()[i].key, i);
  }
  std::set<std::string> grid_keys;
  std::string canonical;
  for (const RunPoint& p : points) {
    const std::string key = p.key();
    grid_keys.insert(key);
    const auto it = by_key.find(key);
    if (it == by_key.end()) continue;  // quarantined/unfinished: a gap
    canonical += store.raw_lines()[it->second];
    canonical += '\n';
  }
  // Foreign records (other budgets/seeds sharing the store path) keep
  // their file order after the grid block.
  for (std::size_t i = 0; i < store.entries().size(); ++i) {
    if (grid_keys.count(store.entries()[i].key) > 0) continue;
    canonical += store.raw_lines()[i];
    canonical += '\n';
  }
  if (canonical == current_bytes.str()) return false;

  // Atomic swap: a crash mid-compaction leaves either the old file or
  // the new one, never a half-written store.
  const std::string tmp_path = store_path + ".compact.tmp";
  {
    std::ofstream tmp(tmp_path, std::ios::binary | std::ios::trunc);
    tmp << canonical;
    tmp.flush();
    PRESTAGE_ASSERT(tmp.good(),
                    "compaction write to '" + tmp_path + "' failed");
  }
  std::filesystem::rename(tmp_path, store_path);
  return true;
}

RunOutcome run_campaign(const CampaignSpec& spec,
                        const std::string& store_path, unsigned jobs,
                        const Progress& progress,
                        const FaultPolicy& policy) {
  const std::vector<RunPoint> points = expand(spec);
  const ResultStore store = ResultStore::load(store_path);

  RunOutcome outcome;
  outcome.total = points.size();
  outcome.corrupt_dropped = store.load_stats().skipped;

  std::vector<const RunPoint*> todo;
  todo.reserve(points.size());
  for (const RunPoint& p : points) {
    if (!store.contains(p.key())) todo.push_back(&p);
  }
  outcome.reused = points.size() - todo.size();
  outcome.executed = todo.size();
  if (todo.empty()) {
    outcome.compacted = compact_store(store_path, points);
    return outcome;
  }

  StoreAppender appender(store_path, policy.durable);
  // Host telemetry rides a sidecar so the store itself stays
  // byte-deterministic; rows flush in the same ordered-prefix
  // discipline. Unlike the store, the sidecar is record-only and must
  // never block a campaign: if it cannot be opened or written (its
  // path unwritable while the store is fine, disk filling between the
  // two flushes), the telemetry is dropped and the run continues.
  std::unique_ptr<LineAppender> perf_appender;
  try {
    perf_appender = std::make_unique<LineAppender>(
        perf_log_path(store_path), faults::Site::PerfAppend,
        policy.durable);
  } catch (const SimError&) {
    // no sidecar: results still land, only the perf trajectory is lost
  }
  // The quarantine sidecar opens lazily: a clean run must not leave an
  // empty `.failures` file behind. Unlike perf, a failure that cannot
  // be recorded is fatal — losing result telemetry is acceptable,
  // silently losing the fact that a point failed is not.
  std::unique_ptr<LineAppender> failure_appender;
  sim::HostPerfAccumulator host;
  run_ordered(
      todo, jobs, policy,
      [&](PointOutcome o) {
        if (o.attempts > 1 && o.result) ++outcome.retried;
        if (!o.result) {
          if (!failure_appender) {
            failure_appender = std::make_unique<LineAppender>(
                failures_log_path(store_path), std::nullopt,
                policy.durable);
          }
          failure_appender->append_line(encode_failure_line(o.failure));
          ++outcome.quarantined;
          outcome.failures.push_back(std::move(o.failure));
          return;
        }
        appender.append(*o.result);
        const PerfRecord perf = perf_record_of(*o.result);
        if (perf_appender) {
          try {
            perf_appender->append_line(encode_perf_line(perf));
          } catch (const SimError&) {
            perf_appender.reset();  // stop trying; keep simulating
          }
        }
        host.add(perf.host_seconds, perf.minstr_per_sec);
      },
      progress);
  const sim::HostPerf total = host.result();
  outcome.host_seconds = total.host_seconds;
  outcome.minstr_per_sec = total.minstr_per_sec;
  // Converge the file toward canonical grid order: a resume that just
  // filled an interior gap (earlier quarantine or mid-grid kill), or a
  // load that dropped corrupt lines, leaves bytes a never-faulted run
  // would not have written. Fault-free runs are already canonical and
  // skip the rewrite entirely.
  outcome.compacted = compact_store(store_path, points);
  return outcome;
}

std::vector<PointResult> run_points(const std::vector<RunPoint>& points,
                                    unsigned jobs) {
  std::vector<const RunPoint*> refs;
  for (const RunPoint& p : points) refs.push_back(&p);
  std::vector<PointResult> results;
  // In-memory grids stay fail-fast, but never lose which point threw:
  // strict mode rethrows the first error annotated with its identity.
  run_ordered(
      refs, jobs, FaultPolicy{.strict = true},
      [&results](PointOutcome o) { results.push_back(std::move(*o.result)); },
      {});
  return results;
}

ResultStore run_in_memory(const CampaignSpec& spec, unsigned jobs) {
  ResultStore store;
  for (PointResult& r : run_points(expand(spec), jobs)) {
    store.insert(std::move(r));
  }
  return store;
}

}  // namespace prestage::campaign
