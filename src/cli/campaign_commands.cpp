// The `prestage campaign` subcommands: run/resume a declarative figure
// grid against its resumable JSONL store, inspect coverage, diff two
// stores for regressions, and emit the BENCH_*.json figure reports.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <set>

#include "bench/figures.hpp"
#include "campaign/compare.hpp"
#include "campaign/engine.hpp"
#include "campaign/perf.hpp"
#include "campaign/report.hpp"
#include "cli/commands.hpp"
#include "cli/json_sink.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "sim/report.hpp"

namespace prestage::cli {
namespace {

/// Resolves --name against the figure registry; campaign CLI flows all
/// start here, so the error text lists what exists.
const campaign::CampaignSpec* resolve_campaign(const Options& opt) {
  if (opt.campaign.empty()) {
    std::cerr << "prestage: `campaign` needs --name NAME (see `prestage "
                 "list`)\n";
    return nullptr;
  }
  const campaign::CampaignSpec* spec = figures::find(opt.campaign);
  if (!spec) {
    std::cerr << "prestage: unknown campaign '" << opt.campaign << "'; "
                 "available:";
    for (const auto& s : figures::all_campaigns()) {
      std::cerr << ' ' << s.name;
    }
    std::cerr << '\n';
  }
  return spec;
}

/// The store a campaign reads/writes: --store, or campaigns/<name>.jsonl.
std::string resolve_store_path(const Options& opt,
                               const campaign::CampaignSpec& spec) {
  if (!opt.store_path.empty()) return opt.store_path;
  return "campaigns/" + spec.name + ".jsonl";
}

/// Applies the CLI overrides that change run-point identity (--instrs
/// participates in the content hash, so status/report must resolve it
/// exactly like run did).
campaign::CampaignSpec apply_overrides(const campaign::CampaignSpec& spec,
                                       const Options& opt) {
  campaign::CampaignSpec adjusted = spec;
  if (opt.instructions > 0) adjusted.instructions = opt.instructions;
  return adjusted;
}

}  // namespace

int cmd_campaign_run(const Options& opt, bool resume) {
  const campaign::CampaignSpec* registered = resolve_campaign(opt);
  if (!registered) return 2;
  const campaign::CampaignSpec spec = apply_overrides(*registered, opt);
  const std::string store_path = resolve_store_path(opt, spec);

  if (resume && !std::filesystem::exists(store_path)) {
    std::cerr << "prestage: nothing to resume: store '" << store_path
              << "' does not exist (use `campaign run`)\n";
    return 1;
  }

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;

  const bool quiet = sink.owns_stdout();
  if (!quiet) {
    std::printf("campaign    : %s — %s\n", spec.name.c_str(),
                spec.title.c_str());
    std::printf("store       : %s\n", store_path.c_str());
  }

  // `total` counts only the points actually executing (a resume's
  // missing subset), so the ~10-line pacing derives from it, not from
  // the full grid size.
  const auto progress = [&](std::size_t done, std::size_t total) {
    if (quiet) return;
    const std::size_t step = std::max<std::size_t>(1, total / 10);
    if (done % step == 0 || done == total) {
      std::printf("progress    : %zu/%zu points\n", done, total);
      std::fflush(stdout);
    }
  };

  campaign::FaultPolicy policy;
  policy.max_attempts = opt.retries + 1;
  policy.strict = opt.strict;
  policy.point_host_seconds = opt.point_budget_seconds;
  policy.durable = opt.durable;

  const campaign::RunOutcome outcome =
      campaign::run_campaign(spec, store_path, opt.jobs, progress, policy);

  // The pool is clamped to the executed point count, so report what
  // actually ran, not just the resolved --jobs value.
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(resolve_jobs(opt.jobs), outcome.executed));

  if (!quiet) {
    std::printf("campaign    : %zu points; %zu reused, %zu executed on "
                "%u workers%s\n",
                outcome.total, outcome.reused, outcome.executed, workers,
                outcome.corrupt_dropped > 0 ? " (corrupt lines dropped)"
                                            : "");
    if (outcome.executed > 0) {
      std::printf("host        : %s\n",
                  sim::render_host_perf(
                      {outcome.host_seconds, outcome.minstr_per_sec})
                      .c_str());
    }
    if (outcome.retried > 0) {
      std::printf("retried     : %zu point(s) succeeded after retry\n",
                  outcome.retried);
    }
    if (outcome.quarantined > 0) {
      std::printf("quarantined : %zu point(s) -> %s\n", outcome.quarantined,
                  campaign::failures_log_path(store_path).c_str());
      for (const campaign::FailureRecord& f : outcome.failures) {
        std::printf("  %s (%s, %s): %s after %llu attempt(s): %s\n",
                    f.key.c_str(), f.config.c_str(), f.benchmark.c_str(),
                    f.error_class.c_str(),
                    static_cast<unsigned long long>(f.attempts),
                    f.message.c_str());
      }
      std::printf("note        : `campaign resume` re-offers quarantined "
                  "points (their keys never reached the store)\n");
    }
    if (outcome.compacted) {
      std::printf("store       : rewritten into canonical order (healed "
                  "an interior gap or corrupt lines)\n");
    }
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    json.begin_object();
    json.field("schema", "prestage-campaign-run-v1");
    json.field("campaign", spec.name);
    json.field("store", store_path);
    json.field("resumed", resume);
    json.field("workers", workers);
    json.field("total", static_cast<std::uint64_t>(outcome.total));
    json.field("reused", static_cast<std::uint64_t>(outcome.reused));
    json.field("executed", static_cast<std::uint64_t>(outcome.executed));
    json.field("corrupt_dropped",
               static_cast<std::uint64_t>(outcome.corrupt_dropped));
    json.field("retried", static_cast<std::uint64_t>(outcome.retried));
    json.field("quarantined",
               static_cast<std::uint64_t>(outcome.quarantined));
    json.field("compacted", outcome.compacted);
    json.key("failures");
    json.begin_array();
    for (const campaign::FailureRecord& f : outcome.failures) {
      campaign::write_failure(json, f);
    }
    json.end_array();
    json.key("host");
    sim::write_host_perf(
        json, {outcome.host_seconds, outcome.minstr_per_sec});
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return outcome.quarantined > 0 ? 4 : 0;
}

int cmd_campaign_status(const Options& opt) {
  const campaign::CampaignSpec* registered = resolve_campaign(opt);
  if (!registered) return 2;
  const campaign::CampaignSpec spec = apply_overrides(*registered, opt);
  const std::string store_path = resolve_store_path(opt, spec);

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;

  const campaign::ResultStore store = campaign::ResultStore::load(store_path);
  // ResultGrid owns the coverage computation — `status` and `report`
  // must agree on what "complete" means, so both read it from here.
  const campaign::ResultGrid grid(spec, store);
  const std::size_t total = grid.total_points();
  const std::size_t missing = grid.missing();
  const std::size_t done = total - missing;
  // Results in the store that this grid does not reference (other
  // budgets/seeds, older grids): worth surfacing, never an error.
  const std::size_t foreign = store.size() - done;

  // Quarantine history: a failure record whose key is still absent from
  // the store is an open quarantine (resume will re-offer it); one whose
  // key made it in later is a recovery. Count unique keys — a point
  // quarantined on several runs is still one point.
  const campaign::FailureLog failures =
      campaign::FailureLog::load(campaign::failures_log_path(store_path));
  std::set<std::string> quarantined_keys;
  std::set<std::string> recovered_keys;
  for (const campaign::FailureRecord& f : failures.records()) {
    (store.contains(f.key) ? recovered_keys : quarantined_keys)
        .insert(f.key);
  }
  // Host-telemetry sidecar health rides along: dropped lines there mean
  // a crash tore the perf log (the store itself heals separately).
  const campaign::PerfLog perf =
      campaign::PerfLog::load(campaign::perf_log_path(store_path));

  if (!sink.owns_stdout()) {
    std::printf("campaign    : %s — %s\n", spec.name.c_str(),
                spec.title.c_str());
    std::printf("store       : %s (%zu records",
                store_path.c_str(), store.size());
    if (store.load_stats().skipped > 0) {
      std::printf(", %zu corrupt lines dropped", store.load_stats().skipped);
    }
    std::printf(")\n");
    std::printf("coverage    : %zu/%zu points done, %zu missing%s\n", done,
                total, missing, missing == 0 ? " — complete" : "");
    if (!failures.empty() || failures.dropped() > 0) {
      std::printf("failures    : %zu quarantined, %zu recovered "
                  "(%zu record(s) in %s",
                  quarantined_keys.size(), recovered_keys.size(),
                  failures.size(),
                  campaign::failures_log_path(store_path).c_str());
      if (failures.dropped() > 0) {
        std::printf(", %zu corrupt lines dropped", failures.dropped());
      }
      std::printf(")\n");
    }
    if (perf.dropped() > 0) {
      std::printf("perf        : %zu corrupt sidecar lines dropped\n",
                  perf.dropped());
    }
    if (foreign > 0) {
      std::printf("note        : %zu stored records are outside this grid "
                  "(different --instrs/seed?)\n", foreign);
    }
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    json.begin_object();
    json.field("schema", "prestage-campaign-status-v1");
    json.field("campaign", spec.name);
    json.field("store", store_path);
    json.field("total", static_cast<std::uint64_t>(total));
    json.field("done", static_cast<std::uint64_t>(done));
    json.field("missing", static_cast<std::uint64_t>(missing));
    json.field("complete", missing == 0);
    json.field("foreign_records", static_cast<std::uint64_t>(foreign));
    json.field("corrupt_dropped",
               static_cast<std::uint64_t>(store.load_stats().skipped));
    json.field("quarantined",
               static_cast<std::uint64_t>(quarantined_keys.size()));
    json.field("recovered",
               static_cast<std::uint64_t>(recovered_keys.size()));
    json.field("failure_records",
               static_cast<std::uint64_t>(failures.size()));
    json.field("failure_lines_dropped",
               static_cast<std::uint64_t>(failures.dropped()));
    json.field("perf_lines_dropped",
               static_cast<std::uint64_t>(perf.dropped()));
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_campaign_compare(const Options& opt) {
  if (opt.baseline_path.empty() || opt.store_path.empty()) {
    std::cerr << "prestage: `campaign compare` needs --baseline FILE and "
                 "--store FILE\n";
    return 2;
  }
  for (const std::string& path : {opt.baseline_path, opt.store_path}) {
    if (!std::filesystem::exists(path)) {
      std::cerr << "prestage: store '" << path << "' does not exist\n";
      return 2;
    }
  }

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;

  const auto baseline = campaign::ResultStore::load(opt.baseline_path);
  const auto candidate = campaign::ResultStore::load(opt.store_path);
  const campaign::CompareResult cmp =
      campaign::compare_stores(baseline, candidate, opt.threshold_pct);

  // A comparison that pairs nothing is a misconfiguration (different
  // --instrs/seed, or an empty store), not a clean bill of health — as
  // a CI gate, "zero regressions" must mean points were actually
  // compared.
  if (cmp.common == 0) {
    std::cerr << "prestage: stores share no run points ("
              << baseline.size() << " baseline, " << candidate.size()
              << " candidate records; were they produced with the same "
                 "--instrs and seed?)\n";
    return 2;
  }

  if (!sink.owns_stdout()) {
    std::printf("baseline    : %s (%zu records)\n",
                opt.baseline_path.c_str(), baseline.size());
    std::printf("candidate   : %s (%zu records)\n", opt.store_path.c_str(),
                candidate.size());
    std::printf("paired      : %zu points (%zu baseline-only, "
                "%zu candidate-only), threshold ±%.2f%%\n",
                cmp.common, cmp.baseline_only, cmp.candidate_only,
                opt.threshold_pct);
    const auto print_deltas = [](const char* label,
                                 const std::vector<campaign::Delta>& ds) {
      if (ds.empty()) return;
      Table t({"preset", "node", "L1", "benchmark", "base IPC", "cand IPC",
               "delta"});
      for (const auto& d : ds) {
        t.add_row({d.preset, d.node, fmt_bytes(d.l1i_size), d.benchmark,
                   fmt(d.ipc_baseline, 3), fmt(d.ipc_candidate, 3),
                   fmt(d.delta_pct, 2) + "%"});
      }
      std::printf("%s:\n%s", label, t.to_text().c_str());
    };
    print_deltas("regressions", cmp.regressions);
    print_deltas("improvements", cmp.improvements);
    if (!cmp.unknown_configs.empty()) {
      std::printf("unknown     : %zu stored config(s) no current registry "
                  "entry parses:", cmp.unknown_configs.size());
      for (const std::string& c : cmp.unknown_configs) {
        std::printf(" %s", c.c_str());
      }
      std::printf("\n");
    }
    if (!cmp.unpaired_by_config.empty()) {
      std::printf("unpaired    : by config (baseline-only/candidate-only):");
      for (const auto& [config, n] : cmp.unpaired_by_config) {
        std::printf(" %s=%zu/%zu", config.c_str(), n.baseline_only,
                    n.candidate_only);
      }
      std::printf("\n");
    }
    std::printf("result      : %zu regressions, %zu improvements\n",
                cmp.regressions.size(), cmp.improvements.size());
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    json.begin_object();
    json.field("schema", "prestage-campaign-compare-v1");
    json.field("baseline", opt.baseline_path);
    json.field("candidate", opt.store_path);
    json.field("threshold_pct", opt.threshold_pct);
    json.field("common", static_cast<std::uint64_t>(cmp.common));
    json.field("baseline_only",
               static_cast<std::uint64_t>(cmp.baseline_only));
    json.field("candidate_only",
               static_cast<std::uint64_t>(cmp.candidate_only));
    json.field("max_regression_pct", cmp.max_regression_pct);
    const auto write_deltas = [&json](const char* key,
                                      const std::vector<campaign::Delta>& ds) {
      json.key(key);
      json.begin_array();
      for (const auto& d : ds) {
        json.begin_object();
        json.field("key", d.key);
        json.field("preset", d.preset);
        json.field("node", d.node);
        json.field("l1i_size", d.l1i_size);
        json.field("benchmark", d.benchmark);
        json.field("ipc_baseline", d.ipc_baseline);
        json.field("ipc_candidate", d.ipc_candidate);
        json.field("delta_pct", d.delta_pct);
        json.end_object();
      }
      json.end_array();
    };
    write_deltas("regressions", cmp.regressions);
    write_deltas("improvements", cmp.improvements);
    json.key("unknown_configs");
    json.begin_array();
    for (const std::string& c : cmp.unknown_configs) json.value(c);
    json.end_array();
    json.key("unpaired_by_config");
    json.begin_array();
    for (const auto& [config, n] : cmp.unpaired_by_config) {
      json.begin_object();
      json.field("config", config);
      json.field("baseline_only",
                 static_cast<std::uint64_t>(n.baseline_only));
      json.field("candidate_only",
                 static_cast<std::uint64_t>(n.candidate_only));
      json.end_object();
    }
    json.end_array();
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return cmp.regressions.empty() ? 0 : 3;
}

int cmd_campaign_report(const Options& opt) {
  const campaign::CampaignSpec* registered = resolve_campaign(opt);
  if (!registered) return 2;
  const campaign::CampaignSpec spec = apply_overrides(*registered, opt);
  const std::string store_path = resolve_store_path(opt, spec);
  const std::string out_path =
      opt.out_path.empty() ? "BENCH_" + spec.name + ".json" : opt.out_path;

  const campaign::ResultStore store = campaign::ResultStore::load(store_path);
  const campaign::ResultGrid grid(spec, store);
  if (grid.missing() > 0) {
    std::cerr << "prestage: store '" << store_path << "' covers only "
              << (grid.total_points() - grid.missing()) << " of "
              << grid.total_points() << " points of campaign '" << spec.name
              << "' (run `campaign resume` first)\n";
    return 1;
  }

  // Host telemetry, if any simulation on this host recorded some, rides
  // along as the report's "host" section — scoped to this grid's keys
  // so other generations sharing the store path don't inflate it.
  const campaign::PerfLog perf = campaign::scope_to_spec(
      campaign::PerfLog::load(campaign::perf_log_path(store_path)), spec);

  // The report document rides the same sink machinery as --json: `--out -`
  // streams it to stdout.
  JsonSink sink(out_path);
  if (sink.failed()) return 1;
  JsonWriter json(sink.stream());
  campaign::write_report(json, grid, perf);
  if (!sink.finish()) return 1;
  if (!sink.owns_stdout()) {
    std::fputs(figures::render_text(grid).c_str(), stdout);
    std::printf("report      : %s (%s, %zu points)\n", out_path.c_str(),
                std::string(campaign::to_string(spec.kind)).c_str(),
                grid.total_points());
  }
  return 0;
}

}  // namespace prestage::cli
