#include "campaign/perf.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "common/json_writer.hpp"
#include "sim/report.hpp"

namespace prestage::campaign {

std::string perf_log_path(const std::string& store_path) {
  return store_path + ".perf";
}

std::string encode_perf_line(const PerfRecord& r) {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::Compact);
  json.begin_object();
  json.field("key", r.key);
  json.field("config", r.config);
  json.field("benchmark", r.benchmark);
  json.field("host_seconds", r.host_seconds);
  json.field("minstr_per_sec", r.minstr_per_sec);
  if (r.sampled) {
    json.field("sampled", true);
    json.field("budget_minstr", r.budget_minstr);
    json.field("simulated_minstr", r.simulated_minstr);
  }
  json.end_object();
  return out.str();
}

PerfRecord decode_perf_line(std::string_view line) {
  const json::Value doc = json::parse(line);
  PerfRecord r;
  r.key = doc.at("key").as_string();
  if (r.key.empty()) throw json::JsonError("empty perf record key");
  r.config = doc.at("config").as_string();
  r.benchmark = doc.at("benchmark").as_string();
  // The writer turns NaN/Inf into null; read those back as 0.0 so a
  // degenerate record stays loadable (telemetry must never be fatal).
  const auto number = [&doc](const char* field) {
    const json::Value& v = doc.at(field);
    return v.is_null() ? 0.0 : v.as_number();
  };
  r.host_seconds = number("host_seconds");
  r.minstr_per_sec = number("minstr_per_sec");
  if (doc.has("sampled")) {
    r.sampled = doc.at("sampled").boolean;
    r.budget_minstr = number("budget_minstr");
    r.simulated_minstr = number("simulated_minstr");
  }
  return r;
}

PerfRecord perf_record_of(const PointResult& r) {
  PerfRecord p;
  p.key = r.key;
  p.config = r.config;
  p.benchmark = r.benchmark;
  p.host_seconds = r.result.host_seconds;
  p.minstr_per_sec = r.result.minstr_per_sec;
  if (r.result.sampled) {
    p.sampled = true;
    p.budget_minstr = static_cast<double>(r.instructions) / 1e6;
    p.simulated_minstr =
        static_cast<double>(r.result.sample_simulated_instructions) / 1e6;
  }
  return p;
}

PerfLog PerfLog::load(const std::string& path) {
  PerfLog log;
  std::ifstream in(path);
  if (!in) return log;  // no sidecar: nothing recorded on this host
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      log.add(decode_perf_line(line));
    } catch (const json::JsonError&) {
      // Torn tail or corrupt line: telemetry is best-effort and must
      // never be fatal, but the loss is counted so truncation shows up
      // as `dropped_lines` instead of quietly shrinking `points`.
      log.note_dropped();
    }
  }
  return log;
}

namespace {

/// Per-config fold state: the shared weighted accumulator plus a count.
struct Fold {
  sim::HostPerfAccumulator acc;
  std::size_t points = 0;
  std::size_t sampled_points = 0;
  double budget_minstr = 0.0;
  double simulated_minstr = 0.0;

  void add(const PerfRecord& r) {
    acc.add(r.host_seconds, r.minstr_per_sec);
    ++points;
    if (r.sampled) {
      ++sampled_points;
      // Record arrival order: deterministic sums.
      budget_minstr += r.budget_minstr;
      simulated_minstr += r.simulated_minstr;
    }
  }
  [[nodiscard]] PerfAggregate aggregate() const {
    const sim::HostPerf perf = acc.result();
    PerfAggregate agg{points, perf.host_seconds, perf.minstr_per_sec};
    agg.sampled_points = sampled_points;
    agg.budget_minstr = budget_minstr;
    agg.simulated_minstr = simulated_minstr;
    return agg;
  }
};

}  // namespace

PerfAggregate aggregate_perf(const std::vector<PerfRecord>& records) {
  Fold fold;
  for (const PerfRecord& r : records) fold.add(r);
  return fold.aggregate();
}

PerfSummary summarize_perf(const PerfLog& log) {
  PerfSummary summary;
  summary.total = aggregate_perf(log.records());
  summary.dropped_lines = log.dropped();
  std::map<std::string, Fold> by_config;
  for (const PerfRecord& r : log.records()) by_config[r.config].add(r);
  summary.per_config.reserve(by_config.size());
  for (const auto& [config, fold] : by_config) {
    summary.per_config.emplace_back(config, fold.aggregate());
  }
  return summary;
}

PerfLog scope_to_spec(const PerfLog& log, const CampaignSpec& spec) {
  std::set<std::string> keys;
  for (const RunPoint& p : expand(spec)) keys.insert(p.key());
  PerfLog scoped;
  scoped.note_dropped(log.dropped());
  for (const PerfRecord& r : log.records()) {
    if (keys.count(r.key) > 0) scoped.add(r);
  }
  return scoped;
}

void write_perf_aggregate(JsonWriter& json, const PerfAggregate& agg) {
  json.field("points", static_cast<std::uint64_t>(agg.points));
  json.field("host_seconds", agg.host_seconds);
  json.field("minstr_per_sec", agg.minstr_per_sec);
  // Sampled rollup only when present: full-run documents stay
  // byte-identical to the pre-sampling schema.
  if (agg.sampled_points > 0) {
    json.field("sampled_points",
               static_cast<std::uint64_t>(agg.sampled_points));
    json.field("budget_minstr", agg.budget_minstr);
    json.field("simulated_minstr", agg.simulated_minstr);
    json.field("effective_speedup", agg.effective_speedup());
  }
}

PerfDocument parse_perf_document(std::string_view text) {
  const json::Value doc = json::parse(text);
  if (doc.at("schema").as_string() != "prestage-campaign-perf-v1") {
    throw json::JsonError("not a prestage-campaign-perf-v1 document (is "
                          "--baseline a BENCH_perf.json?)");
  }
  const auto aggregate = [](const json::Value& v) {
    PerfAggregate agg;
    agg.points = static_cast<std::size_t>(v.at("points").as_u64());
    agg.host_seconds = v.at("host_seconds").as_number();
    agg.minstr_per_sec = v.at("minstr_per_sec").as_number();
    return agg;
  };
  PerfDocument out;
  out.campaign = doc.at("campaign").as_string();
  out.summary.total = aggregate(doc);
  if (doc.has("dropped_lines")) {
    out.summary.dropped_lines =
        static_cast<std::size_t>(doc.at("dropped_lines").as_u64());
  }
  for (const json::Value& entry : doc.at("per_config").array) {
    out.summary.per_config.emplace_back(entry.at("config").as_string(),
                                        aggregate(entry));
  }
  return out;
}

PerfSummary measure_perf(const CampaignSpec& spec, unsigned jobs,
                         double min_host_seconds,
                         const Progress& progress) {
  const std::vector<RunPoint> points = expand(spec);
  PerfLog log;
  double spent = 0.0;
  do {
    // A fresh pass over the whole grid each iteration: every config is
    // weighted by the same point multiset, so the per-config fold stays
    // comparable no matter where the duration floor lands.
    for (const PointResult& r : run_points(points, jobs, progress)) {
      PerfRecord perf = perf_record_of(r);
      // Host telemetry folded in run_points grid order; the sum only
      // gates the duration floor and is never serialized into a store.
      spent += perf.host_seconds;
      log.add(std::move(perf));
    }
  } while (spent < min_host_seconds);
  return summarize_perf(log);
}

PerfGateResult gate_perf(const PerfSummary& baseline,
                         const PerfSummary& candidate, double slack_pct) {
  PerfGateResult gate;
  const auto pair_up = [&gate, slack_pct](const std::string& config,
                                          double base, double cand) {
    PerfGateEntry e;
    e.config = config;
    e.baseline_minstr_per_sec = base;
    e.candidate_minstr_per_sec = cand;
    e.delta_pct = base > 0.0 ? (cand - base) / base * 100.0 : 0.0;
    e.regressed = base > 0.0 && e.delta_pct < -slack_pct;
    if (e.regressed) ++gate.regressions;
    return e;
  };
  gate.total = pair_up("(total)", baseline.total.minstr_per_sec,
                       candidate.total.minstr_per_sec);
  std::map<std::string, double> cand;
  for (const auto& [config, agg] : candidate.per_config) {
    cand.emplace(config, agg.minstr_per_sec);
  }
  for (const auto& [config, agg] : baseline.per_config) {
    const auto it = cand.find(config);
    if (it == cand.end()) {
      gate.baseline_only.push_back(config);
      continue;
    }
    gate.configs.push_back(pair_up(config, agg.minstr_per_sec, it->second));
    cand.erase(it);
  }
  for (const auto& [config, rate] : cand) {
    (void)rate;
    gate.candidate_only.push_back(config);
  }
  return gate;
}

void write_perf_summary(JsonWriter& json, const PerfSummary& summary) {
  write_perf_aggregate(json, summary.total);
  json.field("dropped_lines",
             static_cast<std::uint64_t>(summary.dropped_lines));
  json.key("per_config");
  json.begin_array();
  for (const auto& [config, agg] : summary.per_config) {
    json.begin_object();
    json.field("config", config);
    write_perf_aggregate(json, agg);
    json.end_object();
  }
  json.end_array();
}

}  // namespace prestage::campaign
