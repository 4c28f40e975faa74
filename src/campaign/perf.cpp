#include "campaign/perf.hpp"

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
  return r;
}

PerfRecord perf_record_of(const PointResult& r) {
  PerfRecord p;
  p.key = r.key;
  p.config = r.config;
  p.benchmark = r.benchmark;
  p.host_seconds = r.result.host_seconds;
  p.minstr_per_sec = r.result.minstr_per_sec;
  return p;
}

namespace {

/// Per-config fold state: the shared weighted accumulator plus a count.
struct Fold {
  sim::HostPerfAccumulator acc;
  std::size_t points = 0;

  void add(const PerfRecord& r) {
    acc.add(r.host_seconds, r.minstr_per_sec);
    ++points;
  }
  [[nodiscard]] PerfAggregate aggregate() const {
    const sim::HostPerf perf = acc.result();
    return {points, perf.host_seconds, perf.minstr_per_sec};
  }
};

void write_perf_aggregate(JsonWriter& json, const PerfAggregate& agg) {
  json.field("points", static_cast<std::uint64_t>(agg.points));
  json.field("host_seconds", agg.host_seconds);
  json.field("minstr_per_sec", agg.minstr_per_sec);
}

}  // namespace

PerfSummary summarize_perf(const PerfLog& log) {
  Fold total;
  std::map<std::string, Fold> by_config;
  for (const PerfRecord& r : log.records()) {
    total.add(r);
    by_config[r.config].add(r);
  }
  PerfSummary summary;
  summary.total = total.aggregate();
  summary.dropped_lines = log.dropped();
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
