#include "campaign/failures.hpp"

#include <sstream>

#include "common/json.hpp"
#include "common/json_writer.hpp"

namespace prestage::campaign {

std::string failures_log_path(const std::string& store_path) {
  return store_path + ".failures";
}

void write_failure(JsonWriter& json, const FailureRecord& r) {
  json.begin_object();
  json.field("key", r.key);
  json.field("config", r.config);
  json.field("benchmark", r.benchmark);
  json.field("error_class", r.error_class);
  json.field("message", r.message);
  json.field("attempts", r.attempts);
  json.end_object();
}

std::string encode_failure_line(const FailureRecord& r) {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::Compact);
  write_failure(json, r);
  return out.str();
}

FailureRecord decode_failure_line(std::string_view line) {
  const json::Value doc = json::parse(line);
  FailureRecord r;
  r.key = doc.at("key").as_string();
  if (r.key.empty()) throw json::JsonError("empty failure key");
  r.config = doc.at("config").as_string();
  r.benchmark = doc.at("benchmark").as_string();
  r.error_class = doc.at("error_class").as_string();
  r.message = doc.at("message").as_string();
  r.attempts = doc.at("attempts").as_u64();
  return r;
}

}  // namespace prestage::campaign
