#include "lint/config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "lint/rules.hpp"

namespace prestage::lint {

namespace {

/// Prefix match on forward-slash relative paths: "src/campaign/"
/// matches everything under the directory, "src/cpu/cpu.cpp" matches
/// the one file. A bare directory name without the trailing slash also
/// matches at a component boundary ("tests" matches "tests/x.cpp" but
/// not "tests_extra/x.cpp").
bool path_matches(const std::string& path, const std::string& entry) {
  if (entry.empty()) return false;
  if (path.compare(0, entry.size(), entry) != 0) return false;
  if (path.size() == entry.size()) return true;
  return entry.back() == '/' || path[entry.size()] == '/';
}

bool matches_any(const std::string& path,
                 const std::vector<std::string>& entries) {
  return std::any_of(entries.begin(), entries.end(),
                     [&](const std::string& e) {
                       return path_matches(path, e);
                     });
}

Severity parse_severity(const std::string& s) {
  if (s == "error") return Severity::Error;
  if (s == "warn") return Severity::Warn;
  if (s == "off") return Severity::Off;
  throw ConfigError("unknown severity '" + s +
                    "' (expected error|warn|off)");
}

std::vector<std::string> parse_string_array(const json::Value& v,
                                            const std::string& what) {
  if (v.kind != json::Value::Kind::Array) {
    throw ConfigError(what + " must be an array of strings");
  }
  std::vector<std::string> out;
  out.reserve(v.array.size());
  for (const json::Value& e : v.array) out.push_back(e.as_string());
  return out;
}

/// A value of the wrong JSON type inside an entry: the json::Value
/// accessors throw JsonError, which leaves the parser as the ConfigError
/// that names the entry.
ConfigError mistyped(const std::string& entry, const json::JsonError& e) {
  return ConfigError("config entry '" + entry + "' has the wrong type: " +
                     e.what());
}

RuleConfig parse_rule(const std::string& id, const json::Value& v) {
  if (v.kind != json::Value::Kind::Object) {
    throw ConfigError("rule '" + id + "' must be an object");
  }
  RuleConfig rc;
  for (const auto& [key, value] : v.object) {
    try {
      if (key == "severity") {
        rc.severity = parse_severity(value.as_string());
      } else if (key == "paths") {
        rc.paths = parse_string_array(value, "rule '" + id + "' paths");
      } else if (key == "allow") {
        rc.allow = parse_string_array(value, "rule '" + id + "' allow");
      } else {
        throw ConfigError("unknown key '" + key + "' in rule '" + id + "'");
      }
    } catch (const json::JsonError& e) {
      throw mistyped("rules." + id + "." + key, e);
    }
  }
  return rc;
}

}  // namespace

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warn: return "warn";
    case Severity::Off: return "off";
  }
  return "?";
}

const RuleConfig& Config::rule(const std::string& id) const {
  static const RuleConfig defaults;
  const auto it = rules.find(id);
  return it == rules.end() ? defaults : it->second;
}

Severity Config::severity_for(const std::string& id,
                              const std::string& path) const {
  const RuleConfig& rc = rule(id);
  if (rc.severity == Severity::Off) return Severity::Off;
  if (!rc.paths.empty() && !matches_any(path, rc.paths)) return Severity::Off;
  if (matches_any(path, rc.allow)) return Severity::Off;
  return rc.severity;
}

Config parse_config(const std::string& text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::JsonError& e) {
    throw ConfigError(std::string("config is not valid JSON: ") + e.what());
  }
  if (doc.kind != json::Value::Kind::Object) {
    throw ConfigError("config must be a JSON object");
  }
  Config cfg;
  for (const auto& [key, value] : doc.object) {
    try {
      if (key == "schema") {
        if (value.as_string() != "prestage-lint-config-v1") {
          throw ConfigError("unsupported config schema '" +
                            value.as_string() + "'");
        }
      } else if (key == "roots") {
        cfg.roots = parse_string_array(value, "roots");
      } else if (key == "extensions") {
        cfg.extensions = parse_string_array(value, "extensions");
      } else if (key == "rules") {
        if (value.kind != json::Value::Kind::Object) {
          throw ConfigError("rules must be an object");
        }
        const auto& ids = all_rule_ids();
        for (const auto& [rule_id, rule_value] : value.object) {
          if (std::find(ids.begin(), ids.end(), rule_id) == ids.end()) {
            throw ConfigError("unknown rule '" + rule_id + "'");
          }
          cfg.rules.emplace(rule_id, parse_rule(rule_id, rule_value));
        }
      } else {
        throw ConfigError("unknown config key '" + key + "'");
      }
    } catch (const json::JsonError& e) {
      throw mistyped(key, e);
    }
  }
  return cfg;
}

Config load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot read config '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_config(ss.str());
}

}  // namespace prestage::lint
