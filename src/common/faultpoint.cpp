#include "common/faultpoint.hpp"

#include <cstdint>
#include <cstdlib>
#include <optional>

namespace prestage::faults {

namespace {

enum class FaultAction { Throw, Kill, Torn };
enum class Trigger { OnceAtHit, EveryNth, KeyMatch };

struct ArmedFault {
  Site site = Site::StoreAppend;
  FaultAction action = FaultAction::Throw;
  Trigger trigger = Trigger::OnceAtHit;
  std::uint64_t n = 1;  ///< hit number (OnceAtHit) or period (EveryNth)
  std::string key;      ///< KeyMatch substring
};

/// Armed spec. Written only by arm()/disarm() (single-threaded setup by
/// contract); read by check_slow() behind the armed_flag acquire.
std::vector<ArmedFault>& armed_faults() {
  static std::vector<ArmedFault> faults;
  return faults;
}

std::array<std::atomic<std::uint64_t>, kNumSites>& hit_counters() {
  static std::array<std::atomic<std::uint64_t>, kNumSites> hits{};
  return hits;
}

/// Strict positive decimal (no suffixes: hit counts, not sizes).
std::optional<std::uint64_t> parse_count(std::string_view text) {
  if (text.empty() || text.size() > 18) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0) return std::nullopt;
  return v;
}

std::optional<Site> parse_site(std::string_view name) {
  for (const SiteInfo& info : site_table()) {
    if (name == info.name) return info.site;
  }
  return std::nullopt;
}

const char* action_name(FaultAction a) {
  switch (a) {
    case FaultAction::Throw: return "fail";
    case FaultAction::Kill: return "kill";
    case FaultAction::Torn: return "torn";
  }
  return "?";
}

/// Splits "a,b,c" preserving empties (an empty token is a spec error,
/// unlike the CLI's forgiving list flags).
std::vector<std::string_view> split_spec(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Parses one "site:action[@trigger]" clause into @p fault; returns an
/// error message or empty.
std::string parse_clause(std::string_view clause, ArmedFault& fault) {
  // Appended in steps: `"'" + std::string(clause) + "'"` trips a GCC 12
  // -Wrestrict false positive under -O3 -pg.
  std::string quoted = "'";
  quoted += clause;
  quoted += '\'';
  const std::size_t colon = clause.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return "fault clause " + quoted + " is not site:action[@trigger]";
  }
  const std::string_view site_name = clause.substr(0, colon);
  const auto site = parse_site(site_name);
  if (!site) {
    std::string error =
        "unknown fault site '" + std::string(site_name) + "'; sites:";
    for (const SiteInfo& info : site_table()) {
      error += ' ';
      error += info.name;
    }
    return error;
  }
  fault.site = *site;

  std::string_view rest = clause.substr(colon + 1);
  std::string_view trigger;
  const std::size_t at = rest.find('@');
  if (at != std::string_view::npos) {
    trigger = rest.substr(at + 1);
    rest = rest.substr(0, at);
  }

  if (rest == "fail" || rest == "throw") {
    fault.action = FaultAction::Throw;
  } else if (rest == "kill") {
    fault.action = FaultAction::Kill;
  } else if (rest == "torn") {
    if (!site_table()[static_cast<int>(*site)].append_site) {
      return "torn action needs an append site, not '" +
             std::string(site_name) + "'";
    }
    fault.action = FaultAction::Torn;
  } else {
    return "unknown fault action '" + std::string(rest) +
           "' in " + quoted + " (fail | throw | kill | torn)";
  }

  if (at == std::string_view::npos) {
    fault.trigger = Trigger::OnceAtHit;
    fault.n = 1;
    return {};
  }
  if (trigger.rfind("every=", 0) == 0) {
    const auto n = parse_count(trigger.substr(6));
    if (!n) return "trigger in " + quoted + " needs every=N with N >= 1";
    fault.trigger = Trigger::EveryNth;
    fault.n = *n;
    return {};
  }
  if (trigger.rfind("key=", 0) == 0) {
    const std::string_view key = trigger.substr(4);
    if (key.empty()) return "trigger in " + quoted + " has an empty key=";
    fault.trigger = Trigger::KeyMatch;
    fault.key = std::string(key);
    return {};
  }
  const auto n = parse_count(trigger);
  if (!n) {
    return "malformed trigger '" + std::string(trigger) + "' in " + quoted +
           " (N | every=N | key=S)";
  }
  fault.trigger = Trigger::OnceAtHit;
  fault.n = *n;
  return {};
}

}  // namespace

const std::array<SiteInfo, kNumSites>& site_table() {
  static const std::array<SiteInfo, kNumSites> table{{
      {Site::StoreAppend, "store.append",
       "result-store JSONL line append", true},
      {Site::PerfAppend, "perf.append",
       "host-perf sidecar line append (best-effort path)", true},
      {Site::PsckRead, "psck.read",
       "PSCK sampling-checkpoint file read", false},
      {Site::PsckWrite, "psck.write",
       "PSCK sampling-checkpoint file write", false},
      {Site::TraceRead, "trace.read",
       "trace file open/stream", false},
      {Site::PointExecute, "point.execute",
       "one campaign run point's simulation", false},
  }};
  return table;
}

const char* to_string(Site site) {
  return site_table()[static_cast<int>(site)].name;
}

namespace detail {

std::atomic<bool> armed_flag{false};

Action check_slow(Site site, std::string_view context) {
  const std::uint64_t hit =
      ++hit_counters()[static_cast<std::size_t>(site)];
  for (const ArmedFault& fault : armed_faults()) {
    if (fault.site != site) continue;
    bool fire = false;
    switch (fault.trigger) {
      case Trigger::OnceAtHit:
        fire = hit == fault.n;
        break;
      case Trigger::EveryNth:
        fire = hit % fault.n == 0;
        break;
      case Trigger::KeyMatch:
        fire = context.find(fault.key) != std::string_view::npos;
        break;
    }
    if (!fire) continue;
    switch (fault.action) {
      case FaultAction::Throw:
        // Deterministic message (no hit count): key=-seeded failure
        // records must be byte-stable across worker counts.
        throw FaultInjected(std::string("injected fault at ") +
                            to_string(site));
      case FaultAction::Kill:
        std::_Exit(137);  // the crash harness's power-cut
      case FaultAction::Torn:
        return Action::Torn;
    }
  }
  return Action::None;
}

}  // namespace detail

std::string arm(std::string_view spec) {
  std::vector<ArmedFault> parsed;
  for (const std::string_view clause : split_spec(spec)) {
    if (clause.empty()) {
      return "empty fault clause in '" + std::string(spec) + "'";
    }
    ArmedFault fault;
    std::string error = parse_clause(clause, fault);
    if (!error.empty()) return error;
    parsed.push_back(std::move(fault));
  }
  disarm();
  armed_faults() = std::move(parsed);
  detail::armed_flag.store(true, std::memory_order_release);
  return {};
}

void disarm() {
  detail::armed_flag.store(false, std::memory_order_release);
  armed_faults().clear();
  for (auto& counter : hit_counters()) {
    counter.store(0, std::memory_order_relaxed);
  }
}

std::vector<std::string> describe_armed() {
  std::vector<std::string> out;
  if (!armed()) return out;
  for (const ArmedFault& fault : armed_faults()) {
    std::string text = std::string(to_string(fault.site)) + ":" +
                       action_name(fault.action) + "@";
    switch (fault.trigger) {
      case Trigger::OnceAtHit:
        text += std::to_string(fault.n);
        break;
      case Trigger::EveryNth:
        text += "every=" + std::to_string(fault.n);
        break;
      case Trigger::KeyMatch:
        text += "key=" + fault.key;
        break;
    }
    out.push_back(std::move(text));
  }
  return out;
}

}  // namespace prestage::faults
