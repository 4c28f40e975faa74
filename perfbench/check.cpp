#include "check.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/failures.hpp"
#include "campaign/store.hpp"

namespace perfbench {

using namespace prestage;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

namespace {

/// Why @p r is not a valid result for @p p, or "" when it is.
std::string invalid_reason(const campaign::RunPoint& p,
                           const campaign::PointResult& r) {
  const cpu::RunResult& res = r.result;
  // A sampled estimate rounds each reconstructed count on its own, so
  // its source sum may be off by one per source.
  const std::uint64_t sum = res.fetch_sources.total();
  const std::uint64_t slack = res.sampled ? kNumFetchSources : 0;
  if (sum + slack < res.lines_fetched || sum > res.lines_fetched + slack) {
    return "fetch-source sum differs from lines_fetched";
  }
  if (res.instructions < p.instructions) return "committed below budget";
  if (!(res.ipc > 0.0)) return "non-positive IPC";
  if (p.sampling.enabled && !(res.sampled && res.ipc_error > 0.0)) {
    return "sampled point without a positive error bar";
  }
  return "";
}

}  // namespace

StoreCheck check_store(const std::vector<campaign::RunPoint>& points,
                       const std::string& store_path,
                       std::size_t quarantined) {
  StoreCheck c;
  c.attempted = points.size();
  const auto note = [&c](std::string problem) {
    if (c.problems.size() < 5) c.problems.push_back(std::move(problem));
  };

  const std::string bytes = read_file(store_path);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(campaign::fnv1a64(bytes)));
  c.digest = hex;
  c.bytes = bytes.size();

  const campaign::ResultStore store = campaign::ResultStore::load(store_path);
  if (store.load_stats().skipped > 0) {
    c.failed += store.load_stats().skipped;
    note(std::to_string(store.load_stats().skipped) + " corrupt store lines");
  }
  // A quarantined point never reaches the store, so the key scan below
  // counts it; this only names the cause.
  if (quarantined > 0 ||
      std::filesystem::exists(campaign::failures_log_path(store_path))) {
    note(std::to_string(quarantined) + " quarantined points");
  }
  for (const campaign::RunPoint& p : points) {
    const campaign::PointResult* r = store.find(p.key());
    const std::string why = r == nullptr ? "missing from the store"
                                         : invalid_reason(p, *r);
    if (!why.empty()) {
      ++c.failed;
      note(p.descriptor() + ": " + why);
    }
  }
  return c;
}

}  // namespace perfbench
