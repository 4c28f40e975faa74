#include "cli/options.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/types.hpp"
#include "prefetch/registry.hpp"

namespace prestage::cli {

std::vector<std::string> split_csv(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view token = text.substr(start, comma - start);
    while (!token.empty() && std::isspace(static_cast<unsigned char>(
                                 token.front()))) {
      token.remove_prefix(1);
    }
    while (!token.empty() &&
           std::isspace(static_cast<unsigned char>(token.back()))) {
      token.remove_suffix(1);
    }
    if (!token.empty()) out.emplace_back(token);
    start = comma + 1;
  }
  return out;
}

ParseResult parse_options(int argc, char** argv, int first) {
  ParseResult result;
  Options& opt = result.options;

  auto need_value = [&](int i, std::string_view flag) -> const char* {
    if (i + 1 >= argc) {
      result.error = std::string("missing value for ") + std::string(flag);
      return nullptr;
    }
    return argv[i + 1];
  };

  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      result.help = true;
      return result;
    }
    if (arg == "--preset") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      auto composition = parse_spec(v);
      if (composition && composition->node) {
        // A spec-string node ("clgp@090") is exactly --node: fold it
        // into the node option so banners, JSON provenance and store
        // rows all report the node actually simulated.
        opt.node = *composition->node;
        composition->node.reset();
      }
      if (!composition) {
        // List what is actually registered — the registry is open, so
        // the valid set is not knowable statically.
        std::string error = std::string("unknown preset '") + v +
                            "'; registered presets:";
        for (const std::string& name : all_presets()) {
          error += ' ';
          error += name;
        }
        error += "; prefetchers:";
        for (const auto& info :
             prefetch::PrefetcherRegistry::instance().entries()) {
          error += ' ';
          error += info.name;
        }
        error += " (compose like fdp+l0+pb16, see `prestage list`)";
        result.error = std::move(error);
        return result;
      }
      opt.preset = sim::canonical_name(*composition);
      ++i;
    } else if (arg == "--node") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto node = parse_node(v);
      if (!node) {
        result.error = std::string("unknown tech node '") + v +
                       "' (try 090 or 045)";
        return result;
      }
      opt.node = *node;
      ++i;
    } else if (arg == "--l1") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto size = parse_u64(v);
      if (!size || !is_pow2(*size)) {
        result.error = std::string("--l1 needs a power-of-two byte count, "
                                   "got '") + v + "'";
        return result;
      }
      opt.l1i_size = *size;
      ++i;
    } else if (arg == "--instrs") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto n = parse_u64(v);
      if (!n) {
        result.error = std::string("--instrs needs a positive count, got '") +
                       v + "'";
        return result;
      }
      opt.instructions = *n;
      ++i;
    } else if (arg == "--bench") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      for (auto& name : split_csv(v)) {
        opt.benchmarks.push_back(std::move(name));
      }
      ++i;
    } else if (arg == "--sizes") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      for (const auto& token : split_csv(v)) {
        const auto size = parse_u64(token);
        if (!size || !is_pow2(*size)) {
          result.error = "--sizes needs power-of-two byte counts, got '" +
                         token + "'";
          return result;
        }
        opt.sizes.push_back(*size);
      }
      ++i;
    } else if (arg == "--json") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      opt.json_path = v;
      ++i;
    } else if (arg == "--jobs" || arg.starts_with("-j")) {
      // "-j4" carries its count, as make's does; "-j 4" takes the next
      // argument.
      const bool attached = arg != "--jobs" && arg != "-j";
      const char* v = attached ? argv[i] + 2 : need_value(i, arg);
      if (!v) return result;
      // 0 is meaningful here (auto-detect), so parse_u64 (which rejects
      // zero) only handles the positive values.
      if (std::string_view(v) == "0") {
        opt.jobs = 0;
      } else {
        const auto n = parse_u64(v);
        if (!n || *n > 1024) {
          result.error = std::string("--jobs needs a count in 0..1024 "
                                     "(0 = all cores), got '") + v + "'";
          return result;
        }
        opt.jobs = static_cast<unsigned>(*n);
      }
      if (!attached) ++i;
    } else if (arg == "--name") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      opt.campaign = v;
      ++i;
    } else if (arg == "--store") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      opt.store_path = v;
      ++i;
    } else if (arg == "--baseline") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      opt.baseline_path = v;
      ++i;
    } else if (arg == "--threshold") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      char* end = nullptr;
      const double t = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(t) || t < 0.0) {
        result.error = std::string("--threshold needs a non-negative "
                                   "percentage, got '") + v + "'";
        return result;
      }
      opt.threshold_pct = t;
      ++i;
    } else if (arg == "--retries") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      // 0 is meaningful (a single attempt, no retry), so parse_u64's
      // zero rejection only covers the positive values.
      if (std::string_view(v) == "0") {
        opt.retries = 0;
      } else {
        const auto n = parse_u64(v);
        if (!n || *n > 16) {
          result.error = std::string("--retries needs a count in 0..16, "
                                     "got '") + v + "'";
          return result;
        }
        opt.retries = static_cast<unsigned>(*n);
      }
      ++i;
    } else if (arg == "--strict") {
      opt.strict = true;
    } else if (arg == "--durable") {
      opt.durable = true;
    } else if (arg == "--point-budget") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      char* end = nullptr;
      const double t = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(t) || t <= 0.0) {
        result.error = std::string("--point-budget needs a positive "
                                   "host-seconds budget, got '") + v + "'";
        return result;
      }
      opt.point_budget_seconds = t;
      ++i;
    } else if (arg == "--trace") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      opt.trace_path = v;
      ++i;
    } else if (arg == "--out") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      opt.out_path = v;
      ++i;
    } else if (arg == "--format") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const std::string_view format = v;
      if (format != "auto" && format != "native" && format != "champsim") {
        result.error = std::string("--format must be auto, native or "
                                   "champsim, got '") + v + "'";
        return result;
      }
      opt.trace_format = format;
      ++i;
    } else if (arg == "--interval") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto n = parse_u64(v);
      if (!n) {
        result.error =
            std::string("--interval needs a positive instruction count, "
                        "got '") + v + "'";
        return result;
      }
      opt.sample_interval = *n;
      ++i;
    } else if (arg == "--dim") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto n = parse_u64(v);
      if (!n || *n > 4096) {
        result.error = std::string("--dim needs a dimension in 1..4096, "
                                   "got '") + v + "'";
        return result;
      }
      opt.bbv_dim = static_cast<std::uint32_t>(*n);
      ++i;
    } else if (arg == "--max-k") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto n = parse_u64(v);
      if (!n || *n > 64) {
        result.error = std::string("--max-k needs a cluster cap in 1..64, "
                                   "got '") + v + "'";
        return result;
      }
      opt.max_clusters = static_cast<std::uint32_t>(*n);
      ++i;
    } else if (arg == "--warm-lines") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto n = parse_u64(v);
      if (!n || *n > (1ULL << 20U)) {
        result.error = std::string("--warm-lines needs a line count in "
                                   "1..1M, got '") + v + "'";
        return result;
      }
      opt.warm_lines = static_cast<std::uint32_t>(*n);
      ++i;
    } else if (arg == "--warmup") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto n = parse_u64(v);
      if (!n || *n > 64) {
        result.error = std::string("--warmup needs an interval count in "
                                   "1..64, got '") + v + "'";
        return result;
      }
      opt.warmup_intervals = static_cast<std::uint32_t>(*n);
      ++i;
    } else if (arg == "--plan") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      opt.plan_path = v;
      ++i;
    } else if (arg == "--max-records") {
      const char* v = need_value(i, arg);
      if (!v) return result;
      const auto n = parse_u64(v);
      if (!n) {
        result.error =
            std::string("--max-records needs a positive count, got '") + v +
            "'";
        return result;
      }
      opt.max_records = *n;
      ++i;
    } else {
      result.error = std::string("unknown flag '") + std::string(arg) + "'";
      return result;
    }
  }
  return result;
}

}  // namespace prestage::cli
