// perfbench_driver: one benchmark process, one campaign run.
//
//   perfbench_driver run|setup|trace --workload NAME --seed N --jobs N
//                    --dir DIR
//
//   run    set up (expand the grid, create the store directory), then
//          time campaign::run_campaign into DIR/store.jsonl and check
//          the store. The process is fresh, so every cache starts empty.
//   setup  the same set-up, then exit at the point `run` would enter
//          run_campaign (more set-up samples per benchmark run).
//   trace  `run`, then the traced replay of trace.hpp into
//          DIR/traced.jsonl, which must come out byte-identical.
//
// Prints one compact JSON object on stdout. `setup_s` is the CPU time
// the process used from its creation (exec and the dynamic loader
// included) until the entry into run_campaign.
// Exits 0 when the run completed (correctness is in the output), 1 on
// an error, 2 on bad usage.
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"
#include "check.hpp"
#include "common/json_writer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace prestage;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  std::string dir;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  if (a.mode != "run" && a.mode != "setup" && a.mode != "trace") {
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--jobs") {
      a.jobs = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--dir") {
      a.dir = value;
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (argc % 2 != 0) throw std::invalid_argument("flag without a value");
  if (a.workload.empty() || a.dir.empty() || a.jobs == 0) {
    throw std::invalid_argument("--workload, --dir and --jobs >= 1 needed");
  }
  return a;
}

/// CPU seconds the process has used since it was created. Unlike a
/// wall-clock span it does not count time spent descheduled.
double process_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

std::uint64_t peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<std::uint64_t>(u.ru_maxrss);
}

/// One untraced run_campaign call on a fresh store, checked.
struct Untraced {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  perfbench::StoreCheck check;
};

Untraced run_untraced(const campaign::CampaignSpec& spec,
                      const std::vector<campaign::RunPoint>& points,
                      const std::string& store_path, unsigned jobs) {
  Untraced u;
  const auto start = Clock::now();
  const double cpu0 = cpu_seconds();
  const campaign::RunOutcome outcome =
      campaign::run_campaign(spec, store_path, jobs);
  u.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  u.cpu_s = cpu_seconds() - cpu0;
  u.check = perfbench::check_store(points, store_path, outcome.quarantined);
  return u;
}

void write_check(JsonWriter& w, const perfbench::StoreCheck& c) {
  w.field("attempted", static_cast<std::uint64_t>(c.attempted));
  w.field("failed", static_cast<std::uint64_t>(c.failed));
  w.field("digest", c.digest);
  w.field("store_bytes", c.bytes);
  w.key("problems");
  w.begin_array();
  for (const std::string& p : c.problems) w.value(p);
  w.end_array();
}

int run(const Args& a) {
  using perfbench::make_spec;
  // Set-up: everything a campaign run does before run_campaign.
  const campaign::CampaignSpec spec = make_spec(a.workload, a.seed);
  const std::vector<campaign::RunPoint> points = campaign::expand(spec);
  std::filesystem::create_directories(a.dir);
  const std::string store_path = a.dir + "/store.jsonl";
  const double setup_s = process_cpu_seconds();

  std::ostringstream out;
  JsonWriter w(out, JsonWriter::Style::Compact);
  w.begin_object();
  w.field("setup_s", setup_s);
  if (a.mode == "setup") {
    w.end_object();
    std::cout << out.str() << '\n';
    return 0;
  }

  const Untraced u = run_untraced(spec, points, store_path, a.jobs);
  std::uint64_t budget = 0;
  for (const campaign::RunPoint& p : points) budget += p.instructions;
  w.field("wall_s", u.wall_s);
  w.field("cpu_s", u.cpu_s);
  w.field("budget_instructions", budget);
  write_check(w, u.check);

  if (a.mode == "trace") {
    const std::string traced_path = a.dir + "/traced.jsonl";
    perfbench::TracedRun t = perfbench::run_traced(spec, traced_path, a.jobs);
    const perfbench::StoreCheck replayed =
        perfbench::check_store(points, traced_path, 0);
    w.field("replay_digest", replayed.digest);
    w.field("replay_failed", static_cast<std::uint64_t>(replayed.failed));
    t.metrics.emplace_back(
        "campaign.worker_idle_frac",
        1.0 - u.cpu_s / (u.wall_s * static_cast<double>(a.jobs)));
    t.metrics.emplace_back("trace.overhead_frac", t.wall_s / u.wall_s - 1.0);
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : t.metrics) w.field(name, value);
    w.end_object();
  }
  w.field("peak_rss_kb", peak_rss_kb());
  w.end_object();
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what()
              << "\nusage: perfbench_driver run|setup|trace --workload NAME "
                 "--seed N --jobs N --dir DIR\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
