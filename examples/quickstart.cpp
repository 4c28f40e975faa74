// Quickstart: simulate one benchmark on the paper's best configuration
// (CLGP + L0 + 16-entry pipelined prestage buffer) and print the headline
// statistics. Start here to see the public API end to end.
//
//   ./quickstart [benchmark] [instructions]
//
// Like the bench harnesses, the default instruction budget honours the
// PRESTAGE_INSTRS environment variable via sim::default_instructions().
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cpu/cpu.hpp"
#include "sim/presets.hpp"

int main(int argc, char** argv) {
  using namespace prestage;

  const std::string benchmark = argc > 1 ? argv[1] : "eon";
  const std::uint64_t instructions = argc > 2
                                         ? std::strtoull(argv[2], nullptr, 10)
                                         : sim::default_instructions();

  // Build the machine: CLGP with an L0 cache and a 16-entry pipelined
  // prestage buffer, 4 KB L1 I-cache, at the 0.045um technology node.
  cpu::MachineConfig cfg =
      sim::make_config("clgp-l0-pb16", cacti::TechNode::um045, 4096);
  cfg.benchmark = benchmark;
  cfg.max_instructions = instructions;

  cpu::Cpu machine(cfg);
  const cpu::DerivedTimings& t = machine.timings();
  std::printf("benchmark   : %s (synthetic SPECint2000-like)\n",
              benchmark.c_str());
  std::printf("machine     : %s, L1=%lluB (%d cycles), L0=%lluB, "
              "PB=%u entries (%d-cycle pipelined), L2 %d cycles\n",
              sim::preset_label("clgp-l0-pb16").c_str(),
              static_cast<unsigned long long>(cfg.l1i_size), t.l1i_latency,
              static_cast<unsigned long long>(t.l0_size),
              cfg.prebuffer_entries, t.prebuffer_latency, t.l2_latency);

  const cpu::RunResult r = machine.run();

  std::printf("instructions: %llu committed in %llu cycles -> IPC %.3f\n",
              static_cast<unsigned long long>(r.instructions),
              static_cast<unsigned long long>(r.cycles), r.ipc);
  std::printf("fetch source: PB %.1f%%  L0 %.1f%%  L1 %.1f%%  L2 %.1f%%  "
              "Mem %.1f%%\n",
              100 * r.fetch_sources.fraction(FetchSource::PreBuffer),
              100 * r.fetch_sources.fraction(FetchSource::L0),
              100 * r.fetch_sources.fraction(FetchSource::L1),
              100 * r.fetch_sources.fraction(FetchSource::L2),
              100 * r.fetch_sources.fraction(FetchSource::Memory));
  std::printf("branches    : %.2f mispredictions per kilo-instruction "
              "(%llu recoveries)\n",
              r.mispredicts_per_kilo_instr,
              static_cast<unsigned long long>(r.recoveries));
  std::printf("prefetches  : %llu issued; L2 hit/miss %llu/%llu\n",
              static_cast<unsigned long long>(r.prefetches_issued),
              static_cast<unsigned long long>(r.l2_hits),
              static_cast<unsigned long long>(r.l2_misses));
  return 0;
}
