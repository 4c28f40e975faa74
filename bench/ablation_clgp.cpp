// Ablation study of CLGP's design decisions (an extension beyond the
// paper; the prefetch-buffer behaviours it swaps in are those of
// src/prefetch/prefetch_buffer.hpp): starting from the paper's CLGP+L0 at
// a 4 KB L1 / 0.045um, each row turns one mechanism off (or swaps in a
// related-work alternative) to measure what it contributes:
//   * consumers counter  -> free-on-first-use replacement (prefetch-buffer
//     style), isolating the lifetime-management contribution;
//   * no-filtering       -> FDP-style cache-probe filtering added;
//   * no-replication     -> used lines promoted to L0/L1 (classic buffer);
//   * CLTQ granularity   -> FDP (FTQ blocks) as the whole-design swap;
//   * next-2-line        -> sequential prefetching baseline (§2.1).
//
// The variants set MachineConfig fields the composition grammar cannot
// express, so they are not campaign run points: every (variant,
// benchmark) machine is built directly and the whole batch runs in
// parallel.
#include <cstdio>

#include "common/parallel.hpp"
#include "cpu/cpu.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

int main() {
  using namespace prestage;
  using namespace prestage::sim;
  using cpu::MachineConfig;
  const auto suite = full_suite();
  const std::uint64_t instructions = default_instructions();
  constexpr std::uint64_t kL1 = 4096;
  const auto node = cacti::TechNode::um045;

  struct Variant {
    const char* name;
    MachineConfig cfg;
  };
  std::vector<Variant> variants;

  variants.push_back({"CLGP+L0 (paper)", make_config("clgp-l0", node, kL1)});

  MachineConfig no_counter = make_config("clgp-l0", node, kL1);
  no_counter.clgp_disable_consumers = true;
  variants.push_back({"  - consumers counter", no_counter});

  MachineConfig filtered = make_config("clgp-l0", node, kL1);
  filtered.clgp_filter_resident = true;
  variants.push_back({"  + cache-probe filtering", filtered});

  MachineConfig replicate = make_config("clgp-l0", node, kL1);
  replicate.clgp_transfer_on_use = true;
  variants.push_back({"  + transfer-on-use", replicate});

  MachineConfig all_off = make_config("clgp-l0", node, kL1);
  all_off.clgp_disable_consumers = true;
  all_off.clgp_filter_resident = true;
  all_off.clgp_transfer_on_use = true;
  variants.push_back({"  all three reversed", all_off});

  variants.push_back({"FDP+L0 (FTQ granularity)",
                      make_config("fdp-l0", node, kL1)});

  MachineConfig nl = make_config("next-line-l0", node, kL1);
  nl.next_line_degree = 2;
  variants.push_back({"next-2-line + L0", nl});

  variants.push_back({"base+L0 (no prefetch)",
                      make_config("base-l0", node, kL1)});

  std::vector<MachineConfig> configs;
  for (const Variant& v : variants) {
    for (const std::string& bench : suite) {
      MachineConfig cfg = v.cfg;
      cfg.benchmark = bench;
      cfg.max_instructions = instructions;
      configs.push_back(std::move(cfg));
    }
  }
  std::vector<cpu::RunResult> results(configs.size());
  parallel_for_indexed(configs.size(), 0, [&](std::size_t i) {
    cpu::Cpu machine(configs[i]);
    results[i] = machine.run();
  });

  Table t({"variant", "HMEAN IPC", "vs CLGP+L0", "PB fetch share"});
  double clgp_ipc = 0.0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<double> ipcs;
    SourceBreakdown sources;
    for (std::size_t b = 0; b < suite.size(); ++b) {
      const cpu::RunResult& r = results[v * suite.size() + b];
      ipcs.push_back(r.ipc);
      for (int i = 0; i < kNumFetchSources; ++i) {
        const auto s = static_cast<FetchSource>(i);
        sources.add(s, r.fetch_sources.count(s));
      }
    }
    const double hmean = harmonic_mean(ipcs);
    if (v == 0) clgp_ipc = hmean;
    t.add_row({variants[v].name, fmt(hmean, 3),
               fmt(speedup_pct(hmean, clgp_ipc), 1) + "%",
               fmt_pct(sources.fraction(FetchSource::PreBuffer))});
  }
  std::printf("== CLGP ablations (4KB L1, 0.045um) ==\n%s\n",
              t.to_text().c_str());
  return 0;
}
