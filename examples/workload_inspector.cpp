// Workload inspector: characterises the synthetic SPECint2000-like
// programs — the trace substrate substituted for the paper's Alpha
// traces. Prints, per benchmark, the properties the studied mechanisms
// are sensitive to: static/dynamic footprint, branch mix, stream lengths
// and phase behaviour. Useful when calibrating or adding profiles.
//
//   ./workload_inspector [instructions-per-benchmark]
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "bpred/bimodal.hpp"
#include "common/table.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace prestage;
  using namespace prestage::workload;
  const std::uint64_t budget =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300000;

  Table t({"bench", "static", "dyn(touched)", "branch%", "taken-ctl%",
           "strm-len", "bimodal", "switches", "loads%"});
  for (const auto& profile : all_profiles()) {
    const Program prog = generate_program(profile);
    TraceGenerator walker(prog, 1);
    bpred::BimodalPredictor bp(16384);
    std::unordered_set<Addr> lines;
    std::uint64_t instrs = 0;
    std::uint64_t branches = 0;
    std::uint64_t correct = 0;
    std::uint64_t taken_ctl = 0;
    std::uint64_t loads = 0;
    std::uint64_t streams = 0;
    // Whole streams: the budget, continued to the end of its stream.
    for (const DynInst& d : read_streams(walker, budget)) {
      ++instrs;
      streams += d.ends_stream;
      lines.insert(line_align(d.pc, 64));
      if (d.op == OpClass::Branch) {
        ++branches;
        correct += (bp.predict(d.pc) == d.taken);
        bp.train(d.pc, d.taken);
      }
      if (is_control(d.op) && d.taken) ++taken_ctl;
      if (d.op == OpClass::Load) ++loads;
    }
    t.add_row({std::string(profile.name),
               fmt_bytes(prog.footprint_bytes()),
               fmt_bytes(lines.size() * 64),
               fmt_pct(static_cast<double>(branches) / instrs),
               fmt_pct(static_cast<double>(taken_ctl) / instrs),
               fmt(static_cast<double>(instrs) / streams, 1),
               fmt_pct(static_cast<double>(correct) / branches),
               std::to_string(walker.region_switches()),
               fmt_pct(static_cast<double>(loads) / instrs)});
  }
  std::printf("Synthetic workload characterisation (%llu instrs each):\n%s",
              static_cast<unsigned long long>(budget),
              t.to_text().c_str());
  return 0;
}
