#include "workload/program.hpp"

#include <algorithm>

namespace prestage::workload {

namespace {

/// Load/store positions among the first kMemMaskBits of @p instrs.
[[nodiscard]] std::uint32_t mem_mask_of(std::span<const StaticInst> instrs) {
  std::uint32_t mask = 0;
  const std::size_t n = std::min<std::size_t>(instrs.size(), kMemMaskBits);
  for (std::size_t i = 0; i < n; ++i) {
    if (instrs[i].op == OpClass::Load || instrs[i].op == OpClass::Store) {
      mask |= 1U << i;
    }
  }
  return mask;
}

}  // namespace

void Program::derive_mem_masks() {
  for (BasicBlock& b : blocks) b.mem_mask = mem_mask_of(instrs(b));
}

void Program::validate() const {
  PRESTAGE_ASSERT(!blocks.empty(), "program has no blocks");
  PRESTAGE_ASSERT(dispatcher_head < blocks.size());
  PRESTAGE_ASSERT(num_regions >= 1);
  PRESTAGE_ASSERT(region_roots.size() == num_regions);

  Addr pc = base;
  std::uint32_t next_inst = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BasicBlock& b = blocks[i];
    PRESTAGE_ASSERT(b.count != 0, "empty basic block");
    PRESTAGE_ASSERT(b.start == pc, "blocks must be laid out contiguously");
    PRESTAGE_ASSERT(b.first == next_inst && b.count <= insts.size() - b.first,
                    "block does not index its own instructions");
    pc = b.end();
    next_inst += b.count;

    const bool needs_target = b.term == TermKind::CondBranch ||
                              b.term == TermKind::Jump ||
                              b.term == TermKind::Call;
    if (needs_target) {
      PRESTAGE_ASSERT(b.taken_target != kNoBlock &&
                          b.taken_target < blocks.size(),
                      "dangling taken_target");
    }
    // Fall-through/continuation flows into block i+1.
    const bool falls = b.term == TermKind::FallThrough ||
                       b.term == TermKind::CondBranch ||
                       b.term == TermKind::Call;
    if (falls) {
      PRESTAGE_ASSERT(i + 1 < blocks.size(),
                      "fall-through off the end of the program");
    }
    if (b.term == TermKind::CondBranch) {
      switch (b.behavior) {
        case BranchBehavior::Biased:
          PRESTAGE_ASSERT(b.bias > 0.0 && b.bias < 1.0);
          break;
        case BranchBehavior::Periodic:
          PRESTAGE_ASSERT(b.period >= 2, "degenerate loop period");
          break;
        case BranchBehavior::Router:
          PRESTAGE_ASSERT(b.router_mid >= 1 && b.router_mid < num_regions);
          break;
      }
    }
    const OpClass last = instrs(b).back().op;
    switch (b.term) {
      case TermKind::FallThrough:
        PRESTAGE_ASSERT(!is_control(last));
        break;
      case TermKind::CondBranch:
        PRESTAGE_ASSERT(last == OpClass::Branch);
        break;
      case TermKind::Jump:
        PRESTAGE_ASSERT(last == OpClass::Jump);
        break;
      case TermKind::Call:
        PRESTAGE_ASSERT(last == OpClass::Call);
        break;
      case TermKind::Return:
        PRESTAGE_ASSERT(last == OpClass::Return);
        break;
    }
    for (const StaticInst& si : instrs(b)) {
      if (si.op == OpClass::Load || si.op == OpClass::Store) {
        PRESTAGE_ASSERT(si.site != kNoSite && si.site < data_sites.size(),
                        "memory instruction without a data site");
      }
    }
    PRESTAGE_ASSERT(b.mem_mask == mem_mask_of(instrs(b)),
                    "block's memory mask disagrees with its instructions");
  }
  PRESTAGE_ASSERT(next_inst == insts.size(),
                  "instructions outside every block");
  for (BlockId root : region_roots) {
    PRESTAGE_ASSERT(root < blocks.size());
  }
  // TraceGenerator wraps a Stream cursor with one subtraction.
  for (const DataSite& site : data_sites) {
    PRESTAGE_ASSERT(site.cls != DataSiteClass::Stream ||
                        site.stride <= data_ws_bytes,
                    "stream stride larger than the working set");
  }
}

}  // namespace prestage::workload
