// Static program representation: the "basic block dictionary".
//
// The paper's simulator executes along wrong paths by consulting "a
// separate basic block dictionary in which we have the information of all
// static instructions (type, source/target registers)" (§4). Program is
// exactly that dictionary: the full static CFG of a synthesized workload,
// addressable by PC, used both by the oracle trace walker (correct path)
// and by the front-end when it runs down mispredicted paths.
//
// Blocks are laid out contiguously from `base`, so the static
// instructions form one address-ordered array: the instruction at `pc`
// is `insts[(pc - base) / kInstrBytes]`, and a block is the run of
// `count` entries from `first`. Each instruction is stored exactly once.
//
// Each block also carries a bit mask of where its loads and stores sit
// (BasicBlock::mem_mask), derived from `insts` once the builder is done
// (Program::derive_mem_masks) and checked by validate(). The trace walker
// draws data addresses at the mask's set bits only, instead of testing
// every instruction's class. The mask sits in the padding after
// `behavior`, so a block stays 48 bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/prestage_assert.hpp"
#include "common/types.hpp"

namespace prestage::workload {

using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = static_cast<BlockId>(-1);

/// How a basic block transfers control when its last instruction retires.
enum class TermKind : std::uint8_t {
  FallThrough,  ///< no control instruction; execution continues next block
  CondBranch,   ///< conditional: taken_target or the next block
  Jump,         ///< unconditional direct jump to taken_target
  Call,         ///< call taken_target; continuation is the next block
  Return,       ///< return to the caller's continuation block
};

/// How a conditional branch behaves dynamically.
enum class BranchBehavior : std::uint8_t {
  Biased,    ///< taken with fixed probability `bias`
  Periodic,  ///< loop latch: taken (period-1) times, then not-taken once
  Router,    ///< dispatcher tree branch steered by the region selector
};

/// Address-generation behaviour of a static load/store site.
enum class DataSiteClass : std::uint8_t {
  StackLocal,  ///< small frame region; effectively always cache-resident
  Stream,      ///< sequential walk with a fixed stride over the working set
  PointerChase,  ///< uniform-random access over the working set
};

struct DataSite {
  DataSiteClass cls = DataSiteClass::StackLocal;
  std::uint32_t stride = 8;  ///< bytes, for Stream sites
};

inline constexpr std::uint32_t kNoSite = static_cast<std::uint32_t>(-1);

struct StaticInst {
  OpClass op = OpClass::IntAlu;
  RegId dst = kNoReg;
  RegId src1 = kNoReg;
  RegId src2 = kNoReg;
  std::uint32_t site = kNoSite;  ///< data-site id for loads/stores
};

/// Positions a BasicBlock::mem_mask can describe. Synthetic blocks are
/// at most 26 instructions long (generator.cpp); the trace walker refuses
/// a longer block (an imported ChampSim image may have one, but it is
/// replayed, never walked).
inline constexpr std::uint32_t kMemMaskBits = 32;

struct BasicBlock {
  Addr start = 0;
  TermKind term = TermKind::FallThrough;
  BlockId taken_target = kNoBlock;  ///< branch/jump/call destination
  BranchBehavior behavior = BranchBehavior::Biased;
  /// Bit i set iff instruction i of the block (i < kMemMaskBits) is a
  /// load or a store. Set by Program::derive_mem_masks().
  std::uint32_t mem_mask = 0;
  double bias = 0.5;           ///< P(taken) for Biased conditionals
  std::uint32_t period = 0;    ///< trip count for Periodic latches
  std::uint32_t router_mid = 0;  ///< Router: taken iff region >= router_mid
  std::uint32_t first = 0;  ///< Program::insts index of its first instr
  std::uint32_t count = 0;  ///< instructions in the block

  [[nodiscard]] std::uint32_t num_instrs() const noexcept { return count; }
  [[nodiscard]] Addr end() const noexcept {
    return start + static_cast<Addr>(count) * kInstrBytes;
  }
  [[nodiscard]] Addr last_pc() const noexcept { return end() - kInstrBytes; }
};
static_assert(sizeof(BasicBlock) == 48, "mem_mask must stay in padding");

class Program {
 public:
  std::string name;
  std::vector<BasicBlock> blocks;   ///< laid out contiguously by address
  std::vector<StaticInst> insts;    ///< every instruction, by address
  std::vector<DataSite> data_sites;
  std::vector<BlockId> region_roots;  ///< entry function of each region
  BlockId dispatcher_head = 0;        ///< loop head of the dispatcher
  Addr base = 0x10000;
  std::uint64_t data_ws_bytes = 1 << 20U;
  std::uint32_t num_regions = 1;
  std::uint64_t phase_instrs = 100000;  ///< mean instructions per phase
  double chase_hot_frac = 0.92;         ///< see WorkloadProfile
  std::uint64_t chase_hot_bytes = 24ULL << 10U;

  /// Total static code size in bytes.
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return insts.size() * kInstrBytes;
  }

  [[nodiscard]] Addr code_begin() const { return base; }
  [[nodiscard]] Addr code_end() const {
    return base + static_cast<Addr>(insts.size()) * kInstrBytes;
  }
  [[nodiscard]] bool contains_pc(Addr pc) const {
    return pc >= code_begin() && pc < code_end();
  }

  /// Block holding @p pc (binary search). Precondition: contains_pc(pc).
  [[nodiscard]] BlockId block_at(Addr pc) const {
    PRESTAGE_ASSERT(contains_pc(pc), "PC outside program image");
    std::size_t lo = 0;
    std::size_t hi = blocks.size();
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (blocks[mid].start <= pc) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return static_cast<BlockId>(lo);
  }

  /// Static metadata of the instruction at @p pc: one index, no search.
  /// Precondition: contains_pc(pc).
  [[nodiscard]] const StaticInst& static_inst_at(Addr pc) const {
    PRESTAGE_ASSERT(contains_pc(pc), "PC outside program image");
    return insts[static_cast<std::size_t>((pc - base) / kInstrBytes)];
  }

  /// The instructions of @p b, in address order.
  [[nodiscard]] std::span<const StaticInst> instrs(const BasicBlock& b) const {
    return {insts.data() + b.first, b.count};
  }
  [[nodiscard]] std::span<StaticInst> instrs(const BasicBlock& b) {
    return {insts.data() + b.first, b.count};
  }

  /// Sets every block's mem_mask from its instructions. Builders call it
  /// once the instructions are final, before validate().
  void derive_mem_masks();

  /// Validates structural invariants, each block's mem_mask among them;
  /// throws SimError on violation.
  void validate() const;
};

}  // namespace prestage::workload
