#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "common/prestage_assert.hpp"

namespace prestage::workload {

namespace {

/// Incremental program builder; block addresses are assigned in a final
/// layout pass so taken_targets can reference not-yet-created blocks.
class Builder {
 public:
  Builder(const WorkloadProfile& p, std::uint64_t seed)
      : p_(p), rng_(hash_mix(p.seed ^ (seed * 0x9e3779b97f4a7c15ULL) ^ 1)) {}

  Program build() {
    prog_.name = std::string(p_.name);
    prog_.data_ws_bytes = p_.data_ws_bytes;
    prog_.num_regions = p_.regions;
    prog_.phase_instrs = p_.phase_instrs;
    prog_.chase_hot_frac = p_.chase_hot_frac;
    prog_.chase_hot_bytes = std::min(p_.chase_hot_bytes, p_.data_ws_bytes);
    build_dispatcher();
    build_regions();
    layout();
    prog_.derive_mem_masks();
    prog_.validate();
    return std::move(prog_);
  }

 private:
  // --- block construction -----------------------------------------------

  BlockId new_block(std::uint32_t n_instrs) {
    PRESTAGE_ASSERT(n_instrs >= 1);
    // Blocks are created in layout order, so each appends its
    // instructions to the program's one address-ordered array.
    BasicBlock b;
    b.first = static_cast<std::uint32_t>(prog_.insts.size());
    b.count = n_instrs;
    for (std::uint32_t i = 0; i < n_instrs; ++i) {
      prog_.insts.push_back(make_inst());
    }
    const auto id = static_cast<BlockId>(prog_.blocks.size());
    prog_.blocks.push_back(std::move(b));
    return id;
  }

  /// Draws a non-control instruction with profile-shaped op mix and
  /// register recency (dataflow density controls achievable ILP).
  StaticInst make_inst() {
    StaticInst inst;
    const double r = rng_.uniform();
    if (r < p_.load_frac) {
      inst.op = OpClass::Load;
      inst.site = make_site();
      inst.dst = random_reg();
      inst.src1 = recent_or_random();
    } else if (r < p_.load_frac + p_.store_frac) {
      inst.op = OpClass::Store;
      inst.site = make_site();
      inst.src1 = recent_or_random();  // value
      inst.src2 = random_reg();        // base
    } else if (r < p_.load_frac + p_.store_frac + 0.04) {
      inst.op = OpClass::IntMult;
      inst.dst = random_reg();
      inst.src1 = recent_or_random();
      inst.src2 = recent_or_random();
    } else if (r < p_.load_frac + p_.store_frac + 0.05) {
      inst.op = OpClass::FpAlu;
      inst.dst = random_reg();
      inst.src1 = recent_or_random();
    } else {
      inst.op = OpClass::IntAlu;
      inst.dst = random_reg();
      inst.src1 = recent_or_random();
      if (rng_.chance(0.5)) inst.src2 = recent_or_random();
    }
    if (inst.dst != kNoReg) remember_dst(inst.dst);
    return inst;
  }

  std::uint32_t make_site() {
    DataSite site;
    const double r = rng_.uniform();
    if (r < p_.stack_site_frac) {
      site.cls = DataSiteClass::StackLocal;
    } else if (r < p_.stack_site_frac + p_.stream_site_frac) {
      site.cls = DataSiteClass::Stream;
      constexpr std::uint32_t strides[] = {8, 8, 8, 16};
      site.stride = strides[rng_.below(4)];
    } else {
      site.cls = DataSiteClass::PointerChase;
    }
    prog_.data_sites.push_back(site);
    return static_cast<std::uint32_t>(prog_.data_sites.size() - 1);
  }

  RegId random_reg() { return static_cast<RegId>(1 + rng_.below(62)); }

  RegId recent_or_random() {
    if (!recent_dsts_.empty() && rng_.chance(0.6)) {
      return recent_dsts_[rng_.below(recent_dsts_.size())];
    }
    return random_reg();
  }

  void remember_dst(RegId r) {
    recent_dsts_.push_back(r);
    if (recent_dsts_.size() > 6) recent_dsts_.pop_front();
  }

  std::uint32_t draw_block_len() {
    // Mean p_.avg_block_instrs with a floor of 2 and a geometric tail,
    // capped so that every block fits its memory mask.
    constexpr std::uint64_t kMaxTail = 24;
    static_assert(2 + kMaxTail <= kMemMaskBits);
    const double extra_mean = std::max(0.5, p_.avg_block_instrs - 2.0);
    const double cont = extra_mean / (extra_mean + 1.0);
    return 2 + static_cast<std::uint32_t>(rng_.geometric(cont, kMaxTail));
  }

  void set_terminator(BlockId id, TermKind kind, OpClass op) {
    BasicBlock& b = prog_.blocks[id];
    b.term = kind;
    StaticInst& last = prog_.instrs(b).back();
    last = StaticInst{};  // terminators carry no data site
    last.op = op;
    last.src1 = recent_or_random();
    if (op == OpClass::Branch) last.src2 = recent_or_random();
  }

  // --- dispatcher ---------------------------------------------------------

  void build_dispatcher() {
    prog_.dispatcher_head = new_block(4);  // loop head: FallThrough
    tail_patches_.clear();
    build_router(0, p_.regions);
    // Tail block jumps back to the head; patch leaf pads to reach it.
    const BlockId tail = new_block(2);
    set_terminator(tail, TermKind::Jump, OpClass::Jump);
    prog_.blocks[tail].taken_target = prog_.dispatcher_head;
    for (BlockId pad : tail_patches_) prog_.blocks[pad].taken_target = tail;
  }

  /// Recursively emits the router tree for region range [lo, hi).
  /// Layout: node, left subtree, right subtree — so a not-taken router
  /// falls through into its left child.
  void build_router(std::uint32_t lo, std::uint32_t hi) {
    PRESTAGE_ASSERT(hi > lo);
    if (hi - lo == 1) {
      // Leaf: call the region root, then a pad jumping to the tail.
      const BlockId call = new_block(2);
      set_terminator(call, TermKind::Call, OpClass::Call);
      region_call_patches_.emplace_back(call, lo);
      const BlockId pad = new_block(1);
      set_terminator(pad, TermKind::Jump, OpClass::Jump);
      tail_patches_.push_back(pad);
      return;
    }
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const BlockId node = new_block(3);
    set_terminator(node, TermKind::CondBranch, OpClass::Branch);
    prog_.blocks[node].behavior = BranchBehavior::Router;
    prog_.blocks[node].router_mid = mid;
    build_router(lo, mid);  // falls through from `node`
    const BlockId right_first = static_cast<BlockId>(prog_.blocks.size());
    build_router(mid, hi);
    prog_.blocks[node].taken_target = right_first;
  }

  // --- region functions ---------------------------------------------------

  void build_regions() {
    prog_.region_roots.resize(p_.regions);
    for (std::uint32_t r = 0; r < p_.regions; ++r) build_region(r);
    // Patch dispatcher leaf calls to the region roots.
    for (auto [call_block, region] : region_call_patches_) {
      prog_.blocks[call_block].taken_target = prog_.region_roots[region];
    }
  }

  // A region is a shallow call tree: fn 0 is the root, fns 1..F-2 hang
  // off it with fan-out <= kFanout, and fn F-1 is a small "helper" that
  // loop bodies may call once per iteration (a hot leaf, like a hash or
  // compare routine). Every non-helper call site sits *outside* loop
  // bodies, so each function runs a bounded number of times per region
  // visit — deep-call blow-up would otherwise concentrate all execution
  // in the deepest functions.
  static constexpr std::uint32_t kFanout = 3;

  void build_region(std::uint32_t region) {
    const std::uint32_t nfns = std::max<std::uint32_t>(2, p_.fns_per_region);
    const std::uint32_t helper = nfns - 1;

    std::vector<std::uint32_t> nchildren(nfns, 0);
    std::vector<std::uint32_t> depth(nfns, 0);
    for (std::uint32_t f = 1; f < helper; ++f) {
      const std::uint32_t parent = (f - 1) / kFanout;
      ++nchildren[parent];
      depth[f] = depth[parent] + 1;
    }

    std::vector<BlockId> entries(nfns);
    std::vector<std::vector<BlockId>> child_sites(nfns);
    std::vector<BlockId> helper_sites;
    for (std::uint32_t f = 0; f < nfns; ++f) {
      const bool is_helper = (f == helper);
      const bool wants_helper =
          !is_helper && nfns >= 3 && (f == 0 || rng_.chance(0.4));
      entries[f] = build_function(is_helper ? 0 : nchildren[f], depth[f],
                                  is_helper, wants_helper, child_sites[f],
                                  helper_sites);
    }
    for (std::uint32_t f = 0; f < helper; ++f) {
      for (std::size_t c = 0; c < child_sites[f].size(); ++c) {
        const std::uint32_t child = f * kFanout + 1 + static_cast<std::uint32_t>(c);
        PRESTAGE_ASSERT(child < helper);
        prog_.blocks[child_sites[f][c]].taken_target = entries[child];
      }
    }
    for (BlockId site : helper_sites) {
      prog_.blocks[site].taken_target = entries[helper];
    }
    prog_.region_roots[region] = entries[0];
  }

  /// Builds one function as a contiguous chain of blocks:
  ///   entry, [prologue calls], loop body (+latch, diamonds, optional
  ///   helper call + inner loop), [epilogue calls], return.
  /// Child call sites are reported unbound; the region wires them.
  BlockId build_function(std::uint32_t ncalls, std::uint32_t depth,
                         bool is_helper, bool wants_helper,
                         std::vector<BlockId>& child_sites,
                         std::vector<BlockId>& helper_sites) {
    std::uint32_t target_blocks = is_helper
                                      ? std::max<std::uint32_t>(4, p_.blocks_per_fn / 3)
                                      : p_.blocks_per_fn;
    const std::uint32_t lo = std::max<std::uint32_t>(4, target_blocks * 7 / 10);
    const std::uint32_t hi = std::max<std::uint32_t>(5, target_blocks * 13 / 10);
    auto nblocks = static_cast<std::uint32_t>(rng_.between(lo, hi));
    // Room for: entry + calls + >=3 body blocks + return.
    nblocks = std::max(nblocks, ncalls + (wants_helper ? 1U : 0U) + 5);

    std::vector<BlockId> ids(nblocks);
    for (std::uint32_t i = 0; i < nblocks; ++i) ids[i] = new_block(draw_block_len());
    set_terminator(ids[nblocks - 1], TermKind::Return, OpClass::Return);

    std::vector<bool> used(nblocks, false);
    used[nblocks - 1] = true;

    // Split the child calls between prologue and epilogue.
    const std::uint32_t prologue_calls = ncalls / 2;
    const std::uint32_t epilogue_calls = ncalls - prologue_calls;
    for (std::uint32_t c = 0; c < prologue_calls; ++c) {
      const std::uint32_t i = 1 + c;
      set_terminator(ids[i], TermKind::Call, OpClass::Call);
      child_sites.push_back(ids[i]);
      used[i] = true;
    }
    for (std::uint32_t c = 0; c < epilogue_calls; ++c) {
      const std::uint32_t i = nblocks - 2 - c;
      set_terminator(ids[i], TermKind::Call, OpClass::Call);
      child_sites.push_back(ids[i]);
      used[i] = true;
    }

    // Loop over the body between prologue and epilogue.
    const std::uint32_t body_lo = 1 + prologue_calls;
    const std::uint32_t body_hi = nblocks - 2 - epilogue_calls;  // inclusive
    if (body_hi > body_lo + 1) {
      const std::uint32_t head = body_lo;
      const std::uint32_t latch = body_hi;
      make_latch(ids[latch], ids[head], depth + (is_helper ? 2 : 0));
      used[latch] = true;
      if (wants_helper && latch - head >= 2) {
        const std::uint32_t i =
            head + static_cast<std::uint32_t>(rng_.below(latch - head));
        if (!used[i]) {
          set_terminator(ids[i], TermKind::Call, OpClass::Call);
          helper_sites.push_back(ids[i]);
          used[i] = true;
        }
      }
      // Optional inner loop in the front half of the body.
      if (latch - head >= 6 && rng_.chance(0.5)) {
        const std::uint32_t ihead = head + 1;
        const std::uint32_t ilatch =
            ihead + 1 +
            static_cast<std::uint32_t>(rng_.below((latch - head) / 2));
        if (!used[ilatch] && ilatch > ihead) {
          make_latch(ids[ilatch], ids[ihead], depth + 1);
          used[ilatch] = true;
        }
      }
    }

    // Forward diamonds on the remaining blocks.
    for (std::uint32_t i = 0; i + 2 < nblocks; ++i) {
      if (used[i] || !rng_.chance(p_.diamond_frac)) continue;
      if (used[i + 1]) {
        continue;  // never skip over call sites or loop latches
      }
      set_terminator(ids[i], TermKind::CondBranch, OpClass::Branch);
      BasicBlock& b = prog_.blocks[ids[i]];
      b.taken_target = ids[i + 2];
      b.behavior = BranchBehavior::Biased;
      if (rng_.chance(p_.strong_bias_frac)) {
        // Most strongly-biased conditionals are taken-heavy, matching the
        // taken-dominance of real integer code.
        b.bias = rng_.chance(0.6) ? 0.90 + 0.08 * rng_.uniform()
                                  : 0.02 + 0.08 * rng_.uniform();
      } else {
        b.bias = p_.hard_bias_lo +
                 (p_.hard_bias_hi - p_.hard_bias_lo) * rng_.uniform();
      }
      used[i] = true;
    }
    return ids[0];
  }

  void make_latch(BlockId latch, BlockId head, std::uint32_t depth) {
    set_terminator(latch, TermKind::CondBranch, OpClass::Branch);
    BasicBlock& b = prog_.blocks[latch];
    b.taken_target = head;
    b.behavior = BranchBehavior::Periodic;
    auto period = static_cast<std::uint32_t>(
        rng_.between(p_.loop_period_lo, p_.loop_period_hi));
    // Gently damp trip counts of deeper/inner loops; a floor of 4 avoids
    // degenerate period-2 latches (pure alternation) dominating.
    period >>= std::min(depth, 3U);
    b.period = std::max<std::uint32_t>(4, period);
  }

  // --- layout -------------------------------------------------------------

  void layout() {
    Addr pc = prog_.base;
    for (BasicBlock& b : prog_.blocks) {
      b.start = pc;
      pc += static_cast<Addr>(b.count) * kInstrBytes;
    }
  }

  const WorkloadProfile& p_;
  Rng rng_;
  Program prog_;
  std::deque<RegId> recent_dsts_;
  std::vector<std::pair<BlockId, std::uint32_t>> region_call_patches_;
  std::vector<BlockId> tail_patches_;
};

}  // namespace

Program generate_program(const WorkloadProfile& profile, std::uint64_t seed) {
  return Builder(profile, seed).build();
}

}  // namespace prestage::workload
