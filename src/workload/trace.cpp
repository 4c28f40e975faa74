#include "workload/trace.hpp"
#include <cmath>
#include <algorithm>

#include "common/prestage_assert.hpp"

namespace prestage::workload {

std::size_t TraceSource::fill(DynInst* out, std::size_t n) {
  std::size_t filled = 0;
  while (filled < n) {
    if (fill_carry_pos_ == fill_carry_.size()) {
      StreamChunk chunk = next_stream();
      fill_carry_ = std::move(chunk.insts);
      fill_carry_pos_ = 0;
      PRESTAGE_ASSERT(!fill_carry_.empty(),
                      "trace source produced an empty stream");
    }
    const std::size_t take =
        std::min(n - filled, fill_carry_.size() - fill_carry_pos_);
    std::copy_n(fill_carry_.begin() +
                    static_cast<std::ptrdiff_t>(fill_carry_pos_),
                take, out + filled);
    fill_carry_pos_ += take;
    filled += take;
  }
  return filled;
}

std::unique_ptr<TraceSource> TraceSource::clone() const {
  throw SimError("this trace source cannot be snapshotted");
}

TraceGenerator::TraceGenerator(const Program& program, std::uint64_t seed)
    : prog_(program),
      rng_(hash_mix(seed ^ 0xabcdef1234567890ULL)),
      cur_block_(program.dispatcher_head),
      site_cursors_(program.data_sites.size(), 0) {
  PRESTAGE_ASSERT(!program.blocks.empty());
}

std::unique_ptr<TraceSource> TraceGenerator::clone() const {
  return std::make_unique<TraceGenerator>(*this);
}

bool TraceGenerator::eval_branch(BlockId id, const BasicBlock& b) {
  switch (b.behavior) {
    case BranchBehavior::Biased:
      return rng_.chance(b.bias);
    case BranchBehavior::Periodic: {
      std::uint32_t& count =
          *latch_counts_.find_or_insert(static_cast<Addr>(id), 0);
      ++count;
      if (count >= b.period) {
        count = 0;
        return false;  // loop exit
      }
      return true;  // keep looping
    }
    case BranchBehavior::Router:
      return region_ >= b.router_mid;
  }
  PRESTAGE_ASSERT(false, "unknown branch behaviour");
}

Addr TraceGenerator::data_address(std::uint32_t site_id) {
  PRESTAGE_ASSERT(site_id < prog_.data_sites.size());
  const DataSite& site = prog_.data_sites[site_id];
  switch (site.cls) {
    case DataSiteClass::StackLocal:
      return kStackBase + (rng_.below(kStackBytes / 8) * 8);
    case DataSiteClass::Stream: {
      std::uint64_t& cursor = site_cursors_[site_id];
      cursor = (cursor + site.stride) % prog_.data_ws_bytes;
      return kHeapBase + cursor;
    }
    case DataSiteClass::PointerChase: {
      // Temporal locality: most accesses stay inside a hot region that a
      // reasonable D-cache captures; the rest roam the full working set.
      if (rng_.chance(prog_.chase_hot_frac)) {
        return kHeapBase + (rng_.below(prog_.chase_hot_bytes / 8) * 8);
      }
      return kHeapBase + (rng_.below(prog_.data_ws_bytes / 8) * 8);
    }
  }
  PRESTAGE_ASSERT(false, "unknown data site class");
}

void TraceGenerator::enter_block(BlockId id) {
  PRESTAGE_ASSERT(id < prog_.blocks.size());
  cur_block_ = id;
  cur_idx_ = 0;
}

void TraceGenerator::maybe_switch_region() {
  // Phases last ~phase_instrs instructions (exponentially distributed);
  // a switch drifts to a neighbouring region (occasionally jumps
  // anywhere), like the sticky phase behaviour of real programs.
  if (phase_budget_ == 0) {
    phase_budget_ = draw_phase_budget();
  }
  if (seq_ - phase_start_seq_ < phase_budget_) return;
  phase_start_seq_ = seq_;
  phase_budget_ = draw_phase_budget();
  const std::uint32_t r = prog_.num_regions;
  std::uint32_t next = region_;
  if (rng_.chance(0.7)) {
    next = rng_.chance(0.5) ? (region_ + 1) % r : (region_ + r - 1) % r;
  } else {
    next = static_cast<std::uint32_t>(rng_.below(r));
  }
  if (next != region_) {
    region_ = next;
    ++region_switches_;
  }
}

std::uint64_t TraceGenerator::draw_phase_budget() {
  // Exponential with mean phase_instrs, clamped to avoid zero-length
  // phases thrashing the region selector.
  const double u = std::max(rng_.uniform(), 1e-12);
  const double len = -std::log(u) * static_cast<double>(prog_.phase_instrs);
  const auto min_len = static_cast<double>(prog_.phase_instrs) / 8.0;
  return static_cast<std::uint64_t>(std::max(len, min_len));
}

DynInst TraceGenerator::step() {
  const BasicBlock& b = prog_.blocks[cur_block_];
  PRESTAGE_ASSERT(cur_idx_ < b.num_instrs());
  const StaticInst& si = b.instrs[cur_idx_];

  DynInst d;
  d.pc = b.start + static_cast<Addr>(cur_idx_) * kInstrBytes;
  d.op = si.op;
  d.dst = si.dst;
  d.src1 = si.src1;
  d.src2 = si.src2;
  d.seq = seq_++;
  if (si.op == OpClass::Load || si.op == OpClass::Store) {
    d.data_addr = data_address(si.site);
  }

  const bool is_last = cur_idx_ + 1 == b.num_instrs();
  if (!is_last || b.term == TermKind::FallThrough) {
    d.taken = false;
    d.next_pc = d.pc + kInstrBytes;
    if (is_last) {
      enter_block(cur_block_ + 1);
    } else {
      ++cur_idx_;
    }
    return d;
  }

  switch (b.term) {
    case TermKind::CondBranch: {
      d.taken = eval_branch(cur_block_, b);
      if (d.taken) {
        const BasicBlock& t = prog_.blocks[b.taken_target];
        d.next_pc = t.start;
        enter_block(b.taken_target);
      } else {
        d.next_pc = d.pc + kInstrBytes;
        enter_block(cur_block_ + 1);
      }
      break;
    }
    case TermKind::Jump: {
      d.taken = true;
      d.next_pc = prog_.blocks[b.taken_target].start;
      enter_block(b.taken_target);
      break;
    }
    case TermKind::Call: {
      d.taken = true;
      d.next_pc = prog_.blocks[b.taken_target].start;
      call_stack_.push_back(cur_block_ + 1);  // continuation block
      enter_block(b.taken_target);
      break;
    }
    case TermKind::Return: {
      d.taken = true;
      PRESTAGE_ASSERT(!call_stack_.empty(),
                      "return with an empty call stack");
      const BlockId cont = call_stack_.back();
      call_stack_.pop_back();
      d.next_pc = prog_.blocks[cont].start;
      enter_block(cont);
      break;
    }
    case TermKind::FallThrough:
      PRESTAGE_ASSERT(false, "unreachable");
  }
  return d;
}

TraceGenerator::StreamChunk TraceGenerator::next_stream() {
  StreamChunk chunk;
  chunk.insts.reserve(16);
  stream_len_ = 0;
  const BasicBlock& first = prog_.blocks[cur_block_];
  chunk.stream.start =
      first.start + static_cast<Addr>(cur_idx_) * kInstrBytes;

  for (;;) {
    // Region switching is evaluated at the dispatcher loop head so a
    // phase persists through whole dispatcher iterations.
    if (cur_idx_ == 0 && cur_block_ == prog_.dispatcher_head &&
        prog_.num_regions > 1 && stream_len_ == 0 && seq_ > 0) {
      maybe_switch_region();
    }
    DynInst d = step();
    ++stream_len_;
    const bool split = stream_len_ >= bpred::kMaxStreamInstrs;
    d.ends_stream = d.taken || split;
    chunk.insts.push_back(d);
    if (d.ends_stream) {
      chunk.stream.length = stream_len_;
      chunk.stream.next_start = d.next_pc;
      stream_len_ = 0;
      return chunk;
    }
  }
}

std::size_t TraceGenerator::fill(DynInst* out, std::size_t n) {
  // The next_stream() loop flattened: stream_len_ persists across calls,
  // so the region-switch hook and the ends_stream split fire exactly
  // where the chunked walk would put them.
  for (std::size_t i = 0; i < n; ++i) {
    if (stream_len_ == 0 && cur_idx_ == 0 &&
        cur_block_ == prog_.dispatcher_head && prog_.num_regions > 1 &&
        seq_ > 0) {
      maybe_switch_region();
    }
    DynInst d = step();
    ++stream_len_;
    d.ends_stream = d.taken || stream_len_ >= bpred::kMaxStreamInstrs;
    if (d.ends_stream) stream_len_ = 0;
    out[i] = d;
  }
  return n;
}

std::vector<Addr> TraceGenerator::call_stack_pcs(std::size_t max_depth) const {
  std::vector<Addr> pcs;
  const std::size_t n = std::min(max_depth, call_stack_.size());
  pcs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const BlockId cont = call_stack_[call_stack_.size() - 1 - i];
    pcs.push_back(prog_.blocks[cont].start);
  }
  return pcs;
}

Addr wrong_path_data_addr(const Program& prog, Addr pc, std::uint64_t salt) {
  const std::uint64_t h = hash_mix(pc ^ (salt * 0x2545f4914f6cdd1dULL));
  return kHeapBase + ((h % prog.data_ws_bytes) & ~7ULL);
}

}  // namespace prestage::workload
