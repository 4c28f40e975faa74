#include "workload/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/prestage_assert.hpp"

namespace prestage::workload {

std::size_t TraceSource::fill_spans(TraceSpan* out, std::size_t max_spans,
                                    std::uint64_t max_instructions) {
  // Each record extends the open span or opens one, so a batch no larger
  // than the free span slots always fits: no record is read that could
  // not be placed, and the source stops exactly where the spans do.
  std::array<DynInst, 128> batch;
  std::size_t spans = 0;
  bool open = false;  // out[spans - 1] may still grow
  while (max_instructions > 0 && spans < max_spans) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        {batch.size(), max_spans - spans, max_instructions}));
    (void)fill(batch.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const DynInst& d = batch[i];
      if (open && d.pc == out[spans - 1].start +
                              static_cast<Addr>(out[spans - 1].length) *
                                  kInstrBytes) {
        ++out[spans - 1].length;
      } else {
        out[spans++] = TraceSpan{d.pc, 1, false};
      }
      out[spans - 1].ends_stream = d.ends_stream;
      open = !d.ends_stream;
    }
    max_instructions -= n;
  }
  return spans;
}

std::vector<DynInst> read_streams(TraceSource& source, std::uint64_t n) {
  std::vector<DynInst> records(static_cast<std::size_t>(n));
  (void)source.fill(records.data(), records.size());
  while (!records.empty() && !records.back().ends_stream) {
    records.emplace_back();
    (void)source.fill(&records.back(), 1);
  }
  return records;
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
      // The cursor stays below the working set and no stride exceeds it
      // (Program::validate), so one compare-and-subtract wraps exactly
      // as `% data_ws_bytes` would, without a 64-bit division per access.
      std::uint64_t& cursor = site_cursors_[site_id];
      cursor += site.stride;
      if (cursor >= prog_.data_ws_bytes) cursor -= prog_.data_ws_bytes;
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

template <bool kRecords>
TraceGenerator::Chunk TraceGenerator::advance(std::uint64_t limit,
                                              DynInst* out) {
  // Region switching is evaluated at the dispatcher loop head, at a
  // stream start, so a phase persists through whole dispatcher
  // iterations. A chunk is the only place either can begin.
  if (stream_len_ == 0 && cur_idx_ == 0 &&
      cur_block_ == prog_.dispatcher_head && prog_.num_regions > 1 &&
      seq_ > 0) {
    maybe_switch_region();
  }
  const BlockId here = cur_block_;
  const BasicBlock& b = prog_.blocks[here];
  PRESTAGE_ASSERT(cur_idx_ < b.num_instrs() && limit > 0);
  PRESTAGE_ASSERT(b.num_instrs() <= kMemMaskBits,
                  "block longer than its memory mask");
  Chunk c;
  c.start = b.start + static_cast<Addr>(cur_idx_) * kInstrBytes;
  c.length = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      {b.num_instrs() - cur_idx_, bpred::kMaxStreamInstrs - stream_len_,
       limit}));
  c.next_pc = c.start + static_cast<Addr>(c.length) * kInstrBytes;

  const StaticInst* si = prog_.insts.data() + b.first + cur_idx_;
  if constexpr (kRecords) {
    for (std::uint32_t i = 0; i < c.length; ++i) {
      DynInst& d = out[i];
      d.pc = c.start + static_cast<Addr>(i) * kInstrBytes;
      d.op = si[i].op;
      d.dst = si[i].dst;
      d.src1 = si[i].src1;
      d.src2 = si[i].src2;
      d.data_addr = kNoAddr;
      d.next_pc = d.pc + kInstrBytes;
      d.taken = false;
      d.ends_stream = false;
      d.seq = seq_ + i;
    }
  }
  // Data addresses in program order, then the branch outcome: the RNG
  // draws of an instruction-at-a-time walk, in the same order. Only the
  // chunk's loads and stores draw, found from the block's mask.
  const auto chunk_bits =
      static_cast<std::uint32_t>((std::uint64_t{1} << c.length) - 1);
  for (std::uint32_t m = (b.mem_mask >> cur_idx_) & chunk_bits; m != 0;
       m &= m - 1) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
    const Addr data = data_address(si[i].site);
    if constexpr (kRecords) out[i].data_addr = data;
  }
  seq_ += c.length;
  stream_len_ += c.length;

  if (cur_idx_ + c.length < b.num_instrs()) {
    cur_idx_ += c.length;
  } else {
    switch (b.term) {
      case TermKind::FallThrough:
        enter_block(here + 1);
        break;
      case TermKind::CondBranch:
        c.taken = eval_branch(here, b);
        if (c.taken) {
          c.next_pc = prog_.blocks[b.taken_target].start;
          enter_block(b.taken_target);
        } else {
          enter_block(here + 1);
        }
        break;
      case TermKind::Jump:
        c.taken = true;
        c.next_pc = prog_.blocks[b.taken_target].start;
        enter_block(b.taken_target);
        break;
      case TermKind::Call:
        c.taken = true;
        c.next_pc = prog_.blocks[b.taken_target].start;
        call_stack_.push_back(here + 1);  // continuation block
        enter_block(b.taken_target);
        break;
      case TermKind::Return: {
        c.taken = true;
        PRESTAGE_ASSERT(!call_stack_.empty(),
                        "return with an empty call stack");
        const BlockId cont = call_stack_.back();
        call_stack_.pop_back();
        c.next_pc = prog_.blocks[cont].start;
        enter_block(cont);
        break;
      }
    }
  }
  c.ends_stream = c.taken || stream_len_ >= bpred::kMaxStreamInstrs;
  if (c.ends_stream) stream_len_ = 0;
  if constexpr (kRecords) {
    DynInst& last = out[c.length - 1];
    last.taken = c.taken;
    last.next_pc = c.next_pc;
    last.ends_stream = c.ends_stream;
  }
  return c;
}

std::size_t TraceGenerator::fill(DynInst* out, std::size_t n) {
  for (std::size_t i = 0; i < n;) i += advance<true>(n - i, out + i).length;
  return n;
}

std::size_t TraceGenerator::fill_spans(TraceSpan* out, std::size_t max_spans,
                                       std::uint64_t max_instructions) {
  std::size_t spans = 0;
  bool open = false;  // out[spans - 1] continues into the next chunk
  while (max_instructions > 0 && (open || spans < max_spans)) {
    const Chunk c = advance<false>(max_instructions, nullptr);
    max_instructions -= c.length;
    if (open) {
      out[spans - 1].length += c.length;
    } else {
      out[spans++] = TraceSpan{c.start, c.length, false};
    }
    out[spans - 1].ends_stream = c.ends_stream;
    open = !c.ends_stream;
  }
  return spans;
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
