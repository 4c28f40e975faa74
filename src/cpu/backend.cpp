#include "cpu/backend.hpp"

#include <algorithm>

#include "common/prestage_assert.hpp"
#include "frontend/fetch_types.hpp"

namespace prestage::cpu {

Backend::Backend(const MachineConfig& cfg, Oracle& oracle,
                 const workload::Program& program, mem::MemSystem& mem)
    : cfg_(cfg),
      oracle_(oracle),
      prog_(program),
      mem_(mem),
      l1d_(kL1dSize, cfg.line_bytes, kL1dAssoc),
      decode_(static_cast<std::size_t>(kDecodeStages) * cfg.width),
      ruu_(kRuuSize) {
  unissued_.reserve(kRuuSize);
}

void Backend::accept(const frontend::FetchedInst& inst) {
  PRESTAGE_ASSERT(!decode_.full(), "accept into full decode pipe");
  Staged& st = decode_.emplace_back();
  st.f = inst;
  st.order = next_order_++;
  st.ready_at = now_ + static_cast<Cycle>(kDecodeStages);
}

bool Backend::recovery_due(Cycle now) const { return recovery_at() <= now; }

void Backend::squash_younger_than_culprit() {
  PRESTAGE_ASSERT(culprit_ != nullptr, "squash without a resolved culprit");
  const std::uint64_t culprit_order = culprit_->order;
  culprit_ = nullptr;
  while (!unissued_.empty() && unissued_.back()->order > culprit_order) {
    unissued_.pop_back();
  }
  while (!ruu_.empty() && ruu_.back().order > culprit_order) {
    ruu_.pop_back_n(1);
  }
  decode_.clear();
}

int Backend::exec_latency(OpClass op) {
  switch (op) {
    case OpClass::IntMult: return 3;
    case OpClass::FpAlu: return 2;
    default: return 1;
  }
}

void Backend::issue_one(Slot& s, Cycle now, std::uint32_t& loads_this_cycle) {
  s.issued = true;
  if (s.op == OpClass::Load) {
    ++loads_this_cycle;
    const Addr line = line_align(s.data_addr, cfg_.line_bytes);
    if (s.f.wrong_path) {
      // Wrong-path loads disturb D-cache LRU but are modelled with a
      // fixed completion and no bus traffic (squashed before retirement).
      (void)l1d_.access(line);
      s.done = now + 3;
      return;
    }
    if (l1d_.access(line)) {
      dcache_hits.add();
      s.done = now + 1;
      return;
    }
    dcache_misses.add();
    // The slot outlives the miss (see unissued_ in backend.hpp); `order`
    // checks that it still holds this load.
    Slot* slot = &s;
    const std::uint64_t order = s.order;
    mem_.submit(mem::ReqType::Data, line, now,
                [this, slot, order, line](FetchSource, Cycle ready) {
                  const auto ev = l1d_.insert(line);
                  if (ev.has_value() && ev->dirty) {
                    mem_.submit_writeback(ev->line, ready);
                  }
                  PRESTAGE_ASSERT(slot->order == order,
                                  "D-cache fill for a reused RUU slot");
                  slot->done = ready + 1;
                  // Wake dependents through the scoreboard now, not at
                  // commit.
                  if (slot->dst != kNoReg && !slot->f.wrong_path &&
                      reg_ready_[slot->dst] < slot->done) {
                    reg_ready_[slot->dst] = slot->done;
                  }
                });
    s.done = kNoCycle;  // completed by the fill callback
    return;
  }
  s.done = now + static_cast<Cycle>(exec_latency(s.op));
}

void Backend::tick_issue(Cycle now) {
  // Walks only the unissued slots (program order), compacting issued
  // ones out of the index in the same pass — same selection the full
  // RUU scan made, without re-visiting issued slots every cycle.
  std::uint32_t issued = 0;
  std::uint32_t loads = 0;
  std::size_t keep = 0;
  std::size_t i = 0;
  for (; i < unissued_.size() && issued < cfg_.width; ++i) {
    Slot& s = *unissued_[i];
    if (issue_at(s) > now || (s.op == OpClass::Load && loads >= kL1dPorts)) {
      unissued_[keep++] = unissued_[i];
      continue;
    }
    issue_one(s, now, loads);
    ++issued;
    if (s.done != kNoCycle && s.dst != kNoReg && !s.f.wrong_path) {
      reg_ready_[s.dst] = s.done;
    }
  }
  if (keep != i) {
    for (; i < unissued_.size(); ++i) unissued_[keep++] = unissued_[i];
    unissued_.resize(keep);
  }
}

void Backend::tick_commit(Cycle now) {
  std::uint32_t retired = 0;
  while (retired < cfg_.width && commit_at() <= now) {
    const Slot& head = ruu_.front();
    PRESTAGE_ASSERT(!head.f.wrong_path,
                    "wrong-path instruction reached commit");
    if (head.op == OpClass::Store) {
      const Addr line = line_align(head.data_addr, cfg_.line_bytes);
      const auto ev = l1d_.insert(line, /*dirty=*/true);
      if (ev.has_value() && ev->dirty) {
        mem_.submit_writeback(ev->line, now);
      }
      store_commits.add();
    }
    ++committed_;
    oracle_.release_below(head.f.oracle_seq);
    ruu_.pop_front();
    ++retired;
  }
}

IdlePlan Backend::idle_plan(Cycle now) {
  // `now` ends the search at the first stage due this cycle, so on the
  // busy path (the skip's most common probe outcome) this returns after
  // a compare or two instead of scanning the RUU.
  Cycle next = std::min(commit_at(), recovery_at());
  if (next <= now) return {now, nullptr};
  for (const Slot* s : unissued_) {
    next = std::min(next, issue_at(*s));
    if (next <= now) return {now, nullptr};
  }
  // Dispatch waits for the decode front's age, or for commit (above)
  // to free a slot in a full RUU.
  if (dispatch_blocked()) return {next, &ruu_full_stalls};
  if (!decode_.empty()) next = std::min(next, decode_.front().ready_at);
  return {next, nullptr};
}

void Backend::tick_dispatch(Cycle now) {
  std::uint32_t dispatched = 0;
  while (!decode_.empty() && dispatched < cfg_.width) {
    if (dispatch_blocked()) {
      ruu_full_stalls.add();
      return;
    }
    const Staged& st = decode_.front();
    if (st.ready_at > now) return;

    Slot& s = ruu_.emplace_back();
    s.f = st.f;
    s.order = st.order;
    if (st.f.wrong_path) {
      wrong_path_dispatched.add();
      if (prog_.contains_pc(st.f.pc)) {
        const workload::StaticInst& si = prog_.static_inst_at(st.f.pc);
        s.op = si.op;
        s.dst = si.dst;
        s.src1 = si.src1;
        s.src2 = si.src2;
        if (si.op == OpClass::Load || si.op == OpClass::Store) {
          s.data_addr =
              workload::wrong_path_data_addr(prog_, st.f.pc, st.order);
        }
      }
    } else {
      const workload::DynInst& d = oracle_.get(st.f.oracle_seq);
      PRESTAGE_ASSERT(d.pc == st.f.pc, "oracle/fetch PC mismatch");
      s.op = d.op;
      s.dst = d.dst;
      s.src1 = d.src1;
      s.src2 = d.src2;
      s.data_addr = d.data_addr;
    }
    unissued_.push_back(&s);
    if (s.f.culprit) {
      PRESTAGE_ASSERT(culprit_ == nullptr, "second unresolved culprit");
      culprit_ = &s;
    }
    decode_.pop_front();
    ++dispatched;
  }
}

}  // namespace prestage::cpu
