#include "mem/memsys.hpp"

#include <algorithm>

#include "common/prestage_assert.hpp"

namespace prestage::mem {

MemSystem::MemSystem(const MemSystemConfig& config)
    : config_(config),
      l2_(config.l2_size_bytes, config.l2_line_bytes, config.l2_assoc) {
  PRESTAGE_ASSERT(config.l2_latency >= 1);
  PRESTAGE_ASSERT(config.mem_latency >= 1);
  PRESTAGE_ASSERT(config.transfer_bytes > 0);
}

std::uint32_t MemSystem::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void MemSystem::free_slot(std::uint32_t index) noexcept {
  slots_[index].state = SlotState::Free;
  slots_[index].cb_head = kNil;
  slots_[index].cb_tail = kNil;
  free_slots_.push_back(index);
}

void MemSystem::append_callback(Transaction& txn, FillCallback on_fill) {
  std::uint32_t node;
  if (cb_free_head_ != kNil) {
    node = cb_free_head_;
    cb_free_head_ = cb_nodes_[node].next;
  } else {
    cb_nodes_.emplace_back();
    node = static_cast<std::uint32_t>(cb_nodes_.size() - 1);
  }
  cb_nodes_[node].fn = std::move(on_fill);
  cb_nodes_[node].next = kNil;
  if (txn.cb_tail == kNil) {
    txn.cb_head = node;
  } else {
    cb_nodes_[txn.cb_tail].next = node;
  }
  txn.cb_tail = node;
}

void MemSystem::push_grant(ReqType type, std::uint64_t seq,
                           std::uint32_t slot) {
  grant_heap_.push_back({type, seq, slot});
  std::push_heap(grant_heap_.begin(), grant_heap_.end(),
                 GrantKey::pops_later);
}

void MemSystem::submit(ReqType type, Addr addr, Cycle now,
                       FillCallback on_fill) {
  const Addr line = l1_line(addr);

  // MSHR merge: piggyback on the fill already pending or in service for
  // this line; a higher-priority requester upgrades a still-queued
  // transaction's arbitration class (the upgrade pushes a fresh heap
  // entry and the old one goes stale).
  if (std::uint32_t* index = line_to_slot_.find(line)) {
    Transaction& txn = slots_[*index];
    if (txn.state == SlotState::Pending &&
        static_cast<int>(type) < static_cast<int>(txn.type)) {
      txn.type = type;
      push_grant(type, txn.seq, *index);
    }
    append_callback(txn, std::move(on_fill));
    merges.add();
    return;
  }

  const std::uint32_t index = alloc_slot();
  Transaction& txn = slots_[index];
  txn.line = line;
  txn.type = type;
  txn.seq = next_seq_++;
  txn.ready = kNoCycle;
  txn.state = SlotState::Pending;
  txn.is_writeback = false;
  append_callback(txn, std::move(on_fill));
  line_to_slot_.insert(line, index);
  push_grant(type, txn.seq, index);
  ++pending_count_;
  (void)now;
}

void MemSystem::submit_writeback(Addr addr, Cycle now) {
  (void)now;
  const std::uint32_t index = alloc_slot();
  Transaction& txn = slots_[index];
  txn.line = line_align(addr, config_.l2_line_bytes);
  txn.type = ReqType::Data;
  txn.seq = next_seq_++;
  txn.ready = kNoCycle;
  txn.state = SlotState::Pending;
  txn.is_writeback = true;
  // Writebacks are not merged: each occupies the bus once, so they never
  // enter the line map.
  push_grant(txn.type, txn.seq, index);
  ++pending_count_;
}

bool MemSystem::in_flight(Addr addr) const {
  return line_to_slot_.contains(l1_line(addr));
}

void MemSystem::grant_one(Cycle now) {
  if (grant_at() > now) return;

  // Highest priority class first; oldest submission within a class.
  // Stale entries (upgraded or already-granted transactions) are
  // discarded until a live one surfaces.
  while (!grant_heap_.empty()) {
    const GrantKey top = grant_heap_.front();
    std::pop_heap(grant_heap_.begin(), grant_heap_.end(),
                  GrantKey::pops_later);
    grant_heap_.pop_back();
    Transaction& txn = slots_[top.slot];
    if (txn.state != SlotState::Pending || txn.seq != top.seq ||
        txn.type != top.type) {
      continue;  // stale: the slot moved on since this entry was pushed
    }

    grants[static_cast<std::size_t>(txn.type)].add();
    const Cycle transfer = std::max<Cycle>(
        1, config_.l1_line_bytes / config_.transfer_bytes);
    bus_free_at_ = now + transfer;
    bus_busy_cycles.add(transfer);
    --pending_count_;

    if (txn.is_writeback) {
      writebacks.add();
      l2_.insert(txn.line, /*dirty=*/true);
      free_slot(top.slot);
      return;  // fire-and-forget
    }

    if (l2_.access(txn.line)) {
      l2_hits.add();
      txn.source = FetchSource::L2;
      txn.ready = now + static_cast<Cycle>(config_.l2_latency);
    } else {
      l2_misses.add();
      txn.source = FetchSource::Memory;
      txn.ready = now + static_cast<Cycle>(config_.l2_latency) +
                  static_cast<Cycle>(config_.mem_latency);
      // The memory fill installs the (larger) L2 line; a dirty victim is
      // counted but its writeback bandwidth is charged to the memory bus,
      // which is not the contended resource in this study.
      l2_.insert(line_align(txn.line, config_.l2_line_bytes));
    }
    txn.state = SlotState::InService;
    ready_heap_.push_back({txn.ready, txn.seq, top.slot});
    std::push_heap(ready_heap_.begin(), ready_heap_.end(),
                   ReadyKey::pops_later);
    return;
  }
}

void MemSystem::deliver_completions(Cycle now) {
  // Completions fire in (ready, seq) order for determinism. Callbacks may
  // re-enter submit()/submit_writeback() (the D-cache fill path queues
  // victim writebacks), which can grow the pools — so no reference into
  // slots_/cb_nodes_ is held across an invocation. Re-entrant submissions
  // only create *pending* transactions, so the completion set cannot grow
  // mid-drain.
  while (completion_at() <= now) {
    const ReadyKey top = ready_heap_.front();
    std::pop_heap(ready_heap_.begin(), ready_heap_.end(),
                  ReadyKey::pops_later);
    ready_heap_.pop_back();

    const FetchSource source = slots_[top.slot].source;
    std::uint32_t node = slots_[top.slot].cb_head;
    line_to_slot_.erase(slots_[top.slot].line);
    free_slot(top.slot);

    while (node != kNil) {
      FillCallback fn = std::move(cb_nodes_[node].fn);
      const std::uint32_t next = cb_nodes_[node].next;
      cb_nodes_[node].next = cb_free_head_;  // release before invoking:
      cb_free_head_ = node;                  // fn may re-enter submit()
      fn(source, top.ready);
      node = next;
    }
  }
}

void MemSystem::tick(Cycle now) {
  // Idle early-out: no completion and no grant due this cycle — the
  // common case for memory-quiet stretches of the simulation.
  // Deliberately placed before the monotonicity assert (idle cycles
  // skip it, so last_tick_ tracks the last *active* cycle; a backwards
  // tick is still caught as soon as one acts).
  if (idle_plan(now).next_event > now) return;
  PRESTAGE_ASSERT(now >= last_tick_, "tick must not go backwards");
  last_tick_ = now;
  deliver_completions(now);
  grant_one(now);
}

}  // namespace prestage::mem
