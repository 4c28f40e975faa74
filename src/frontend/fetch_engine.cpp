#include "frontend/fetch_engine.hpp"

#include <algorithm>

#include "common/prestage_assert.hpp"

namespace prestage::frontend {

FetchEngine::FetchEngine(const FetchEngineConfig& config, IFetchQueue& queue,
                         mem::IFetchCaches& caches, mem::MemSystem& mem,
                         prefetch::IPrefetcher& prefetcher)
    : config_(config),
      queue_(queue),
      caches_(caches),
      mem_(mem),
      prefetcher_(prefetcher),
      pending_(config.max_outstanding) {
  PRESTAGE_ASSERT(config.width >= 1);
}

void FetchEngine::deliver(Cycle now, IFetchSink& sink) {
  // Promote the oldest completed line fetch into the line buffer.
  if (!line_buffer_.active && !pending_.empty()) {
    const Pending& head = pending_.front();
    if (head.ready != kNoCycle && head.ready <= now) {
      line_buffer_.view = head.view;
      line_buffer_.source = head.source;
      line_buffer_.delivered = 0;
      line_buffer_.active = true;
      fetch_sources.add(head.source);
      lines_fetched.add();
      (void)pending_.pop();
    }
  }
  if (!line_buffer_.active) return;

  const LineView& v = line_buffer_.view;
  std::uint32_t sent = 0;
  while (line_buffer_.delivered < v.count && sent < config_.width &&
         sink.can_accept()) {
    const std::uint32_t i = line_buffer_.delivered;
    FetchedInst inst;
    inst.pc = v.first_pc + static_cast<Addr>(i) * kInstrBytes;
    inst.wrong_path = i >= v.wrong_from;
    inst.oracle_seq = inst.wrong_path ? kNoSeq : v.oracle_seq + i;
    inst.culprit = v.culprit_index == static_cast<std::int32_t>(i);
    inst.source = line_buffer_.source;
    sink.accept(inst);
    instrs_delivered.add();
    ++line_buffer_.delivered;
    ++sent;
  }
  if (line_buffer_.delivered >= v.count) line_buffer_.active = false;
}

void FetchEngine::initiate(Cycle now) {
  if (pending_.full()) {
    stall_cycles_structural.add();
    return;
  }
  const auto view = queue_.peek_line();
  if (!view.has_value()) {
    stall_cycles_no_request.add();
    return;
  }
  const Addr line = view->line;

  // Overlap discipline (the paper's central cost model): only "streaming"
  // sources — pipelined or one-cycle structures — sustain a new line
  // fetch per cycle. An access to a conventional multi-cycle L1 (or a
  // demand miss) serialises: it may only start once the engine is idle,
  // and nothing overlaps it. This is why a large blocking L1 loses and
  // why fetching from one-cycle pre-buffers wins (paper §1, Figure 1).
  bool pending_all_streaming = true;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pending_all_streaming = pending_all_streaming && pending_.at(i).streaming;
  }

  // All one-cycle-reachable structures are probed in parallel; the demand
  // takes the earliest available source (ties prefer the pre-buffer, then
  // L0 — the paper's fetch priority).
  Pending p;
  p.view = *view;
  p.id = next_id_++;

  const prefetch::PreBufferProbe pb = prefetcher_.probe(line);
  bool issued = false;
  if (pb.present) {
    if (pb.data_ready == kNoCycle) {
      // The line's prefetch is in flight below L1 and its arrival time is
      // not yet known: the fetch waits at the head for the fill — the
      // prefetch still covers the latency accrued so far.
      stall_cycles_structural.add();
      return;
    }
    mem::LatencyPort* port = prefetcher_.pb_port();
    PRESTAGE_ASSERT(port != nullptr, "pre-buffer probe without a port");
    const bool streaming = port->pipelined() || port->latency() == 1;
    if (!pending_all_streaming ||
        (!streaming && (!pending_.empty() || line_buffer_.active))) {
      stall_cycles_structural.add();
      return;  // blocking accesses require an otherwise idle engine
    }
    if (!port->can_accept(now)) {
      stall_cycles_structural.add();
      return;  // retry next cycle
    }
    const Cycle port_done = port->issue(now);
    const Cycle data_done =
        pb.data_ready + static_cast<Cycle>(port->latency());
    p.ready = std::max(port_done, data_done);
    p.source = FetchSource::PreBuffer;
    p.streaming = streaming;
    prefetcher_.on_fetch_from_pb(line, now);
    issued = true;
  } else if (caches_.probe_l0(line)) {
    if (!pending_all_streaming) {
      stall_cycles_structural.add();
      return;  // a blocking access is draining; nothing overlaps it
    }
    (void)caches_.access_l0(line);
    p.ready = now + static_cast<Cycle>(caches_.l0_latency());
    p.source = FetchSource::L0;
    p.streaming = true;
    issued = true;
  } else if (caches_.probe_l1(line)) {
    const bool streaming = caches_.l1_port().pipelined();
    if (!pending_all_streaming ||
        (!streaming && (!pending_.empty() || line_buffer_.active))) {
      stall_cycles_structural.add();
      return;  // serialise around the blocking L1 access
    }
    if (!caches_.l1_port().can_accept(now)) {
      stall_cycles_structural.add();
      return;  // L1 port busy: wait, do not escalate to L2
    }
    (void)caches_.access_l1(line);
    p.ready = caches_.l1_port().issue(now);
    p.source = FetchSource::L1;
    p.streaming = streaming;
    // A filter-cache L0 learns every line the fetch stage touches.
    caches_.fill_l0_only(line);
    issued = true;
  } else {
    if (!pending_all_streaming || !pending_.empty() ||
        line_buffer_.active) {
      stall_cycles_structural.add();
      return;  // a demand miss serialises like any blocking access
    }
    // Demand miss: request from L2/memory. The fill installs into the
    // emergency path (L1 + L0) regardless of later squashes — the SRAM
    // write happens either way — but only wakes this fetch if it is
    // still live (generation check).
    const std::uint64_t id = p.id;
    const std::uint64_t gen = flush_gen_;
    mem_.submit(mem::ReqType::IFetchDemand, line, now,
                [this, id, gen, line](FetchSource src, Cycle ready) {
                  caches_.fill_demand(line);
                  if (gen != flush_gen_) return;
                  for (std::size_t i = 0; i < pending_.size(); ++i) {
                    Pending& q = pending_.at(i);
                    if (q.id == id) {
                      q.ready = ready;
                      q.source = src;
                      return;
                    }
                  }
                });
    p.ready = kNoCycle;  // set by the callback
    issued = true;
  }

  if (issued) {
    queue_.consume_line();
    pending_.push(p);
    prefetcher_.on_line_request(line, now);
  }
}

void FetchEngine::tick(Cycle now, IFetchSink& sink) {
  deliver(now, sink);
  initiate(now);
}

IdlePlan FetchEngine::idle_plan(Cycle now, const IFetchSink& sink) {
  IdlePlan plan;
  const auto consider = [&plan, now](Cycle at) {
    const Cycle c = std::max(now, at);
    if (c < plan.next_event) plan.next_event = c;
  };

  // deliver(): an active line buffer with an accepting sink delivers
  // instructions this cycle; a full sink freezes delivery (the back-end
  // horizon owns the unblock). An inactive buffer promotes the pending
  // head when its data arrives — a self-timed event when the arrival
  // time is known (demand fills ride the MemSystem horizon instead).
  if (line_buffer_.active) {
    if (sink.can_accept()) {
      plan.next_event = now;
      return plan;
    }
  } else if (!pending_.empty()) {
    const Pending& head = pending_.front();
    if (head.ready != kNoCycle) {
      consider(head.ready);
      if (plan.next_event <= now) return plan;
    }
  }

  // initiate(): replays the tick's classification on frozen state. Each
  // early-out below is a state that adds exactly one stall count per
  // cycle; the issuing branches mean work this cycle.
  if (pending_.full()) {
    plan.per_cycle = &stall_cycles_structural;
    return plan;
  }
  const auto view = queue_.peek_line();
  if (!view.has_value()) {
    plan.per_cycle = &stall_cycles_no_request;
    return plan;
  }
  const Addr line = view->line;

  bool pending_all_streaming = true;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pending_all_streaming = pending_all_streaming && pending_.at(i).streaming;
  }

  const prefetch::PreBufferProbe pb = prefetcher_.probe(line);
  if (pb.present) {
    if (pb.data_ready == kNoCycle) {
      plan.per_cycle = &stall_cycles_structural;  // fill callback wakes
      return plan;
    }
    mem::LatencyPort* port = prefetcher_.pb_port();
    PRESTAGE_ASSERT(port != nullptr, "pre-buffer probe without a port");
    const bool streaming = port->pipelined() || port->latency() == 1;
    if (!pending_all_streaming ||
        (!streaming && (!pending_.empty() || line_buffer_.active))) {
      plan.per_cycle = &stall_cycles_structural;  // engine drain unblocks
      return plan;
    }
    if (!port->can_accept(now)) {
      plan.per_cycle = &stall_cycles_structural;
      consider(port->next_free());
      return plan;
    }
    plan.next_event = now;  // would issue from the pre-buffer
    return plan;
  }
  if (caches_.probe_l0(line)) {
    if (!pending_all_streaming) {
      plan.per_cycle = &stall_cycles_structural;
      return plan;
    }
    plan.next_event = now;
    return plan;
  }
  if (caches_.probe_l1(line)) {
    const bool streaming = caches_.l1_port().pipelined();
    if (!pending_all_streaming ||
        (!streaming && (!pending_.empty() || line_buffer_.active))) {
      plan.per_cycle = &stall_cycles_structural;
      return plan;
    }
    if (!caches_.l1_port().can_accept(now)) {
      plan.per_cycle = &stall_cycles_structural;
      consider(caches_.l1_port().next_free());
      return plan;
    }
    plan.next_event = now;
    return plan;
  }
  if (!pending_all_streaming || !pending_.empty() || line_buffer_.active) {
    plan.per_cycle = &stall_cycles_structural;
    return plan;
  }
  plan.next_event = now;  // would submit the demand miss
  return plan;
}

void FetchEngine::flush() {
  line_buffer_.active = false;
  pending_.clear();
  ++flush_gen_;
}

}  // namespace prestage::frontend
