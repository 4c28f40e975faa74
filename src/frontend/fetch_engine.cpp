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

template <class On>
auto FetchEngine::next_step(Cycle now, On&& on) {
  Counter& structural = stall_cycles_structural;
  if (pending_.full()) return on.stall(structural, kNoCycle);
  const auto view = queue_.peek_line();
  if (!view.has_value()) return on.stall(stall_cycles_no_request, kNoCycle);
  const Addr line = view->line;

  // Overlap discipline (the paper's central cost model): only "streaming"
  // sources — pipelined or one-cycle structures — sustain a new line
  // fetch per cycle. An access to a conventional multi-cycle L1 (or a
  // demand miss) serialises: it may only start once the engine is idle,
  // and nothing overlaps it. This is why a large blocking L1 loses and
  // why fetching from one-cycle pre-buffers wins (paper §1, Figure 1).
  bool pending_all_streaming = true;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_.at(i).streaming) {
      pending_all_streaming = false;
      break;
    }
  }
  const bool engine_idle = pending_.empty() && !line_buffer_.active;
  const auto can_start = [&](bool streaming) {
    return pending_all_streaming && (streaming || engine_idle);
  };

  // All one-cycle-reachable structures are probed in parallel; the demand
  // takes the earliest available source (ties prefer the pre-buffer, then
  // L0 — the paper's fetch priority). A busy port stalls the fetch rather
  // than escalating it to the next level.
  const prefetch::PreBufferProbe pb = prefetcher_.probe(line);
  if (pb.present) {
    // A prefetch in flight below L1 with no known arrival: the fetch
    // waits at the head for the fill, which still covers the latency
    // accrued so far.
    if (pb.data_ready == kNoCycle) return on.stall(structural, kNoCycle);
    const mem::LatencyPort* port = prefetcher_.pb_port();
    PRESTAGE_ASSERT(port != nullptr, "pre-buffer probe without a port");
    const bool streaming = port->pipelined() || port->latency() == 1;
    if (!can_start(streaming)) return on.stall(structural, kNoCycle);
    if (!port->can_accept(now)) {
      return on.stall(structural, port->next_free());
    }
    return on.issue(*view, FetchSource::PreBuffer, streaming, pb.data_ready);
  }
  if (caches_.probe_l0(line)) {
    if (!can_start(true)) return on.stall(structural, kNoCycle);
    return on.issue(*view, FetchSource::L0, true, 0);
  }
  if (caches_.probe_l1(line)) {
    const mem::LatencyPort& port = caches_.l1_port();
    if (!can_start(port.pipelined())) return on.stall(structural, kNoCycle);
    if (!port.can_accept(now)) return on.stall(structural, port.next_free());
    return on.issue(*view, FetchSource::L1, port.pipelined(), 0);
  }
  if (!can_start(false)) return on.stall(structural, kNoCycle);
  return on.issue(*view, FetchSource::L2, false, 0);
}

void FetchEngine::start_fetch(Cycle now, const LineView& view,
                              FetchSource source, bool streaming,
                              Cycle data_ready) {
  Pending p;
  p.view = view;
  p.id = next_id_++;
  p.source = source;
  p.streaming = streaming;
  const Addr line = view.line;
  if (source == FetchSource::PreBuffer) {
    mem::LatencyPort& port = *prefetcher_.pb_port();
    p.ready = std::max(port.issue(now),
                       data_ready + static_cast<Cycle>(port.latency()));
    prefetcher_.on_fetch_from_pb(line, now);
  } else if (source == FetchSource::L0) {
    (void)caches_.access_l0(line);
    p.ready = now + static_cast<Cycle>(caches_.l0_latency());
  } else if (source == FetchSource::L1) {
    (void)caches_.access_l1(line);
    p.ready = caches_.l1_port().issue(now);
    // A filter-cache L0 learns every line the fetch stage touches.
    caches_.fill_l0_only(line);
  } else {
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
  }
  queue_.consume_line();
  pending_.push(p);
  prefetcher_.on_line_request(line, now);
}

void FetchEngine::tick(Cycle now, IFetchSink& sink) {
  deliver(now, sink);
  struct Act {
    FetchEngine& engine;
    Cycle now;
    void stall(Counter& counter, Cycle /*wake*/) { counter.add(); }
    void issue(const LineView& view, FetchSource source, bool streaming,
               Cycle data_ready) {
      engine.start_fetch(now, view, source, streaming, data_ready);
    }
  };
  next_step(now, Act{*this, now});
}

IdlePlan FetchEngine::idle_plan(Cycle now, const IFetchSink& sink) {
  // deliver(): an active line buffer with an accepting sink delivers
  // instructions this cycle; a full sink freezes delivery (the back-end
  // horizon owns the unblock). An inactive buffer promotes the pending
  // head when its data arrives — a self-timed event when the arrival
  // time is known (demand fills ride the MemSystem horizon instead).
  Cycle arrival = kNoCycle;
  if (line_buffer_.active) {
    if (sink.can_accept()) return {now, nullptr};
  } else if (!pending_.empty()) {
    arrival = pending_.front().ready;
    if (arrival <= now) return {now, nullptr};
  }
  // The next step: an issue is work this cycle; a stall adds one count
  // per cycle until its wakeup (or another unit's event).
  struct Report {
    Cycle now;
    Cycle arrival;
    IdlePlan stall(Counter& counter, Cycle wake) const {
      return {std::min(arrival, std::max(now, wake)), &counter};
    }
    IdlePlan issue(const LineView&, FetchSource, bool, Cycle) const {
      return {now, nullptr};
    }
  };
  return next_step(now, Report{now, arrival});
}

void FetchEngine::flush() {
  line_buffer_.active = false;
  pending_.clear();
  ++flush_gen_;
}

}  // namespace prestage::frontend
