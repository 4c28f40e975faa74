#include "core/clgp.hpp"

#include "cacti/storage.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::core {

ClgpPrestager::ClgpPrestager(const ClgpConfig& config,
                             frontend::CacheLineTargetQueue& cltq,
                             mem::IFetchCaches& caches, mem::MemSystem& mem)
    : config_(config),
      cltq_(cltq),
      caches_(caches),
      mem_(mem),
      port_(config.pb_latency, config.pb_pipelined),
      buffer_(config.entries) {}

prefetch::PreBufferProbe ClgpPrestager::probe(Addr line) const {
  const PrestageBuffer::Entry* e = buffer_.find(line);
  if (e == nullptr) return {};
  return prefetch::PreBufferProbe{true, e->valid ? 0 : e->ready};
}

void ClgpPrestager::on_fetch_from_pb(Addr line, Cycle now) {
  (void)now;
  buffer_.on_fetch(line);
  if (config_.transfer_on_use) {
    // Ablation: behave like a classic prefetch buffer that replicates
    // used lines into the cache (the paper's CLGP never does).
    caches_.fill_promoted(line);
  }
  if (config_.disable_consumers) {
    // Ablation: free-on-first-use replacement.
    PrestageBuffer::Entry* e = buffer_.find(line);
    if (e != nullptr) e->consumers = 0;
  }
}

void ClgpPrestager::tick(Cycle now) {
  buffer_.settle(now);  // valid bits for transfers that have arrived

  std::uint32_t examined = 0;
  bool issued_transfer = false;
  for (std::size_t i = cltq_.first_unprefetched(); i < cltq_.lines_held();
       ++i) {
    if (examined >= config_.scan_per_cycle) return;
    if (cltq_.is_prefetched(i)) continue;
    const frontend::LineView& v = cltq_.line_at(i);
    ++examined;

    if (buffer_.find(v.line) != nullptr) {
      // Already staged or in flight: extend the entry's lifetime to cover
      // this future fetch (paper §3.2.3). No transfer, no bus traffic.
      if (!config_.disable_consumers) buffer_.add_consumer(v.line);
      consumer_extensions.add();
      sources_.add(FetchSource::PreBuffer);
      cltq_.mark_prefetched(i);
      continue;
    }
    if (config_.filter_resident &&
        (caches_.probe_l0(v.line) ||
         (!caches_.has_l0() && caches_.probe_l1(v.line)))) {
      // Ablation: FDP-style cache probe filtering (CLGP proper never
      // filters — §3.2.3).
      sources_.add(caches_.has_l0() ? FetchSource::L0 : FetchSource::L1);
      cltq_.mark_prefetched(i);
      continue;
    }
    if (issued_transfer) return;  // one new transfer per cycle

    // CLGP performs no filtering, but the transfer source depends on
    // where the line currently lives: L1-resident lines are read from
    // the L1 (multi-cycle) into the one-cycle buffer; everything else
    // comes from L2/memory through the arbitrated bus.
    const bool from_l1 = caches_.probe_l1(v.line);
    if (from_l1 && !caches_.prefetch_port().can_accept(now)) {
      return;  // transfer engine busy this cycle; retry
    }
    PrestageBuffer::Entry* e = buffer_.allocate(v.line);
    if (e == nullptr) {
      pb_occupancy_stalls.add();
      return;  // every entry pinned: wait for fetch to consume
    }
    if (from_l1) {
      buffer_.set_ready(*e, caches_.prefetch_port().issue(now));
      sources_.add(FetchSource::L1);
    } else {
      const std::uint64_t gen = e->gen;
      const Addr line = v.line;
      PrestageBuffer::Entry* slot = e;
      mem_.submit(mem::ReqType::IPrefetch, line, now,
                  [this, slot, line, gen](FetchSource src, Cycle ready) {
                    if (!slot->allocated || slot->gen != gen ||
                        slot->line != line) {
                      return;  // entry reallocated meanwhile
                    }
                    slot->ready = ready;
                    slot->valid = true;
                    sources_.add(src);
                  });
    }
    prefetches_issued.add();
    issued_transfer = true;
    cltq_.mark_prefetched(i);
  }
}

IdlePlan ClgpPrestager::idle_plan(Cycle now) {
  IdlePlan plan;
  const auto consider = [&plan, now](Cycle at) {
    const Cycle c = now > at ? now : at;
    if (c < plan.next_event) plan.next_event = c;
  };
  // Settle: known-time L1->PB transfers become visible at `ready`.
  consider(buffer_.next_settle_cycle());
  if (plan.next_event <= now) return plan;  // a settle fires this cycle

  // Classify the scan by its first unprefetched CLTQ line, mirroring
  // tick(): staged / filtered lines mark the entry (work), a busy L1
  // port or a fully pinned buffer freezes the scan, a feasible
  // allocation issues a transfer (work).
  for (std::size_t i = cltq_.first_unprefetched(); i < cltq_.lines_held();
       ++i) {
    if (cltq_.is_prefetched(i)) continue;
    const frontend::LineView& v = cltq_.line_at(i);
    if (buffer_.find(v.line) != nullptr) {
      plan.next_event = now;
      return plan;
    }
    if (config_.filter_resident &&
        (caches_.probe_l0(v.line) ||
         (!caches_.has_l0() && caches_.probe_l1(v.line)))) {
      plan.next_event = now;
      return plan;
    }
    if (caches_.probe_l1(v.line) &&
        !caches_.prefetch_port().can_accept(now)) {
      consider(caches_.prefetch_port().next_free());
      return plan;  // port drains on its own; tick counts nothing here
    }
    if (!buffer_.can_allocate()) {
      plan.per_cycle = &pb_occupancy_stalls;
      return plan;  // a fetch consume or recovery unpins an entry
    }
    plan.next_event = now;  // would issue a transfer
    return plan;
  }
  return plan;  // nothing to scan; only a settle (if any) is due
}

void ClgpPrestager::on_recovery(Cycle now) {
  (void)now;
  buffer_.reset_consumers();
  consumers_resets.add();
}

std::uint64_t ClgpPrestager::storage_bits() const {
  // Prestage buffer with the consumers counter (paper §3.2.3: a small
  // saturating count per entry) on top of the valid/in-flight state.
  return cacti::line_buffer_bits(config_.entries, config_.line_bytes,
                                 2 + 4);
}

void register_clgp_prestager(prefetch::PrefetcherRegistry& r) {
  r.add({.name = "clgp",
         .label = "CLGP",
         .description = "cache-line guided prestaging over a CLTQ (the "
                        "paper's contribution, §3.2)",
         .build = [](const prefetch::BuildInputs& in) {
           auto cltq = std::make_unique<frontend::CacheLineTargetQueue>(
               in.config.queue_blocks, in.config.line_bytes);
           ClgpConfig cfg;
           cfg.entries = in.config.prebuffer_entries;
           cfg.pb_latency = in.timings.prebuffer_latency;
           cfg.pb_pipelined = in.config.prebuffer_pipelined;
           cfg.disable_consumers = in.config.clgp_disable_consumers;
           cfg.filter_resident = in.config.clgp_filter_resident;
           cfg.transfer_on_use = in.config.clgp_transfer_on_use;
           cfg.line_bytes = in.config.line_bytes;
           prefetch::PrefetcherBuild b;
           b.prefetcher = std::make_unique<ClgpPrestager>(
               cfg, *cltq, in.caches, in.mem);
           b.queue = std::move(cltq);
           return b;
         }});
}

}  // namespace prestage::core
