#include "core/clgp.hpp"

#include <algorithm>

#include "cacti/storage.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::core {

namespace {

/// CLTQ entries the scan examines per cycle.
constexpr std::uint32_t kScanPerCycle = 2;

}  // namespace

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
  // Ablation: free-on-first-use replacement.
  if (config_.disable_consumers) buffer_.release(line);
}

// Inline: tick() calls it per scanned line, idle_plan() per forecast.
inline ClgpPrestager::Scan ClgpPrestager::classify(Addr line,
                                                   Cycle now) const {
  if (buffer_.find(line) != nullptr) return Scan::Staged;
  if (config_.filter_resident &&
      (caches_.probe_l0(line) ||
       (!caches_.has_l0() && caches_.probe_l1(line)))) {
    // Ablation: FDP-style cache probe filtering (CLGP proper never
    // filters — §3.2.3).
    return Scan::Filtered;
  }
  // CLGP performs no filtering, but the transfer source depends on
  // where the line currently lives: L1-resident lines are read from
  // the L1 (multi-cycle) into the one-cycle buffer; everything else
  // comes from L2/memory through the arbitrated bus.
  const bool from_l1 = caches_.probe_l1(line);
  if (from_l1 && !caches_.prefetch_port().can_accept(now)) {
    return Scan::PortBusy;
  }
  if (!buffer_.can_allocate()) return Scan::Full;
  return from_l1 ? Scan::FromL1 : Scan::FromBelow;
}

void ClgpPrestager::tick(Cycle now) {
  buffer_.settle(now);  // valid bits for transfers that have arrived

  std::uint32_t examined = 0;
  bool issued_transfer = false;
  for (std::size_t i = cltq_.first_unprefetched(); i < cltq_.lines_held();
       ++i) {
    if (examined >= kScanPerCycle) return;
    if (cltq_.is_prefetched(i)) continue;
    const Addr line = cltq_.line_at(i).line;
    ++examined;

    const Scan step = classify(line, now);
    if (step == Scan::Staged) {
      // Extend the entry's lifetime to cover this future fetch (paper
      // §3.2.3). No transfer, no bus traffic.
      if (!config_.disable_consumers) buffer_.add_consumer(line);
      consumer_extensions.add();
      sources_.add(FetchSource::PreBuffer);
      cltq_.mark_prefetched(i);
      continue;
    }
    if (step == Scan::Filtered) {
      sources_.add(caches_.has_l0() ? FetchSource::L0 : FetchSource::L1);
      cltq_.mark_prefetched(i);
      continue;
    }
    if (issued_transfer) return;  // one new transfer per cycle
    // A busy port retries next cycle; pinned entries wait for fetch to
    // consume one.
    if (step == Scan::Full) pb_occupancy_stalls.add();
    if (step == Scan::PortBusy || step == Scan::Full) return;

    const PrestageBuffer::Entry* e = buffer_.allocate(line);
    PRESTAGE_ASSERT(e != nullptr, "classify() found a free entry");
    if (step == Scan::FromL1) {
      buffer_.set_ready(*e, caches_.prefetch_port().issue(now));
      sources_.add(FetchSource::L1);
    } else {
      const std::uint64_t gen = e->gen;
      mem_.submit(mem::ReqType::IPrefetch, line, now,
                  [this, e, gen](FetchSource src, Cycle ready) {
                    // A reallocated entry drops the stale fill.
                    if (buffer_.fill(*e, gen, ready)) sources_.add(src);
                  });
    }
    prefetches_issued.add();
    issued_transfer = true;
    cltq_.mark_prefetched(i);
  }
}

IdlePlan ClgpPrestager::idle_plan(Cycle now) {
  // Settle: known-time L1->PB transfers become visible at `ready`.
  const Cycle settle = buffer_.next_settle_cycle();
  if (settle <= now) return {now, nullptr};
  // The scan is frozen only when its first unprefetched line stalls it:
  // a busy port drains on its own; with every entry pinned it counts
  // one stall per cycle until a fetch consume or a recovery unpins one.
  const std::size_t i = cltq_.first_unprefetched();
  if (i >= cltq_.lines_held()) return {settle, nullptr};
  const Scan step = classify(cltq_.line_at(i).line, now);
  if (step == Scan::Full) return {settle, &pb_occupancy_stalls};
  if (step != Scan::PortBusy) return {now, nullptr};
  const Cycle drained = std::max(now, caches_.prefetch_port().next_free());
  return {std::min(settle, drained), nullptr};
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

prefetch::PrefetcherBuild build_clgp(const prefetch::BuildInputs& in,
                                     ClgpConfig cfg) {
  auto cltq = std::make_unique<frontend::CacheLineTargetQueue>(
      prefetch::kQueueBlocks, in.config.line_bytes);
  cfg.entries = in.config.prebuffer_entries;
  cfg.pb_latency = in.timings.prebuffer_latency;
  cfg.pb_pipelined = in.timings.prebuffer_pipelined;
  cfg.line_bytes = in.config.line_bytes;
  prefetch::PrefetcherBuild b;
  b.prefetcher =
      std::make_unique<ClgpPrestager>(cfg, *cltq, in.caches, in.mem);
  b.queue = std::move(cltq);
  return b;
}

void register_clgp_prestager(prefetch::PrefetcherRegistry& r) {
  r.add({.name = "clgp",
         .label = "CLGP",
         .description = "cache-line guided prestaging over a CLTQ (the "
                        "paper's contribution, §3.2)",
         .build = [](const prefetch::BuildInputs& in) {
           return build_clgp(in, {});
         }});
}

}  // namespace prestage::core
