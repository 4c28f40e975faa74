#include "prefetch/fdp.hpp"

#include <algorithm>

#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::prefetch {

namespace {

/// FTQ lines the scan examines per cycle.
constexpr std::uint32_t kScanPerCycle = 2;

}  // namespace

FdpPrefetcher::FdpPrefetcher(const PrefetchBufferConfig& buffer,
                             frontend::FetchTargetQueue& ftq,
                             mem::IFetchCaches& caches, mem::MemSystem& mem)
    : BufferedPrefetcher(buffer, Arrival::Tracked, caches, mem),
      ftq_(ftq),
      caches_(caches) {}

// Inline: tick() calls it per scanned line, idle_plan() per forecast.
inline FdpPrefetcher::Scan FdpPrefetcher::classify(Addr line,
                                                   Cycle now) const {
  // Enqueue Cache Probe Filtering: skip lines already one cycle away.
  const bool one_cycle_resident = caches_.has_l0()
                                      ? caches_.probe_l0(line)
                                      : caches_.probe_l1(line);
  if (one_cycle_resident) return Scan::Filtered;
  if (buffer_.contains(line)) return Scan::Staged;
  // With an L0, prefetches are served by the (multi-cycle) L1 first
  // (§3.1.1); without one, filtering guarantees the line is not in L1.
  // These are PrefetchBuffer::issue()'s two checks, in its order.
  if (!buffer_.can_allocate()) return Scan::Full;
  if (caches_.probe_l1(line) && !caches_.prefetch_port().can_accept(now)) {
    return Scan::PortBusy;
  }
  return Scan::Issue;
}

void FdpPrefetcher::tick(Cycle now) {
  // Make in-flight L1->PB transfers visible once their port time passes.
  buffer_.settle(now);
  std::uint32_t examined = 0;
  bool issued_transfer = false;
  for (std::size_t b = 0; b < ftq_.size(); ++b) {
    auto& entry = ftq_.entry(b);
    for (; entry.prefetch_line < entry.lines; ++entry.prefetch_line) {
      if (examined >= kScanPerCycle) return;
      ++examined;
      const Addr line = frontend::line_addr_of_block(
          entry.block, ftq_.line_bytes(), entry.prefetch_line);
      const Scan step = classify(line, now);
      if (step == Scan::Filtered) {
        requests_filtered.add();
        buffer_.record_source(caches_.has_l0() ? FetchSource::L0
                                               : FetchSource::L1);
        continue;
      }
      if (step == Scan::Staged) {
        buffer_.record_source(FetchSource::PreBuffer);
        continue;
      }
      if (issued_transfer) return;  // one new transfer per cycle
      if (step == Scan::Full) pb_occupancy_stalls.add();
      if (step != Scan::Issue) return;
      // An L1 transfer becomes valid only when tick() settles it.
      const IssueResult started = buffer_.issue(line, now);
      PRESTAGE_ASSERT(started == IssueResult::Started,
                      "classify() and PrefetchBuffer::issue() disagree");
      issued_transfer = true;
    }
  }
}

IdlePlan FdpPrefetcher::idle_plan(Cycle now) {
  // Settle loop: known-time L1->PB transfers become visible at `ready`.
  const Cycle settle = buffer_.next_settle();
  if (settle <= now) return {now, nullptr};
  // The scan is frozen only when its first unscanned line stalls it:
  // with no free entry it counts one stall per cycle until a settle (or
  // a consume / fill) frees one; a busy port drains on its own.
  for (std::size_t b = 0; b < ftq_.size(); ++b) {
    const auto& entry = ftq_.entry(b);
    if (entry.prefetch_line >= entry.lines) continue;  // fully scanned
    const Addr line = frontend::line_addr_of_block(
        entry.block, ftq_.line_bytes(), entry.prefetch_line);
    const Scan step = classify(line, now);
    if (step == Scan::Full) return {settle, &pb_occupancy_stalls};
    if (step != Scan::PortBusy) return {now, nullptr};
    const Cycle drained = std::max(now, caches_.prefetch_port().next_free());
    return {std::min(settle, drained), nullptr};
  }
  return {settle, nullptr};  // nothing to scan; only a settle is due
}

void register_fdp_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "fdp",
         .label = "FDP",
         .description = "fetch-directed prefetching with enqueue cache "
                        "probe filtering (comparison point, §3.1)",
         .build = [](const BuildInputs& in) {
           auto ftq = std::make_unique<frontend::FetchTargetQueue>(
               kQueueBlocks, in.config.line_bytes);
           PrefetcherBuild b;
           b.prefetcher = std::make_unique<FdpPrefetcher>(
               prefetch_buffer_config(in), *ftq, in.caches, in.mem);
           b.queue = std::move(ftq);
           return b;
         }});
}

}  // namespace prestage::prefetch
