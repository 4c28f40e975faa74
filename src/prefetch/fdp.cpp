#include "prefetch/fdp.hpp"

#include "prefetch/registry.hpp"

namespace prestage::prefetch {

FdpPrefetcher::FdpPrefetcher(const FdpConfig& config,
                             const PrefetchBufferConfig& buffer,
                             frontend::FetchTargetQueue& ftq,
                             mem::IFetchCaches& caches, mem::MemSystem& mem)
    : BufferedPrefetcher(buffer, Arrival::Tracked, caches, mem),
      config_(config),
      ftq_(ftq),
      caches_(caches) {}

bool FdpPrefetcher::process_line(Addr line, Cycle now,
                                 bool& issued_transfer) {
  // Enqueue Cache Probe Filtering: skip lines already one cycle away.
  const bool one_cycle_resident = caches_.has_l0()
                                      ? caches_.probe_l0(line)
                                      : caches_.probe_l1(line);
  if (one_cycle_resident) {
    requests_filtered.add();
    buffer_.record_source(caches_.has_l0() ? FetchSource::L0
                                           : FetchSource::L1);
    return true;
  }
  if (buffer_.contains(line)) {
    buffer_.record_source(FetchSource::PreBuffer);  // staged or in flight
    return true;
  }
  if (issued_transfer) return false;  // one new transfer per cycle

  // With an L0, prefetches are served by the (multi-cycle) L1 first
  // (§3.1.1); without one, filtering guarantees the line is not in L1.
  // An L1 transfer becomes valid only when tick() settles it.
  const IssueResult r = buffer_.issue(line, now);
  if (r == IssueResult::Full) pb_occupancy_stalls.add();
  issued_transfer = r == IssueResult::Started;
  return issued_transfer;
}

void FdpPrefetcher::tick(Cycle now) {
  // Make in-flight L1->PB transfers visible once their port time passes.
  buffer_.settle(now);
  std::uint32_t examined = 0;
  bool issued_transfer = false;
  for (std::size_t b = 0; b < ftq_.size(); ++b) {
    auto& entry = ftq_.entry(b);
    for (; entry.prefetch_line < entry.lines; ++entry.prefetch_line) {
      if (examined >= config_.scan_per_cycle) return;
      ++examined;
      const Addr line = frontend::line_addr_of_block(
          entry.block, ftq_.line_bytes(), entry.prefetch_line);
      if (!process_line(line, now, issued_transfer)) return;
    }
  }
}

IdlePlan FdpPrefetcher::idle_plan(Cycle now) {
  IdlePlan plan;
  const auto consider = [&plan, now](Cycle at) {
    const Cycle c = now > at ? now : at;
    if (c < plan.next_event) plan.next_event = c;
  };
  // Settle loop: known-time L1->PB transfers become visible at `ready`.
  consider(buffer_.next_settle());
  if (plan.next_event <= now) return plan;  // a settle fires this cycle

  // The scan's frozen state is classified by its first unscanned line:
  // a filtered / already-staged line advances the cursor (work), a
  // missing buffer entry freezes the scan with one stall count per
  // cycle, a feasible allocation issues a transfer (work).
  for (std::size_t b = 0; b < ftq_.size(); ++b) {
    const auto& entry = ftq_.entry(b);
    if (entry.prefetch_line >= entry.lines) continue;  // fully scanned
    const Addr line = frontend::line_addr_of_block(
        entry.block, ftq_.line_bytes(), entry.prefetch_line);
    const bool one_cycle_resident = caches_.has_l0()
                                        ? caches_.probe_l0(line)
                                        : caches_.probe_l1(line);
    if (one_cycle_resident || buffer_.contains(line)) {
      plan.next_event = now;
      return plan;
    }
    if (!buffer_.can_allocate()) {
      plan.per_cycle = &pb_occupancy_stalls;
      return plan;  // a settle (above) or a consume/fill unblocks
    }
    if (caches_.probe_l1(line) && !caches_.prefetch_port().can_accept(now)) {
      consider(caches_.prefetch_port().next_free());
      return plan;  // port drains on its own; no counter in this state
    }
    plan.next_event = now;  // would issue a transfer
    return plan;
  }
  return plan;  // nothing to scan; only a settle (if any) is due
}

void register_fdp_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "fdp",
         .label = "FDP",
         .description = "fetch-directed prefetching with enqueue cache "
                        "probe filtering (comparison point, §3.1)",
         .build = [](const BuildInputs& in) {
           auto ftq = std::make_unique<frontend::FetchTargetQueue>(
               in.config.queue_blocks, in.config.line_bytes);
           PrefetcherBuild b;
           b.prefetcher = std::make_unique<FdpPrefetcher>(
               FdpConfig{}, prefetch_buffer_config(in), *ftq, in.caches,
               in.mem);
           b.queue = std::move(ftq);
           return b;
         }});
}

}  // namespace prestage::prefetch
