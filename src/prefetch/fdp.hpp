// Fetch Directed Prefetching (Reinman, Calder, Austin — MICRO-32), as the
// paper configures it for comparison (§3.1):
//
//  * scans FTQ fetch blocks past the fetch point and prefetches their
//    cache lines into a fully-associative prefetch buffer;
//  * Enqueue Cache Probe Filtering: a tag probe drops requests for lines
//    already one cycle away (in L1 without an L0; in the L0 when one is
//    configured — with an L0 the L1 is multi-cycle, and §3.1.1 redirects
//    prefetches to be served *by* the L1 precisely so L1-resident lines
//    get staged into one-cycle reach);
//  * on a fetch hit, the line is promoted out of the buffer (to the L0
//    when present, else the L1) and the entry is freed — the simple
//    replacement policy whose cost CLGP's consumers counter removes.
//
// The buffer itself, and its LRU-reclaim deviation from the paper, live
// in prefetch_buffer.hpp.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "frontend/fetch_queue.hpp"
#include "prefetch/prefetch_buffer.hpp"

namespace prestage::prefetch {

class FdpPrefetcher final : public BufferedPrefetcher {
 public:
  FdpPrefetcher(const PrefetchBufferConfig& buffer,
                frontend::FetchTargetQueue& ftq, mem::IFetchCaches& caches,
                mem::MemSystem& mem);

  void tick(Cycle now) override;
  [[nodiscard]] IdlePlan idle_plan(Cycle now) override;

  // --- statistics -------------------------------------------------------
  Counter requests_filtered;   ///< dropped by the cache probe filter
  Counter pb_occupancy_stalls;  ///< scan stalled: no free entry

 private:
  /// What the scan does with a candidate line at `now`.
  enum class Scan : std::uint8_t {
    Filtered,  ///< one cycle away already: dropped (counted), pass on
    Staged,    ///< in the buffer, arrived or in flight: pass on
    Issue,     ///< start a transfer
    Full,      ///< no entry to start it in: the scan stalls (counted)
    PortBusy,  ///< L1-resident, the L1 prefetch port is taken: stalls
  };
  [[nodiscard]] Scan classify(Addr line, Cycle now) const;

  frontend::FetchTargetQueue& ftq_;
  mem::IFetchCaches& caches_;
};

}  // namespace prestage::prefetch
