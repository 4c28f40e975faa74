// Cache Line Guided Prestaging (paper §3.2.3) — the primary contribution.
//
// CLGP traverses the CLTQ looking for new requests to prefetch, with NO
// filtering against the cache hierarchy: the goal is to bring every
// useful line into the one-cycle prestage buffer and fetch from there,
// avoiding even the *hit* penalty of a multi-cycle L1.
//
// Per scanned CLTQ entry:
//  * line already staged (or in flight)  -> consumers counter ++ — the
//    entry's lifetime extends to cover this future fetch;
//  * line absent and a free entry exists -> allocate the LRU free entry
//    (consumers = 1, valid unset) and start a prefetch: from the L1 if
//    the line is resident there (at L1 latency), else from L2/memory;
//  * no free entry -> the scan stalls until a fetch releases one.
//
// On a branch misprediction the CPU flushes the CLTQ and CLGP resets all
// consumers counters; valid lines remain fetchable until reallocated.
// Consumed lines are NEVER moved to L0/L1 — the L1 (or L0, §3.2.4) serves
// as an emergency cache holding demand-missed lines from mispredicted
// paths, disjoint from the prestage buffer's contents.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/prestage_buffer.hpp"
#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/registry.hpp"

namespace prestage::core {

struct ClgpConfig {
  std::uint32_t entries = 8;      ///< prestage buffer entries (lines)
  int pb_latency = 1;             ///< buffer access latency
  bool pb_pipelined = false;      ///< 16-entry buffers are pipelined (§5)
  std::uint32_t line_bytes = 64;  ///< for storage accounting

  // --- ablation knobs (paper behaviour when all false; the CLGP ablation
  // bench registers a scheme per variant through build_clgp) -----------
  bool disable_consumers = false;  ///< free entries on first use (FDP-style)
  bool filter_resident = false;    ///< skip lines already in L0/L1
  bool transfer_on_use = false;    ///< promote used lines to L0/L1
};

class ClgpPrestager final : public prefetch::IPrefetcher {
 public:
  ClgpPrestager(const ClgpConfig& config,
                frontend::CacheLineTargetQueue& cltq,
                mem::IFetchCaches& caches, mem::MemSystem& mem);

  [[nodiscard]] prefetch::PreBufferProbe probe(Addr line) const override;
  [[nodiscard]] mem::LatencyPort* pb_port() override { return &port_; }
  void on_fetch_from_pb(Addr line, Cycle now) override;
  void tick(Cycle now) override;
  [[nodiscard]] IdlePlan idle_plan(Cycle now) override;
  void on_recovery(Cycle now) override;
  [[nodiscard]] const SourceBreakdown& prefetch_sources() const override {
    return sources_;
  }
  [[nodiscard]] std::uint64_t prefetches() const override {
    return prefetches_issued.value();
  }
  [[nodiscard]] std::uint64_t storage_bits() const override;

  [[nodiscard]] PrestageBuffer& buffer() { return buffer_; }
  [[nodiscard]] const PrestageBuffer& buffer() const { return buffer_; }

  // --- statistics -------------------------------------------------------
  Counter prefetches_issued;       ///< transfers started (L1/L2/mem)
  Counter consumer_extensions;     ///< CLTQ hits on staged lines
  Counter pb_occupancy_stalls;     ///< scan stalled: all entries pinned
  Counter consumers_resets;        ///< recoveries processed

 private:
  /// What the scan does with a not-yet-prefetched CLTQ line at `now`.
  enum class Scan : std::uint8_t {
    Staged,     ///< staged or in flight: one more consumer, pass on
    Filtered,   ///< resident in L0/L1 under filter_resident: pass on
    PortBusy,   ///< L1-resident, the L1 prefetch port is taken: stalls
    Full,       ///< every entry pinned: the scan stalls (counted)
    FromL1,     ///< allocate and copy from the L1
    FromBelow,  ///< allocate and fetch from L2/memory
  };
  [[nodiscard]] Scan classify(Addr line, Cycle now) const;

  ClgpConfig config_;
  frontend::CacheLineTargetQueue& cltq_;
  mem::IFetchCaches& caches_;
  mem::MemSystem& mem_;
  mem::LatencyPort port_;
  PrestageBuffer buffer_;
  SourceBreakdown sources_;
};

/// CLGP's CLTQ + prestager pair for the machine @p in describes. The
/// buffer geometry comes from @p in, the ablation knobs from @p cfg; the
/// registered `clgp` scheme is build_clgp(in, {}).
[[nodiscard]] prefetch::PrefetcherBuild build_clgp(
    const prefetch::BuildInputs& in, ClgpConfig cfg);

}  // namespace prestage::core
