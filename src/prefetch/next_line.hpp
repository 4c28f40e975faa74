// Next-N-line prefetching (Smith, 1982; paper §2.1): the classic
// sequential scheme included as a related-work baseline for ablations.
//
// Every demand line request triggers prefetches of the next N sequential
// lines into the shared prefetch buffer (prefetch_buffer.hpp: freed on
// use, promoted to L0/L1). Lines already in the L1, the L0 or the buffer
// are skipped.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "prefetch/prefetch_buffer.hpp"

namespace prestage::prefetch {

struct NextLineConfig {
  std::uint32_t degree = 2;  ///< lines prefetched ahead
};

class NextLinePrefetcher final : public BufferedPrefetcher {
 public:
  NextLinePrefetcher(const NextLineConfig& config,
                     const PrefetchBufferConfig& buffer,
                     mem::IFetchCaches& caches, mem::MemSystem& mem);

  void on_line_request(Addr line, Cycle now) override;
  void tick(Cycle /*now*/) override {}
  [[nodiscard]] IdlePlan idle_plan(Cycle) override {
    // All work happens in on_line_request (fetch is busy then); entry
    // arrivals come through MemSystem callbacks or fetch-side probes.
    return {kNoCycle, nullptr};
  }

 private:
  NextLineConfig config_;
  mem::IFetchCaches& caches_;
};

}  // namespace prestage::prefetch
