// Stream/discontinuity prefetching (MANA-flavored; Ansari et al.,
// "MANA: Microarchitecting an instruction prefetcher"): the demand line
// stream is recorded as *regions* of consecutive cache lines keyed by
// the line that triggered them, and a re-encounter of a trigger
// prestages the whole recorded region into a small prefetch buffer.
//
//  * Recording: the fetch stage's line requests feed a region recorder.
//    While requests stay sequential (same line, or the next line), the
//    current region grows (up to a cap); any discontinuity — a taken
//    branch, a wrap, a miss to a new area — finalizes the region into a
//    direct-mapped region table keyed by its trigger line.
//  * Replay: when a demand request hits a recorded trigger, the region's
//    remaining lines are prestaged ahead of the fetch stream.
//  * Recovery: a branch misprediction abandons the in-flight region
//    (wrong-path lines must not be recorded as a stream) but keeps the
//    table — recorded regions describe committed control flow.
//
// Replayed lines go through PrefetchBuffer::prestage(): only one-cycle
// structures (the buffer itself and the L0) filter them, and
// L1-resident lines are staged *from* the L1 into one-cycle reach — the
// paper's §3.1.1/§3.2.3 insight that filtering against a multi-cycle L1
// defeats an instruction prefetcher when hits are the common case.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "prefetch/prefetch_buffer.hpp"

namespace prestage::prefetch {

struct StreamConfig {
  std::uint32_t table_entries = 128;   ///< region table size (direct-mapped)
  std::uint32_t max_region_lines = 8;  ///< cap on a recorded region
};

class StreamPrefetcher final : public BufferedPrefetcher {
 public:
  StreamPrefetcher(const StreamConfig& config,
                   const PrefetchBufferConfig& buffer,
                   mem::IFetchCaches& caches, mem::MemSystem& mem);

  void on_line_request(Addr line, Cycle now) override;
  void tick(Cycle /*now*/) override {}
  [[nodiscard]] IdlePlan idle_plan(Cycle) override {
    // All work happens in on_line_request (fetch is busy then); L1-path
    // entries are valid with a future ready the fetch engine handles.
    return {kNoCycle, nullptr};
  }
  void on_recovery(Cycle now) override;
  [[nodiscard]] std::uint64_t storage_bits() const override;

  // Checkpointing (sampling): the region table is learned from committed
  // control flow only (recovery keeps it), so it is exactly the state a
  // sampled run may legally carry across slices. In-flight pre-buffer
  // entries are transient timing state and are not saved.
  [[nodiscard]] bool save_state(std::vector<std::uint8_t>& out) const override;
  [[nodiscard]] bool restore_state(const std::uint8_t* data,
                                   std::size_t size) override;

  // --- statistics -------------------------------------------------------
  Counter regions_recorded;   ///< regions finalized into the table
  Counter region_replays;     ///< trigger re-encounters that prestaged

  /// Recorded length (in lines) of the region keyed by @p trigger, or 0
  /// when none is recorded (tests).
  [[nodiscard]] std::uint32_t recorded_region_lines(Addr trigger) const;

 private:
  struct Region {
    Addr trigger = kNoAddr;
    std::uint32_t lines = 0;
  };

  [[nodiscard]] std::size_t table_index(Addr trigger) const;

  /// Stores the in-flight region (if it spans 2+ lines) and resets the
  /// recorder.
  void finalize_region();

  StreamConfig config_;
  std::vector<Region> table_;

  // Region recorder state.
  Addr region_trigger_ = kNoAddr;
  Addr region_last_ = kNoAddr;
  std::uint32_t region_lines_ = 0;
};

}  // namespace prestage::prefetch
