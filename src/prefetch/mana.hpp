// MANA instruction prefetching (Ansari et al., "MANA: Microarchitecting
// an Instruction Prefetcher", arXiv 2102.01764), adapted to this
// simulator's fetch-prestaging cost model.
//
// MANA records the demand line stream as *spatial regions*: a trigger
// line plus a footprint bitmap over the next few lines, stored in a
// MANA table whose records are chained by successor pointers (record N
// points at the record created right after it — the region the program
// entered next). Trigger addresses are compressed with High-Order-Bit
// Patterns (HOBP): the high-order bits of a trigger are stored once in
// a small FIFO pattern table and records keep only an index plus the
// low-order bits, which is where MANA's storage advantage comes from.
//
//  * Recording: every demand line request lands in the open region when
//    it falls within `region_span` lines above the trigger; anything
//    else (a discontinuity, a backward jump, leaving the span)
//    finalizes the region into the MANA table and opens a new one. A
//    finalized record is chained to its predecessor's successor
//    pointer. Records whose HOBP is evicted from the FIFO pattern table
//    are invalidated — exactly the compression/coverage trade the HOBP
//    design makes.
//  * Replay: a demand request that hits a recorded trigger prestages
//    that record's footprint and then walks the successor chain up to
//    `lookahead` records, prestaging each chained trigger + footprint —
//    running ahead of fetch across discontinuities.
//  * Recovery: a branch misprediction abandons the open (unfinalized)
//    region so wrong-path requests never become a record; the table
//    itself describes previously observed control flow and is kept.
//
// Replayed lines go through PrefetchBuffer::prestage(), as in the stream
// scheme: entries freed + promoted on use, replays filtered only against
// one-cycle structures (the buffer and the L0), L1-resident lines
// staged *from* the L1 through its prefetch port (paper §3.1.1/§3.2.3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "prefetch/prefetch_buffer.hpp"

namespace prestage::prefetch {

struct ManaConfig {
  std::uint32_t table_entries = 128;  ///< MANA table (direct-mapped)
  std::uint32_t hobpt_entries = 8;    ///< HOBP FIFO pattern table
  std::uint32_t region_span = 8;      ///< footprint lines above the trigger
  std::uint32_t lookahead = 3;        ///< chained records replayed ahead
  std::uint32_t hobp_low_bits = 10;   ///< low line-number bits kept per record
};

class ManaPrefetcher final : public BufferedPrefetcher {
 public:
  ManaPrefetcher(const ManaConfig& config, const PrefetchBufferConfig& buffer,
                 mem::IFetchCaches& caches, mem::MemSystem& mem);

  void on_line_request(Addr line, Cycle now) override;
  void tick(Cycle /*now*/) override {}
  [[nodiscard]] IdlePlan idle_plan(Cycle) override {
    // All work happens in on_line_request (fetch is busy then); fills
    // arrive through MemSystem callbacks or fetch-side probes.
    return {kNoCycle, nullptr};
  }
  void on_recovery(Cycle now) override;
  [[nodiscard]] std::uint64_t storage_bits() const override;

  // --- statistics -------------------------------------------------------
  Counter records_created;     ///< regions finalized into the MANA table
  Counter record_replays;      ///< trigger re-encounters that prestaged
  Counter chain_replays;       ///< successor records replayed ahead
  Counter hobp_invalidations;  ///< records dropped by HOBP FIFO eviction

  /// Footprint bitmap of the record keyed by @p trigger, or 0 when no
  /// valid record reconstructs to that trigger (tests).
  [[nodiscard]] std::uint32_t recorded_footprint(Addr trigger) const;

 private:
  /// One MANA-table record: HOBP-compressed trigger, footprint bitmap
  /// over the `region_span` lines above it, successor record index.
  struct Record {
    std::uint32_t hobp_index = 0;  ///< into hobpt_
    std::uint64_t low = 0;         ///< low `hobp_low_bits` of the line number
    std::uint32_t footprint = 0;
    std::uint32_t successor = kNoSuccessor;
    bool valid = false;
  };

  static constexpr std::uint32_t kNoSuccessor =
      static_cast<std::uint32_t>(-1);

  [[nodiscard]] std::uint64_t line_number(Addr line) const;
  [[nodiscard]] std::size_t table_index(Addr trigger) const;
  /// The full trigger line address @p r encodes, via the HOBP table.
  [[nodiscard]] Addr record_trigger(const Record& r) const;
  /// HOBP FIFO lookup-or-insert; eviction invalidates dependent records.
  [[nodiscard]] std::uint32_t hobp_index_of(Addr trigger);

  /// Stores the open region (if it recorded any footprint line) into the
  /// table, chains it to the previous record, and resets the recorder.
  void finalize_region();
  /// Prestages a record's trigger footprint (not the trigger itself).
  void replay_record(const Record& r, Cycle now);

  ManaConfig config_;
  std::vector<Record> table_;
  std::vector<Addr> hobpt_;       ///< FIFO of high-order bit patterns
  std::uint32_t hobpt_next_ = 0;  ///< FIFO replacement cursor
  std::uint32_t hobpt_used_ = 0;

  // Region recorder state.
  Addr region_trigger_ = kNoAddr;
  std::uint32_t region_footprint_ = 0;
  std::uint32_t last_record_ = kNoSuccessor;  ///< chain predecessor
};

}  // namespace prestage::prefetch
