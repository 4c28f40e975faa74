// The prestage buffer (paper §3.2.2): the fully-associative buffer that
// CLGP turns into the *primary* instruction supplier.
//
// Each entry carries the paper's four fields:
//  * the prefetched cache line (tag);
//  * a consumers counter — how many CLTQ entries will fetch from this
//    line; the entry is replaceable only when it reaches zero;
//  * a valid bit — whether the line has arrived from the hierarchy;
//  * LRU state used to pick among replaceable entries.
//
// Unlike a prefetch buffer, consumption does NOT free the entry and the
// line is never transferred to L0/L1 — no replication, so the total
// one-cycle-reachable set is larger (paper §3.2.4/§5.1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace prestage::core {

class PrestageBuffer {
 public:
  struct Entry {
    Addr line = kNoAddr;
    std::uint32_t consumers = 0;
    Cycle ready = kNoCycle;  ///< fill completion; kNoCycle while unknown
    std::uint64_t lru = 0;
    std::uint64_t gen = 0;  ///< reallocation guard for in-flight fills
    bool allocated = false;
    bool valid = false;  ///< data present
  };

  explicit PrestageBuffer(std::uint32_t entries);

  /// Entry holding @p line, or nullptr.
  [[nodiscard]] Entry* find(Addr line);
  [[nodiscard]] const Entry* find(Addr line) const;

  /// Allocates the LRU replaceable entry (consumers == 0) for @p line
  /// with consumers = 1 and valid unset (paper §3.2.3). Returns nullptr
  /// when every entry is pinned by waiting consumers.
  [[nodiscard]] Entry* allocate(Addr line);

  /// Fetch consumed @p line: decrement its consumers counter (saturating
  /// at zero — counters may have been reset by a misprediction) and touch
  /// LRU. The line stays resident.
  void on_fetch(Addr line);

  /// A CLTQ entry references an already-staged line: extend its lifetime.
  void add_consumer(Addr line);

  /// Branch misprediction recovery: every consumers counter is reset, so
  /// all entries become available for prefetches along the correct path,
  /// while valid lines remain opportunistically fetchable (paper §3.2.3).
  void reset_consumers();

  /// Sets the valid bit on entries whose known transfer time has passed
  /// (L1->buffer transfers; L2/memory fills flip valid via callback).
  void settle(Cycle now);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] std::uint32_t pinned_entries() const;  ///< consumers > 0

  /// Would allocate() succeed right now? Mirrors its victim search
  /// without mutating LRU state (event-horizon planning).
  [[nodiscard]] bool can_allocate() const {
    for (const Entry& e : entries_) {
      if (!e.allocated || e.consumers == 0) return true;
    }
    return false;
  }

  /// Earliest settle(now) that would flip a valid bit: the min ready
  /// over allocated, not-yet-valid entries with a known transfer time.
  /// kNoCycle when only fill callbacks can change buffer state.
  [[nodiscard]] Cycle next_settle_cycle() const {
    Cycle next = kNoCycle;
    for (const Entry& e : entries_) {
      if (e.allocated && !e.valid && e.ready != kNoCycle && e.ready < next) {
        next = e.ready;
      }
    }
    return next;
  }

  /// Direct entry access for tests and diagnostics.
  [[nodiscard]] const std::vector<Entry>& entries() const {
    return entries_;
  }

 private:
  std::vector<Entry> entries_;
  std::uint64_t lru_clock_ = 0;
};

}  // namespace prestage::core
