// The shared L2 + main-memory subsystem behind a single arbitrated bus.
//
// Paper §4.1: one request per cycle may use the L2 bus; priority is
// L1 data cache > L1 instruction cache (demand fetch) > prefetcher.
// Requests for a line already in flight merge MSHR-style (the later
// requester piggybacks on the earlier fill; a demand merge upgrades the
// pending request's priority). Completion is delivered through callbacks
// invoked in deterministic (ready-cycle, submission-order) order.
//
// This is the simulator's hottest component, so the implementation is
// allocation-free in steady state and O(log n) per event:
//  * transactions live in a stable slot pool with a free list — indices
//    never shift, so the line -> slot map is updated with O(1)
//    insert/erase instead of being rebuilt on every grant/completion;
//  * arbitration pops a (type, seq)-keyed binary heap; priority
//    upgrades push a fresh heap entry and the stale one is skipped at
//    pop time (the slot's current type/seq no longer match);
//  * completion pops a (ready, seq)-keyed heap filled at grant time;
//  * fill callbacks are InlineFunction (no capture allocation) chained
//    through a pooled node free list instead of a per-transaction
//    std::vector.
// Every container grows to its working-set high-water mark and is then
// reused, so submit()/tick() perform no heap allocation in steady state
// (tests/memsys_stress_test.cpp counts allocations to prove it).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/addr_map.hpp"
#include "common/inline_function.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"

namespace prestage::mem {

/// Bus priority classes, highest first (paper §4.1).
enum class ReqType : std::uint8_t {
  Data = 0,          ///< L1 D-cache miss or writeback
  IFetchDemand = 1,  ///< L1 I-cache demand miss
  IPrefetch = 2,     ///< FDP/CLGP prefetch
};

inline constexpr int kNumReqTypes = 3;

/// Called when a fill completes: where the line was found (L2 or Memory)
/// and the cycle the data is available to the requester. Captures must
/// fit the inline storage — the whole point is that storing a callback
/// never allocates.
using FillCallback = InlineFunction<void(FetchSource, Cycle), 48>;

struct MemSystemConfig {
  std::uint64_t l2_size_bytes = 1ULL << 20U;  ///< 1 MB (Table 2)
  std::uint32_t l2_line_bytes = 128;          ///< Table 2
  std::uint32_t l2_assoc = 2;                 ///< Table 2
  int l2_latency = 17;          ///< cycles; Table 3, node-dependent
  int mem_latency = 200;        ///< cycles (Table 2)
  std::uint32_t transfer_bytes = 64;  ///< bus bandwidth per cycle (Table 2)
  std::uint32_t l1_line_bytes = 64;   ///< fill transfer unit
};

class MemSystem {
 public:
  explicit MemSystem(const MemSystemConfig& config);

  /// Submits a fill request for the line containing @p addr. The callback
  /// fires during the tick() whose cycle equals the fill's ready time.
  /// Requests for an already-in-flight line merge; merging a
  /// higher-priority request upgrades a still-queued transaction.
  void submit(ReqType type, Addr addr, Cycle now, FillCallback on_fill);

  /// Queues a dirty-line writeback (bus occupancy only, no callback).
  void submit_writeback(Addr addr, Cycle now);

  /// Advances arbitration and delivers completions for cycle @p now.
  /// Must be called once per cycle with non-decreasing @p now. Returns
  /// immediately when idle_plan(now) reports nothing due (the common
  /// idle cycle).
  void tick(Cycle now);

  /// True if a fill for @p addr's line is pending or in flight.
  [[nodiscard]] bool in_flight(Addr addr) const;

  /// Event-horizon forecast (cpu/cpu.cpp fast-forward): the earlier of
  /// the two due times tick() decides through — the front of the
  /// completion heap, and the next bus grant while a request is queued.
  /// At or before the queried cycle means tick() acts then; kNoCycle
  /// means only a new submit() can wake the subsystem. Names no
  /// per-cycle counter: an idle tick changes nothing.
  [[nodiscard]] IdlePlan idle_plan(Cycle /*now*/) const noexcept {
    return {std::min(completion_at(), grant_at()), nullptr};
  }

  /// Direct access to the L2 tag array (tests, warm-up).
  [[nodiscard]] SetAssocCache& l2() noexcept { return l2_; }
  [[nodiscard]] const SetAssocCache& l2() const noexcept { return l2_; }

  [[nodiscard]] const MemSystemConfig& config() const noexcept {
    return config_;
  }

  // --- statistics -------------------------------------------------------
  Counter l2_hits;
  Counter l2_misses;
  Counter writebacks;
  Counter merges;                      ///< requests satisfied by merging
  std::array<Counter, kNumReqTypes> grants;  ///< bus grants per class
  Counter bus_busy_cycles;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  enum class SlotState : std::uint8_t { Free, Pending, InService };

  struct Transaction {
    Addr line = kNoAddr;
    ReqType type = ReqType::IPrefetch;
    std::uint64_t seq = 0;      ///< submission order (grant tie-break)
    Cycle ready = kNoCycle;     ///< set at grant time
    FetchSource source = FetchSource::L2;
    SlotState state = SlotState::Free;
    bool is_writeback = false;
    std::uint32_t cb_head = kNil;  ///< callback chain through cb_nodes_
    std::uint32_t cb_tail = kNil;
  };

  /// Pooled callback-chain link; `next` doubles as the free-list link.
  struct CallbackNode {
    FillCallback fn;
    std::uint32_t next = kNil;
  };

  /// Grant-arbitration heap entry, min-ordered by (type, seq). Entries
  /// whose (type, seq) no longer match their slot are stale (the
  /// transaction was upgraded or already granted) and skipped at pop.
  struct GrantKey {
    ReqType type;
    std::uint64_t seq;
    std::uint32_t slot;

    /// The one ordering push_heap and pop_heap must share: "a pops
    /// later than b" (std:: heaps are max-heaps, so this yields min
    /// pops on (type, seq)).
    static bool pops_later(const GrantKey& a, const GrantKey& b) noexcept {
      return b.type < a.type || (b.type == a.type && b.seq < a.seq);
    }
  };

  /// Completion heap entry, min-ordered by (ready, seq). Always valid:
  /// ready and seq are immutable once a transaction is in service.
  struct ReadyKey {
    Cycle ready;
    std::uint64_t seq;
    std::uint32_t slot;

    static bool pops_later(const ReadyKey& a, const ReadyKey& b) noexcept {
      return b.ready < a.ready || (b.ready == a.ready && b.seq < a.seq);
    }
  };

  [[nodiscard]] Addr l1_line(Addr addr) const noexcept {
    return line_align(addr, config_.l1_line_bytes);
  }

  /// The cycle the earliest in-service fill completes.
  [[nodiscard]] Cycle completion_at() const noexcept {
    return ready_heap_.empty() ? kNoCycle : ready_heap_.front().ready;
  }
  /// The cycle the bus grants a queued request: the first it is free.
  [[nodiscard]] Cycle grant_at() const noexcept {
    return pending_count_ == 0 ? kNoCycle : bus_free_at_;
  }

  [[nodiscard]] std::uint32_t alloc_slot();
  void free_slot(std::uint32_t index) noexcept;
  void append_callback(Transaction& txn, FillCallback on_fill);
  void push_grant(ReqType type, std::uint64_t seq, std::uint32_t slot);
  void grant_one(Cycle now);
  void deliver_completions(Cycle now);

  MemSystemConfig config_;
  SetAssocCache l2_;
  std::vector<Transaction> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<CallbackNode> cb_nodes_;
  std::uint32_t cb_free_head_ = kNil;
  AddrMap line_to_slot_;  ///< fill transactions only (never writebacks)
  std::vector<GrantKey> grant_heap_;
  std::vector<ReadyKey> ready_heap_;  ///< one entry per in-service txn
  std::size_t pending_count_ = 0;     ///< live (non-stale) pending txns
  Cycle bus_free_at_ = 0;
  std::uint64_t next_seq_ = 0;
  Cycle last_tick_ = 0;
};

}  // namespace prestage::mem
