// Unit and property tests for the paper's contribution: the prestage
// buffer and the CLGP engine (paper §3.2).
#include <gtest/gtest.h>

#include <vector>

#include "common/prestage_assert.hpp"
#include "common/rng.hpp"
#include "core/clgp.hpp"
#include "core/prestage_buffer.hpp"
#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"

namespace prestage::core {
namespace {

TEST(PrestageBuffer, AllocateSetsPaperFields) {
  PrestageBuffer pb(4);
  auto* e = pb.allocate(0x1000);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->line, 0x1000u);
  EXPECT_EQ(e->consumers, 1u);  // §3.2.3: "consumers counter is set to 1"
  EXPECT_FALSE(e->valid);       // unset until the line arrives
}

TEST(PrestageBuffer, PinnedEntriesAreNotReplaceable) {
  PrestageBuffer pb(2);
  auto* a = pb.allocate(0x1000);
  auto* b = pb.allocate(0x2000);
  ASSERT_TRUE(a && b);
  // Both have consumers == 1: no free entry.
  EXPECT_EQ(pb.allocate(0x3000), nullptr);
  // Consuming line A releases it.
  pb.on_fetch(0x1000);
  auto* c = pb.allocate(0x3000);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->line, 0x3000u);
  EXPECT_EQ(pb.find(0x1000), nullptr);  // A evicted
  EXPECT_NE(pb.find(0x2000), nullptr);  // B survived (pinned)
}

TEST(PrestageBuffer, LineRemainsWhileCltqReferencesIt) {
  // Paper §3.2.3: "a cache line remains in the prestage buffer as long as
  // there are entries of the CLTQ which reference it."
  PrestageBuffer pb(1);
  auto* a = pb.allocate(0x1000);
  ASSERT_TRUE(pb.fill(*a, a->gen, 0));  // the line arrives
  pb.add_consumer(0x1000);  // a second CLTQ reference
  pb.on_fetch(0x1000);      // first fetch
  EXPECT_EQ(pb.allocate(0x3000), nullptr);  // still pinned... (1 left)
  pb.on_fetch(0x1000);      // last use
  EXPECT_NE(pb.allocate(0x3000), nullptr);  // now replaceable
}

TEST(PrestageBuffer, FetchAfterResetSaturatesAtZero) {
  PrestageBuffer pb(2);
  auto* a = pb.allocate(0x1000);
  ASSERT_TRUE(pb.fill(*a, a->gen, 0));  // the line arrives
  pb.reset_consumers();
  pb.on_fetch(0x1000);  // consumers already 0: must not underflow
  EXPECT_EQ(pb.find(0x1000)->consumers, 0u);
}

TEST(PrestageBuffer, ResetMakesAllEntriesAvailableButValidLinesRemain) {
  // Paper §3.2.3: on a misprediction all entries become available while
  // valid lines remain usable until reallocated.
  PrestageBuffer pb(2);
  auto* a = pb.allocate(0x1000);
  ASSERT_TRUE(pb.fill(*a, a->gen, 0));  // the line arrives
  (void)pb.allocate(0x2000);
  pb.reset_consumers();
  EXPECT_EQ(pb.pinned_entries(), 0u);
  EXPECT_NE(pb.find(0x1000), nullptr);  // line still fetchable
  auto* c = pb.allocate(0x3000);        // and replaceable
  ASSERT_NE(c, nullptr);
}

TEST(PrestageBuffer, LruPicksLeastRecentlyUsedFreeEntry) {
  PrestageBuffer pb(3);
  auto* a = pb.allocate(0x1000);
  auto* b = pb.allocate(0x2000);
  auto* c = pb.allocate(0x3000);
  for (const auto* e : {a, b, c}) ASSERT_TRUE(pb.fill(*e, e->gen, 0));
  pb.on_fetch(0x1000);
  pb.on_fetch(0x2000);
  pb.on_fetch(0x3000);
  pb.on_fetch(0x1000);  // 0x2000 is now LRU among free
  pb.on_fetch(0x3000);
  (void)pb.allocate(0x4000);
  EXPECT_EQ(pb.find(0x2000), nullptr);
  EXPECT_NE(pb.find(0x1000), nullptr);
  EXPECT_NE(pb.find(0x3000), nullptr);
}

TEST(PrestageBuffer, GenerationGuardsDistinguishReallocations) {
  PrestageBuffer pb(1);
  auto* a = pb.allocate(0x1000);
  const std::uint64_t gen1 = a->gen;
  pb.reset_consumers();
  auto* b = pb.allocate(0x2000);  // same slot, new generation
  EXPECT_EQ(a, b);
  EXPECT_NE(b->gen, gen1);
}

TEST(PrestageBuffer, AllocateOfResidentLineThrows) {
  // A line is staged at most once, whether its entry is pinned by a
  // waiting consumer or not.
  PrestageBuffer pb(4);
  (void)pb.allocate(0x1000);
  (void)pb.allocate(0x2000);
  EXPECT_THROW((void)pb.allocate(0x2000), SimError);  // pinned
  pb.reset_consumers();
  EXPECT_THROW((void)pb.allocate(0x2000), SimError);  // unpinned
  EXPECT_EQ(pb.find(0x2000)->consumers, 0u) << "a refused allocate "
                                               "changes nothing";
  // Also when no entry is replaceable, which would otherwise return null.
  PrestageBuffer full(1);
  (void)full.allocate(0x1000);
  EXPECT_THROW((void)full.allocate(0x1000), SimError);
}

TEST(PrestageBuffer, SettleFlipsValidOnlyAfterReadyTime) {
  PrestageBuffer pb(2);
  auto* a = pb.allocate(0x1000);
  pb.set_ready(*a, 10);
  pb.settle(9);
  EXPECT_FALSE(pb.find(0x1000)->valid);
  pb.settle(10);
  EXPECT_TRUE(pb.find(0x1000)->valid);
}

// --- CLGP engine against real CLTQ/caches/memory ------------------------

struct ClgpRig {
  frontend::CacheLineTargetQueue cltq{8, 64};
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  ClgpPrestager clgp;

  explicit ClgpRig(const ClgpConfig& cfg = {},
                   bool with_l0 = false)
      : caches(make_caches(with_l0)),
        mem(make_mem()),
        clgp(cfg, cltq, caches, mem) {}

  static mem::IFetchCachesConfig make_caches_cfg(bool l0) {
    mem::IFetchCachesConfig c;
    c.l1_size_bytes = 4096;
    c.l1_latency = 4;
    c.has_l0 = l0;
    return c;
  }
  static mem::IFetchCaches make_caches(bool l0) {
    return mem::IFetchCaches(make_caches_cfg(l0));
  }
  static mem::MemSystem make_mem() {
    mem::MemSystemConfig c;
    c.l2_latency = 10;
    c.mem_latency = 50;
    return mem::MemSystem(c);
  }

  void push_line(Addr start, std::uint32_t count = 8) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = count;
    b.oracle_base_seq = 0;
    b.wrong_from = count;
    cltq.push_block(b);
  }

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      clgp.tick(t);
    }
  }
};

TEST(Clgp, ScanAllocatesAndPrefetchesFromL2) {
  ClgpRig rig;
  rig.mem.l2().insert(0x1000);  // L2-resident: fill at L2 latency
  rig.push_line(0x1000);
  rig.run_cycles(0, 20);
  const auto* e = rig.clgp.buffer().find(0x1000);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(rig.cltq.is_prefetched(0));
  EXPECT_EQ(rig.clgp.prefetches_issued.value(), 1u);
  EXPECT_TRUE(e->valid);  // L2 fill completed within 20 cycles
  EXPECT_EQ(rig.clgp.prefetch_sources().count(FetchSource::L2), 1u);
}

TEST(Clgp, SecondReferenceExtendsLifetimeNoNewPrefetch) {
  // Paper §3.2.3: a CLTQ entry matching a staged line only increments the
  // consumers counter.
  ClgpRig rig;
  rig.push_line(0x1000);
  rig.push_line(0x1000);
  rig.run_cycles(0, 20);
  EXPECT_EQ(rig.clgp.prefetches_issued.value(), 1u);
  EXPECT_EQ(rig.clgp.consumer_extensions.value(), 1u);
  EXPECT_EQ(rig.clgp.buffer().find(0x1000)->consumers, 2u);
  EXPECT_EQ(rig.clgp.prefetch_sources().count(FetchSource::PreBuffer), 1u);
}

TEST(Clgp, NoFilteringPrefetchesL1ResidentLines) {
  // Paper §3.2.3: "CLGP does not perform any kind of filtering" — an
  // L1-resident line is transferred into the prestage buffer.
  ClgpRig rig;
  rig.caches.fill_demand(0x1000);
  rig.push_line(0x1000);
  rig.run_cycles(0, 10);
  const auto* e = rig.clgp.buffer().find(0x1000);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(rig.clgp.prefetch_sources().count(FetchSource::L1), 1u);
  EXPECT_TRUE(e->valid);  // L1 transfer at L1 latency
}

TEST(Clgp, FetchConsumptionLeavesLineResident) {
  // Unlike FDP, a consumed line is not moved to L0/L1 and stays in the
  // buffer (paper §3.2.3 "it is not transferred to the first level
  // I-cache").
  ClgpRig rig;
  rig.push_line(0x1000);
  rig.run_cycles(0, 20);
  rig.clgp.on_fetch_from_pb(0x1000, 21);
  EXPECT_NE(rig.clgp.buffer().find(0x1000), nullptr);
  EXPECT_FALSE(rig.caches.probe_l1(0x1000));
  EXPECT_EQ(rig.clgp.buffer().find(0x1000)->consumers, 0u);
}

TEST(Clgp, ScanStallsWhenAllEntriesPinned) {
  ClgpConfig cfg;
  cfg.entries = 2;
  ClgpRig rig(cfg);
  rig.push_line(0x1000);
  rig.push_line(0x2000);
  rig.push_line(0x3000);  // no room: must stall, not evict pinned lines
  rig.run_cycles(0, 30);
  EXPECT_EQ(rig.clgp.buffer().find(0x3000), nullptr);
  EXPECT_GT(rig.clgp.pb_occupancy_stalls.value(), 0u);
  EXPECT_NE(rig.clgp.buffer().find(0x1000), nullptr);
  EXPECT_NE(rig.clgp.buffer().find(0x2000), nullptr);
}

TEST(Clgp, RecoveryResetsConsumersAndUnblocksScan) {
  ClgpConfig cfg;
  cfg.entries = 2;
  ClgpRig rig(cfg);
  rig.push_line(0x1000);
  rig.push_line(0x2000);
  rig.push_line(0x3000);
  rig.run_cycles(0, 30);
  // Misprediction: CLTQ flushes, counters reset.
  rig.cltq.flush();
  rig.clgp.on_recovery(31);
  EXPECT_EQ(rig.clgp.buffer().pinned_entries(), 0u);
  rig.push_line(0x4000);
  rig.run_cycles(31, 60);
  EXPECT_NE(rig.clgp.buffer().find(0x4000), nullptr);
}

TEST(Clgp, ProbeReportsInFlightThenValid) {
  ClgpRig rig;
  rig.mem.l2().insert(0x1000);
  rig.push_line(0x1000);
  rig.mem.tick(0);
  rig.clgp.tick(0);  // allocates + submits
  const auto probe0 = rig.clgp.probe(0x1000);
  EXPECT_TRUE(probe0.present);
  EXPECT_EQ(probe0.data_ready, kNoCycle);  // fill time unknown yet
  rig.run_cycles(1, 20);
  const auto probe1 = rig.clgp.probe(0x1000);
  EXPECT_TRUE(probe1.present);
  EXPECT_NE(probe1.data_ready, kNoCycle);
}

TEST(Clgp, StaleFillDoesNotCorruptReallocatedEntry) {
  ClgpConfig cfg;
  cfg.entries = 1;
  ClgpRig rig(cfg);
  rig.push_line(0x1000);
  rig.mem.tick(0);
  rig.clgp.tick(0);  // prefetch of 0x1000 in flight
  rig.cltq.flush();
  rig.clgp.on_recovery(1);  // consumers reset: entry replaceable
  rig.push_line(0x2000);
  rig.clgp.tick(1);  // reallocates the single entry to 0x2000
  // Let the stale 0x1000 fill arrive; it must not mark 0x2000 valid with
  // wrong data timing.
  rig.run_cycles(2, 15);
  const auto* e = rig.clgp.buffer().find(0x2000);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(rig.clgp.buffer().find(0x1000), nullptr);
}

// Ablation knobs.
TEST(Clgp, AblationFilteringSkipsResidentLines) {
  ClgpConfig cfg;
  cfg.filter_resident = true;
  ClgpRig rig(cfg);
  rig.caches.fill_demand(0x1000);
  rig.push_line(0x1000);
  rig.run_cycles(0, 10);
  EXPECT_EQ(rig.clgp.buffer().find(0x1000), nullptr);
  EXPECT_EQ(rig.clgp.prefetches_issued.value(), 0u);
  EXPECT_TRUE(rig.cltq.is_prefetched(0));
}

TEST(Clgp, AblationTransferOnUsePromotesToCache) {
  ClgpConfig cfg;
  cfg.transfer_on_use = true;
  ClgpRig rig(cfg, /*with_l0=*/false);
  rig.push_line(0x1000);
  rig.run_cycles(0, 20);
  rig.clgp.on_fetch_from_pb(0x1000, 21);
  EXPECT_TRUE(rig.caches.probe_l1(0x1000));
}

// --- property/invariant layer (paper §3.2.2/§3.2.4) ---------------------
//
// A long random operation sequence against the buffer, with the paper's
// structural invariants checked after every step:
//  * the consumers counter never underflows (it saturates at zero);
//  * an entry with consumers > 0 is never evicted by an allocation;
//  * consumption does not free an entry (the line stays resident).

TEST(PrestageBufferProperty, RandomOperationSequenceKeepsInvariants) {
  Rng rng(0xC0FFEE);
  constexpr std::uint32_t kEntries = 8;
  PrestageBuffer pb(kEntries);
  std::vector<Addr> universe;
  for (Addr i = 0; i < 24; ++i) universe.push_back(0x1000 + 0x40 * i);
  const auto pick_resident = [&]() -> Addr {
    std::vector<Addr> resident;
    for (const auto& e : pb.entries()) {
      if (e.allocated) resident.push_back(e.line);
    }
    if (resident.empty()) return kNoAddr;
    return resident[rng.below(resident.size())];
  };

  for (std::uint64_t iter = 0; iter < 20000; ++iter) {
    switch (rng.below(6)) {
      case 0: {  // allocate an absent line
        const Addr line = universe[rng.below(universe.size())];
        if (pb.find(line) != nullptr) break;
        const std::vector<PrestageBuffer::Entry> before = pb.entries();
        const PrestageBuffer::Entry* e = pb.allocate(line);
        if (e == nullptr) {
          // Refusal is only legal when every entry is pinned.
          for (const auto& b : before) {
            EXPECT_TRUE(b.allocated && b.consumers > 0);
          }
        } else {
          EXPECT_EQ(e->line, line);
          EXPECT_EQ(e->consumers, 1u);
          EXPECT_FALSE(e->valid);
          // The displaced slot must have been free or unpinned.
          const auto slot = static_cast<std::size_t>(e - pb.entries().data());
          EXPECT_TRUE(!before[slot].allocated ||
                      before[slot].consumers == 0u)
              << "evicted a pinned entry at slot " << slot;
        }
        break;
      }
      case 1: {  // extend an existing entry's lifetime
        const Addr line = pick_resident();
        if (line == kNoAddr) break;
        const std::uint32_t before = pb.find(line)->consumers;
        pb.add_consumer(line);
        EXPECT_GE(pb.find(line)->consumers, before);
        break;
      }
      case 2: {  // consume: decrements, saturates, never frees
        const Addr line = pick_resident();
        if (line == kNoAddr) break;
        const std::uint32_t before = pb.find(line)->consumers;
        pb.on_fetch(line);
        const PrestageBuffer::Entry* e = pb.find(line);
        ASSERT_NE(e, nullptr) << "consumption freed the entry";
        EXPECT_EQ(e->consumers, before == 0 ? 0 : before - 1);
        break;
      }
      case 3:
        pb.reset_consumers();
        EXPECT_EQ(pb.pinned_entries(), 0u);
        break;
      case 4: {  // a transfer time becomes known
        const Addr line = pick_resident();
        if (line == kNoAddr) break;
        pb.set_ready(*pb.find(line), iter);
        break;
      }
      case 5:
        pb.settle(iter);
        // settle() may skip its scan, but never past a due transfer.
        for (const auto& e : pb.entries()) {
          if (e.allocated && e.ready != kNoCycle && e.ready <= iter) {
            EXPECT_TRUE(e.valid) << "settle(" << iter << ") left line "
                                 << e.line << " due at " << e.ready;
          }
        }
        break;
    }
    // Global invariants after every operation. An underflow through the
    // saturating decrement would wrap to ~4e9 and trip instantly.
    std::uint32_t pinned = 0;
    for (const auto& e : pb.entries()) {
      if (!e.allocated) continue;
      EXPECT_LT(e.consumers, 1000000u) << "consumers counter underflowed";
      pinned += e.consumers > 0;
    }
    EXPECT_EQ(pinned, pb.pinned_entries());
  }
}

TEST(ClgpProperty, StagedLinesAreNeverReplicatedIntoL1OrL0) {
  // Paper §3.2.4: CLGP keeps exactly one copy — consuming a staged line
  // must not install it into L0/L1 (the transfer_on_use ablation is the
  // deliberate exception, covered above).
  ClgpConfig cfg;
  ClgpRig rig(cfg, /*with_l0=*/true);
  Rng rng(42);
  std::vector<Addr> lines;
  for (Addr i = 0; i < 6; ++i) lines.push_back(0x2000 + 0x40 * i);
  Cycle now = 0;
  for (int round = 0; round < 200; ++round) {
    const Addr line = lines[rng.below(lines.size())];
    rig.push_line(line);
    const Cycle end = now + 1 + rng.below(30);
    rig.run_cycles(now, end);
    now = end + 1;
    if (rig.clgp.buffer().find(line) != nullptr) {
      rig.clgp.on_fetch_from_pb(line, now);
    }
    if (rng.chance(0.2)) rig.clgp.on_recovery(now);
    // No line the prestager touched may ever appear in the caches: every
    // line entered through the prestage path, never the demand path.
    for (const Addr l : lines) {
      EXPECT_FALSE(rig.caches.probe_l1(l)) << "staged line copied to L1";
      EXPECT_FALSE(rig.caches.probe_l0(l)) << "staged line copied to L0";
    }
    while (!rig.cltq.empty()) rig.cltq.consume_line();
  }
}

TEST(Clgp, AblationDisableConsumersFreesOnUse) {
  ClgpConfig cfg;
  cfg.disable_consumers = true;
  cfg.entries = 2;
  ClgpRig rig(cfg);
  rig.push_line(0x1000);
  rig.push_line(0x1000);  // would normally pin with consumers == 2
  rig.run_cycles(0, 20);
  rig.clgp.on_fetch_from_pb(0x1000, 21);
  // One use frees the entry despite the second queued reference.
  EXPECT_EQ(rig.clgp.buffer().find(0x1000)->consumers, 0u);
}

// The event-horizon skip folds every cycle idle_plan() calls idle into
// one count of its per_cycle counter. So on such a cycle tick() must
// change nothing else: no prefetched bit, no buffer entry, and no
// statistic but that counter, which rises by exactly one.

/// Everything a CLGP tick can change: its counters (the occupancy stall
/// count third), its prefetch sources, each CLTQ line's prefetched bit,
/// and every field of every buffer entry.
std::vector<std::uint64_t> clgp_state(const ClgpRig& rig) {
  const ClgpPrestager& c = rig.clgp;
  std::vector<std::uint64_t> st = {
      c.prefetches_issued.value(), c.consumer_extensions.value(),
      c.pb_occupancy_stalls.value(), c.consumers_resets.value()};
  for (int i = 0; i < kNumFetchSources; ++i) {
    st.push_back(c.prefetch_sources().count(static_cast<FetchSource>(i)));
  }
  for (std::size_t i = 0; i < rig.cltq.lines_held(); ++i) {
    st.push_back(rig.cltq.is_prefetched(i) ? 1U : 0U);
  }
  for (const PrestageBuffer::Entry& e : c.buffer().entries()) {
    st.insert(st.end(), {e.line, e.consumers, e.ready, e.lru, e.gen,
                         e.allocated ? 1U : 0U, e.valid ? 1U : 0U});
  }
  return st;
}

TEST(ClgpProperty, IdleForecastFoldsIntoOneStallCount) {
  std::vector<Addr> universe;
  for (Addr i = 0; i < 24; ++i) universe.push_back(0x8000 + 0x40 * i);
  std::uint64_t idle_cycles = 0;
  std::uint64_t stalls = 0;
  for (int variant = 0; variant < 8; ++variant) {
    ClgpConfig cfg;
    cfg.entries = 2 + 2 * static_cast<std::uint32_t>(variant & 1);
    cfg.filter_resident = (variant & 2) != 0;
    cfg.disable_consumers = variant == 3;
    ClgpRig rig(cfg, /*with_l0=*/(variant & 4) != 0);
    Rng rng(3000 + static_cast<std::uint64_t>(variant));
    for (Cycle t = 0; t < 4000; ++t) {
      if (rig.cltq.can_accept_block() && rng.chance(0.3)) {
        rig.push_line(universe[rng.below(universe.size())] +
                          4 * rng.below(16),
                      1 + static_cast<std::uint32_t>(rng.below(24)));
      }
      if (const auto head = rig.cltq.peek_line(); head && rng.chance(0.2)) {
        // The fetch stage takes the head line, from the buffer if there.
        if (rig.clgp.probe(head->line).present) {
          rig.clgp.on_fetch_from_pb(head->line, t);
        }
        rig.cltq.consume_line();
      }
      const Addr any = universe[rng.below(universe.size())];
      if (rng.chance(0.02)) rig.caches.fill_demand(any);
      if (rng.chance(0.05)) rig.mem.l2().insert(any);
      if (rng.chance(0.01)) {  // a misprediction recovery
        rig.cltq.flush();
        rig.clgp.on_recovery(t);
      }
      if (rng.chance(0.05)) {
        (void)rig.caches.prefetch_port().issue(t);  // another user
      }

      rig.mem.tick(t);
      const IdlePlan plan = rig.clgp.idle_plan(t);
      const auto before = clgp_state(rig);
      rig.clgp.tick(t);
      if (plan.next_event > t) {
        ++idle_cycles;
        auto expected = before;
        if (plan.per_cycle == &rig.clgp.pb_occupancy_stalls) {
          ++expected[2];
          ++stalls;
        } else {
          ASSERT_EQ(plan.per_cycle, nullptr);
        }
        ASSERT_EQ(clgp_state(rig), expected)
            << "variant " << variant << " cycle " << t;
      }
    }
  }
  // The fold was exercised, occupancy stalls included.
  EXPECT_GT(idle_cycles, 1000u);
  EXPECT_GT(stalls, 1000u);
}

}  // namespace
}  // namespace prestage::core
