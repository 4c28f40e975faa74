// Unit tests for the baseline prefetchers: FDP (paper §3.1),
// next-N-line (§2.1), the stream/discontinuity scheme, MANA
// (arXiv 2102.01764) and the program-map traversal scheme
// (arXiv 2406.06738), plus the NonePrefetcher contract and the
// prefetcher registry.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "cpu/cpu.hpp"
#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/fdp.hpp"
#include "prefetch/mana.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/program_map.hpp"
#include "prefetch/registry.hpp"
#include "prefetch/stream.hpp"
#include "sim/presets.hpp"

namespace prestage::prefetch {
namespace {

struct FdpRig {
  frontend::FetchTargetQueue ftq{8, 64};
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  FdpPrefetcher fdp;

  explicit FdpRig(const PrefetchBufferConfig& pb = {}, bool with_l0 = false)
      : caches(make_caches(with_l0)),
        mem(make_mem()),
        fdp(pb, ftq, caches, mem) {}

  static mem::IFetchCaches make_caches(bool l0) {
    mem::IFetchCachesConfig c;
    c.l1_size_bytes = 4096;
    c.l1_latency = 4;
    c.has_l0 = l0;
    return mem::IFetchCaches(c);
  }
  static mem::MemSystem make_mem() {
    mem::MemSystemConfig c;
    c.l2_latency = 10;
    c.mem_latency = 50;
    return mem::MemSystem(c);
  }

  void push_block(Addr start, std::uint32_t len = 8) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 0;
    b.wrong_from = len;
    ftq.push_block(b);
  }

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      fdp.tick(t);
    }
  }
};

TEST(Fdp, PrefetchesFtqLinesIntoBuffer) {
  FdpRig rig;
  rig.mem.l2().insert(0x1000);  // L2-resident: fill at L2 latency
  rig.push_block(0x1000);
  rig.run_cycles(0, 20);
  EXPECT_TRUE(rig.fdp.probe(0x1000).present);
  EXPECT_EQ(rig.fdp.prefetches(), 1u);
  EXPECT_EQ(rig.fdp.prefetch_sources().count(FetchSource::L2), 1u);
}

TEST(Fdp, EnqueueCacheProbeFilteringSkipsResidentLines) {
  // Paper §3.1: the configuration compared in the results uses Enqueue
  // Cache Probe Filtering against the I-cache tags.
  FdpRig rig;
  rig.caches.fill_demand(0x1000);
  rig.push_block(0x1000);
  rig.run_cycles(0, 20);
  EXPECT_FALSE(rig.fdp.probe(0x1000).present);
  EXPECT_EQ(rig.fdp.prefetches(), 0u);
  EXPECT_EQ(rig.fdp.requests_filtered.value(), 1u);
}

TEST(Fdp, WithL0FiltersOnlyAgainstL0AndPrefetchesFromL1) {
  // Paper §3.1.1: with an L0, prefetches are served by the L1 so its
  // multi-cycle hit latency stops hurting the fetch stage.
  FdpRig rig({}, /*with_l0=*/true);
  rig.caches.l1().insert(0x1000);  // in L1 but not L0
  rig.push_block(0x1000);
  rig.run_cycles(0, 20);
  EXPECT_TRUE(rig.fdp.probe(0x1000).present);
  EXPECT_EQ(rig.fdp.prefetch_sources().count(FetchSource::L1), 1u);
}

TEST(Fdp, ConsumedLinePromotesAndFrees) {
  // Paper §3.1: "when a line from the prefetch buffer is used... it is
  // transferred to the I-cache and the entry is marked as available".
  FdpRig rig;
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000);
  rig.run_cycles(0, 30);
  ASSERT_TRUE(rig.fdp.probe(0x1000).present);
  rig.fdp.on_fetch_from_pb(0x1000, 31);
  EXPECT_FALSE(rig.fdp.probe(0x1000).present);  // entry freed
  EXPECT_TRUE(rig.caches.probe_l1(0x1000));     // moved into L1
}

TEST(Fdp, PromotionTargetsL0WhenPresent) {
  FdpRig rig({}, /*with_l0=*/true);
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000);
  rig.run_cycles(0, 30);
  rig.fdp.on_fetch_from_pb(0x1000, 31);
  EXPECT_TRUE(rig.caches.probe_l0(0x1000));
  EXPECT_FALSE(rig.caches.probe_l1(0x1000));  // not replicated into L1
}

TEST(Fdp, ConsumeWhileInFlightPromotesOnFill) {
  FdpRig rig;
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000);
  rig.mem.tick(0);
  rig.fdp.tick(0);  // request in flight
  ASSERT_TRUE(rig.fdp.probe(0x1000).present);
  rig.fdp.on_fetch_from_pb(0x1000, 1);  // fetch wants it already
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.caches.probe_l1(0x1000));
  EXPECT_FALSE(rig.fdp.probe(0x1000).present);
}

TEST(Fdp, ConsumedL1TransferIsPromotedExactlyAtItsReadyCycle) {
  // With an L0, L1-resident lines reach the buffer over the L1 prefetch
  // port at a known cycle, and tick()'s settle() makes them valid. A
  // line consumed in flight is promoted at exactly that cycle: settle()
  // may skip the cycles before it, never the cycle itself. Two
  // transfers: the first is due after settle() found nothing due, the
  // second after a settle() that made only the first valid.
  FdpRig rig({}, /*with_l0=*/true);
  const Addr lines[] = {0x1000, 0x2000};
  for (const Addr line : lines) {
    rig.caches.l1().insert(line);
    rig.push_block(line);
  }
  Cycle now = 0;
  while (!rig.fdp.probe(lines[1]).present) {
    ASSERT_LT(now, 100u) << "second transfer never started";
    rig.run_cycles(now, now);
    ++now;
  }
  Cycle ready[2];
  for (std::size_t i = 0; i < 2; ++i) {
    ready[i] = rig.fdp.probe(lines[i]).data_ready;
    ASSERT_GT(ready[i], now) << "line " << i << " arrived before use";
    rig.fdp.on_fetch_from_pb(lines[i], now);
  }
  ASSERT_LT(ready[0], ready[1]);
  for (; now <= ready[1]; ++now) {
    rig.run_cycles(now, now);
    for (std::size_t i = 0; i < 2; ++i) {
      const bool arrived = now >= ready[i];
      EXPECT_EQ(rig.fdp.probe(lines[i]).present, !arrived)
          << "line " << i << " at cycle " << now;
      EXPECT_EQ(rig.caches.probe_l0(lines[i]), arrived)
          << "line " << i << " at cycle " << now;
    }
  }
  EXPECT_EQ(rig.fdp.prefetch_sources().count(FetchSource::L1), 2u);
}

TEST(Fdp, BufferFullStallsScan) {
  PrefetchBufferConfig pb;
  pb.entries = 2;
  FdpRig rig(pb);
  rig.push_block(0x1000);
  rig.push_block(0x2000);
  rig.push_block(0x3000);
  rig.run_cycles(0, 5);  // fills in flight: entries not reclaimable
  EXPECT_FALSE(rig.fdp.probe(0x3000).present);
  EXPECT_GT(rig.fdp.pb_occupancy_stalls.value(), 0u);
}

TEST(Fdp, LruFallbackReclaimsArrivedUnusedEntries) {
  // Wrong-path leftovers must not wedge the buffer (the LRU-reclaim
  // deviation documented in prefetch/prefetch_buffer.hpp).
  PrefetchBufferConfig pb;
  pb.entries = 2;
  FdpRig rig(pb);
  rig.mem.l2().insert(0x1000);
  rig.mem.l2().insert(0x2000);
  rig.push_block(0x1000);
  rig.push_block(0x2000);
  rig.run_cycles(0, 30);  // both arrived, neither consumed
  rig.push_block(0x3000);
  rig.run_cycles(31, 99);
  EXPECT_TRUE(rig.fdp.probe(0x3000).present);  // reclaimed an LRU entry
}

TEST(Fdp, ScanCoversMultipleBlocksInOrder) {
  FdpRig rig;
  rig.push_block(0x1000, 32);  // 2 lines
  rig.push_block(0x4000, 8);   // 1 line
  rig.run_cycles(0, 40);
  EXPECT_TRUE(rig.fdp.probe(0x1000).present);
  EXPECT_TRUE(rig.fdp.probe(0x1040).present);
  EXPECT_TRUE(rig.fdp.probe(0x4000).present);
}

// The event-horizon skip folds every cycle idle_plan() calls idle into
// one count of its per_cycle counter. So on such a cycle tick() must
// change nothing else: no scan cursor, no buffer entry, and no
// statistic but that counter, which rises by exactly one.

/// Everything an FDP tick can change: its counters (the occupancy stall
/// count second), its prefetch sources, each FTQ entry's scan cursor,
/// and the buffer probe of every line in @p universe.
std::vector<std::uint64_t> fdp_state(FdpRig& rig,
                                     const std::vector<Addr>& universe) {
  std::vector<std::uint64_t> st = {rig.fdp.requests_filtered.value(),
                                   rig.fdp.pb_occupancy_stalls.value(),
                                   rig.fdp.prefetches()};
  for (int i = 0; i < kNumFetchSources; ++i) {
    st.push_back(rig.fdp.prefetch_sources().count(static_cast<FetchSource>(i)));
  }
  for (std::size_t b = 0; b < rig.ftq.size(); ++b) {
    st.push_back(rig.ftq.entry(b).prefetch_line);
  }
  for (const Addr line : universe) {
    const PreBufferProbe p = rig.fdp.probe(line);
    st.insert(st.end(), {p.present ? 1U : 0U, p.data_ready});
  }
  return st;
}

TEST(FdpProperty, IdleForecastFoldsIntoOneStallCount) {
  std::vector<Addr> universe;
  for (Addr i = 0; i < 24; ++i) universe.push_back(0x8000 + 0x40 * i);
  std::uint64_t idle_cycles = 0;
  std::uint64_t stalls = 0;
  for (int variant = 0; variant < 8; ++variant) {
    PrefetchBufferConfig pb;
    pb.entries = 2 + 2 * static_cast<std::uint32_t>(variant & 1);
    pb.latency = 1 + (variant & 2) / 2;
    pb.pipelined = pb.latency > 1;
    FdpRig rig(pb, /*with_l0=*/(variant & 4) != 0);
    Rng rng(2000 + static_cast<std::uint64_t>(variant));
    for (Cycle t = 0; t < 4000; ++t) {
      if (rig.ftq.can_accept_block() && rng.chance(0.3)) {
        rig.push_block(universe[rng.below(universe.size())] +
                           4 * rng.below(16),
                       1 + static_cast<std::uint32_t>(rng.below(24)));
      }
      if (const auto head = rig.ftq.peek_line(); head && rng.chance(0.2)) {
        // The fetch stage takes the head line, from the buffer if there.
        if (rig.fdp.probe(head->line).present) {
          rig.fdp.on_fetch_from_pb(head->line, t);
        }
        rig.ftq.consume_line();
      }
      const Addr any = universe[rng.below(universe.size())];
      if (rng.chance(0.02)) rig.caches.fill_demand(any);
      if (rng.chance(0.05)) rig.mem.l2().insert(any);
      if (rng.chance(0.01)) rig.ftq.flush();  // a misprediction recovery
      if (rng.chance(0.05)) {
        (void)rig.caches.prefetch_port().issue(t);  // another user
      }

      rig.mem.tick(t);
      const IdlePlan plan = rig.fdp.idle_plan(t);
      const auto before = fdp_state(rig, universe);
      rig.fdp.tick(t);
      if (plan.next_event > t) {
        ++idle_cycles;
        auto expected = before;
        if (plan.per_cycle == &rig.fdp.pb_occupancy_stalls) {
          ++expected[1];
          ++stalls;
        } else {
          ASSERT_EQ(plan.per_cycle, nullptr);
        }
        ASSERT_EQ(fdp_state(rig, universe), expected)
            << "variant " << variant << " cycle " << t;
      }
    }
  }
  // The fold was exercised, occupancy stalls included.
  EXPECT_GT(idle_cycles, 1000u);
  EXPECT_GT(stalls, 1000u);
}

TEST(NonePrefetcher, NeverPresent) {
  NonePrefetcher none;
  EXPECT_FALSE(none.probe(0x1000).present);
  EXPECT_EQ(none.pb_port(), nullptr);
  EXPECT_EQ(none.prefetches(), 0u);
}

struct NlRig {
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  NextLinePrefetcher nl;

  explicit NlRig(const NextLineConfig& cfg = {}, bool with_l0 = false)
      : caches(FdpRig::make_caches(with_l0)),
        mem(FdpRig::make_mem()),
        nl(cfg, {}, caches, mem) {}

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      nl.tick(t);
    }
  }
};

TEST(NextLine, PrefetchesSequentialSuccessors) {
  NextLineConfig cfg;
  cfg.degree = 2;
  NlRig rig(cfg);
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.nl.on_line_request(0x1000, 0);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.nl.probe(0x1040).present);
  EXPECT_TRUE(rig.nl.probe(0x1080).present);
  EXPECT_FALSE(rig.nl.probe(0x10C0).present);  // degree 2 only
}

TEST(NextLine, SkipsResidentLines) {
  NlRig rig;
  rig.caches.fill_demand(0x1040);
  rig.mem.tick(0);
  rig.nl.on_line_request(0x1000, 0);
  rig.run_cycles(1, 30);
  EXPECT_FALSE(rig.nl.probe(0x1040).present);  // already in L1
  EXPECT_TRUE(rig.nl.probe(0x1080).present);
}

TEST(NextLine, ConsumePromotesAndFrees) {
  NlRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.nl.on_line_request(0x1000, 0);
  rig.run_cycles(1, 30);
  rig.nl.on_fetch_from_pb(0x1040, 31);
  EXPECT_FALSE(rig.nl.probe(0x1040).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x1040));
}

TEST(NextLine, L0OnlyLineIsAttributedToL0) {
  // Figure 8: a successor the L0 holds but the L1 does not (a promoted
  // line, or one the fetch stage filled into the L0 only) was found in
  // the L0.
  NlRig rig({}, /*with_l0=*/true);
  rig.caches.fill_l0_only(0x1040);
  rig.mem.tick(0);
  rig.nl.on_line_request(0x1000, 0);
  EXPECT_EQ(rig.nl.prefetch_sources().count(FetchSource::L0), 1u);
  EXPECT_EQ(rig.nl.prefetch_sources().count(FetchSource::L1), 0u);
}

// --- stream/discontinuity prefetcher ---------------------------------------

struct StreamRig {
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  StreamPrefetcher stream;

  explicit StreamRig(const StreamConfig& cfg = {})
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        stream(cfg, {}, caches, mem) {}

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      stream.tick(t);
    }
  }

  /// Feeds a consecutive run of @p lines starting at @p start.
  void request_run(Addr start, int lines, Cycle now) {
    for (int i = 0; i < lines; ++i) {
      stream.on_line_request(start + static_cast<Addr>(i) * 64, now);
    }
  }
};

TEST(Stream, RecordsARegionOnDiscontinuity) {
  StreamRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);        // 0x1000..0x1080 sequential
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 0u)
      << "region still open";
  rig.stream.on_line_request(0x8000, 0);  // discontinuity finalizes it
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 3u);
  EXPECT_EQ(rig.stream.regions_recorded.value(), 1u);
}

TEST(Stream, SingleLineRegionsAreNotRecorded) {
  StreamRig rig;
  rig.mem.tick(0);
  rig.stream.on_line_request(0x1000, 0);
  rig.stream.on_line_request(0x8000, 0);  // 1-line region: nothing to replay
  rig.stream.on_line_request(0x9000, 0);
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 0u);
  EXPECT_EQ(rig.stream.recorded_region_lines(0x8000), 0u);
}

TEST(Stream, ReplaysTheRegionOnTriggerReencounter) {
  StreamRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.stream.on_line_request(0x8000, 0);  // record {0x1000, 3 lines}
  EXPECT_EQ(rig.stream.prefetches(), 0u)
      << "recording alone must not prefetch";

  rig.stream.on_line_request(0x1000, 1);  // trigger re-encountered
  EXPECT_EQ(rig.stream.region_replays.value(), 1u);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.stream.probe(0x1040).present);
  EXPECT_TRUE(rig.stream.probe(0x1080).present);
  EXPECT_FALSE(rig.stream.probe(0x10C0).present) << "region is 3 lines";
  EXPECT_EQ(rig.stream.prefetches(), 2u);
}

TEST(Stream, ReplayStagesL1ResidentLinesFromTheL1) {
  // Unlike next-line's cache-probe filter, a replayed line that sits in
  // the multi-cycle L1 is transferred into the one-cycle buffer (paper
  // §3.1.1/§3.2.3) rather than skipped.
  StreamRig rig;
  rig.caches.fill_demand(0x1040);  // L1-resident region line
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.stream.on_line_request(0x8000, 0);
  rig.stream.on_line_request(0x1000, 1);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.stream.probe(0x1040).present);
  EXPECT_TRUE(rig.stream.probe(0x1080).present);
  EXPECT_EQ(rig.stream.prefetches(), 2u);
  EXPECT_EQ(rig.stream.prefetch_sources().count(FetchSource::L1), 1u);
  EXPECT_EQ(rig.stream.prefetch_sources().count(FetchSource::L2), 1u);
}

TEST(Stream, ReplaySkipsOneCycleReachableLines) {
  // Lines already one cycle away (the L0 here, or the buffer itself)
  // are not re-staged.
  StreamConfig cfg;
  mem::IFetchCaches caches{FdpRig::make_caches(/*l0=*/true)};
  mem::MemSystem mem{FdpRig::make_mem()};
  StreamPrefetcher stream{cfg, {}, caches, mem};
  caches.fill_promoted(0x1040);  // into the L0
  mem.tick(0);
  for (int i = 0; i < 3; ++i) stream.on_line_request(0x1000 + i * 64, 0);
  stream.on_line_request(0x8000, 0);
  stream.on_line_request(0x1000, 1);
  for (Cycle t = 1; t <= 30; ++t) {
    mem.tick(t);
    stream.tick(t);
  }
  EXPECT_FALSE(stream.probe(0x1040).present) << "L0-resident: skipped";
  EXPECT_TRUE(stream.probe(0x1080).present);
  EXPECT_EQ(stream.prefetch_sources().count(FetchSource::L0), 1u);
}

TEST(Stream, ConsumePromotesAndFrees) {
  StreamRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.tick(0);
  rig.request_run(0x1000, 2, 0);
  rig.stream.on_line_request(0x8000, 0);
  rig.stream.on_line_request(0x1000, 1);
  rig.run_cycles(1, 30);
  ASSERT_TRUE(rig.stream.probe(0x1040).present);
  rig.stream.on_fetch_from_pb(0x1040, 31);
  EXPECT_FALSE(rig.stream.probe(0x1040).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x1040));
}

TEST(Stream, RecoveryAbandonsTheOpenRegionButKeepsTheTable) {
  StreamRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.stream.on_line_request(0x8000, 0);  // {0x1000, 3} recorded
  rig.request_run(0x2000, 3, 1);          // open wrong-path region
  rig.stream.on_recovery(2);
  rig.stream.on_line_request(0x9000, 3);  // would have finalized 0x2000
  EXPECT_EQ(rig.stream.recorded_region_lines(0x2000), 0u)
      << "recovery must drop the in-flight region";
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 3u)
      << "recorded regions survive recovery";
}

TEST(Stream, LongRunsChainAtTheRegionCap) {
  StreamConfig cfg;
  cfg.max_region_lines = 4;
  StreamRig rig(cfg);
  rig.mem.tick(0);
  rig.request_run(0x1000, 9, 0);  // 9 consecutive lines, cap 4
  // Cap chaining stores {0x1000,4} and {0x10C0,4}; the tail stays open.
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 4u);
  EXPECT_EQ(rig.stream.recorded_region_lines(0x10C0), 4u);
  EXPECT_EQ(rig.stream.regions_recorded.value(), 2u);
}

// --- MANA -------------------------------------------------------------------

struct ManaRig {
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  ManaPrefetcher mana;

  explicit ManaRig(const ManaConfig& cfg = {})
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        mana(cfg, {}, caches, mem) {}

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      mana.tick(t);
    }
  }

  /// Feeds a consecutive run of @p lines starting at @p start.
  void request_run(Addr start, int lines, Cycle now) {
    for (int i = 0; i < lines; ++i) {
      mana.on_line_request(start + static_cast<Addr>(i) * 64, now);
    }
  }
};

TEST(Mana, RecordsARegionWithItsFootprintOnDiscontinuity) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);  // trigger 0x1000, footprint +1,+2
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0u)
      << "region still open";
  rig.mana.on_line_request(0x8000, 0);  // discontinuity finalizes it
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b11u);
  EXPECT_EQ(rig.mana.records_created.value(), 1u);
  EXPECT_EQ(rig.mana.prefetches(), 0u)
      << "recording alone must not prefetch";
}

TEST(Mana, FootprintIsABitmapNotARunLength) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.mana.on_line_request(0x1000, 0);
  rig.mana.on_line_request(0x1080, 0);  // +2 lines -> bit 1
  rig.mana.on_line_request(0x1100, 0);  // +4 lines -> bit 3
  rig.mana.on_line_request(0x8000, 0);  // finalize
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b1010u)
      << "only the touched lines are in the footprint";
}

TEST(Mana, ReplaysTheFootprintOnTriggerReencounter) {
  ManaRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.mana.on_line_request(0x8000, 0);  // record {0x1000, footprint 0b11}

  rig.mana.on_line_request(0x1000, 1);  // trigger re-encountered
  EXPECT_EQ(rig.mana.record_replays.value(), 1u);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.mana.probe(0x1040).present);
  EXPECT_TRUE(rig.mana.probe(0x1080).present);
  EXPECT_FALSE(rig.mana.probe(0x10C0).present) << "footprint is 2 lines";
  EXPECT_EQ(rig.mana.prefetches(), 2u);
}

TEST(Mana, ChainReplayRunsAheadAcrossDiscontinuities) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);   // region A
  rig.request_run(0x8000, 2, 0);   // finalizes A, opens region B
  rig.mana.on_line_request(0x20000, 0);  // finalizes B, chains A -> B
  EXPECT_EQ(rig.mana.records_created.value(), 2u);

  rig.mana.on_line_request(0x1000, 1);
  EXPECT_EQ(rig.mana.record_replays.value(), 1u);
  EXPECT_EQ(rig.mana.chain_replays.value(), 1u)
      << "the successor record replays ahead of fetch";
  rig.run_cycles(1, 60);
  EXPECT_TRUE(rig.mana.probe(0x1040).present);
  EXPECT_TRUE(rig.mana.probe(0x1080).present);
  EXPECT_TRUE(rig.mana.probe(0x8000).present)
      << "the chained trigger itself is prestaged";
  EXPECT_TRUE(rig.mana.probe(0x8040).present);
  EXPECT_EQ(rig.mana.prefetches(), 4u);
}

TEST(Mana, HobpEvictionInvalidatesDependentRecords) {
  ManaConfig cfg;
  cfg.hobpt_entries = 1;  // every new pattern evicts the previous one
  ManaRig rig(cfg);
  rig.mem.tick(0);
  rig.request_run(0x1000, 2, 0);
  rig.mana.on_line_request(0x100000, 0);  // record A (pattern of 0x1000)
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b1u);
  rig.mana.on_line_request(0x100040, 0);
  rig.mana.on_line_request(0x200000, 0);  // record B evicts A's pattern
  EXPECT_EQ(rig.mana.hobp_invalidations.value(), 1u);
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0u)
      << "records lose their trigger with the evicted pattern";
  EXPECT_EQ(rig.mana.recorded_footprint(0x100000), 0b1u);
}

TEST(Mana, RecoveryAbandonsTheOpenRegionAndBreaksTheChain) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.mana.on_line_request(0x8000, 0);  // {0x1000, 0b11} recorded
  rig.request_run(0x2000, 2, 1);        // open wrong-path region
  rig.mana.on_recovery(2);
  rig.request_run(0xA000, 2, 3);        // post-recovery region B
  rig.mana.on_line_request(0x20000, 4); // finalizes B, NOT chained to A
  EXPECT_EQ(rig.mana.recorded_footprint(0x2000), 0u)
      << "recovery must drop the in-flight region";
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b11u)
      << "recorded regions survive recovery";
  EXPECT_EQ(rig.mana.recorded_footprint(0xA000), 0b1u);

  rig.mana.on_line_request(0x1000, 10);  // replay A: no successor
  EXPECT_EQ(rig.mana.record_replays.value(), 1u);
  EXPECT_EQ(rig.mana.chain_replays.value(), 0u)
      << "recovery breaks the successor chain at the squash point";
}

TEST(Mana, ConsumePromotesAndFrees) {
  ManaRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.tick(0);
  rig.request_run(0x1000, 2, 0);
  rig.mana.on_line_request(0x8000, 0);
  rig.mana.on_line_request(0x1000, 1);
  rig.run_cycles(1, 30);
  ASSERT_TRUE(rig.mana.probe(0x1040).present);
  rig.mana.on_fetch_from_pb(0x1040, 31);
  EXPECT_FALSE(rig.mana.probe(0x1040).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x1040));
}

// --- program-map traversal --------------------------------------------------

struct ProgramMapRig {
  frontend::FetchTargetQueue ftq{8, 64};
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  ProgramMapPrefetcher pm;

  explicit ProgramMapRig(const ProgramMapConfig& cfg = {})
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        pm(cfg, {}, ftq, caches, mem) {}

  /// An oracle-verified block, as a retired control-flow edge source.
  void push_block(Addr start, std::uint32_t len = 8) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 0;
    b.wrong_from = len;
    ftq.push_block(b);
  }

  /// A block whose tail ran down the wrong path.
  void push_partial(Addr start, std::uint32_t len, std::uint32_t wrong_from) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 0;
    b.wrong_from = wrong_from;
    ftq.push_block(b);
  }

  /// A block fetched entirely down the wrong path.
  void push_wrong(Addr start, std::uint32_t len = 8) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.wrong_from = 0;  // oracle_base_seq stays kNoSeq: fully wrong
    ftq.push_block(b);
  }

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      pm.tick(t);
    }
  }
};

TEST(ProgramMap, RecordsConsecutiveRetiredBlocksAsEdges) {
  ProgramMapRig rig;
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 1u);
  EXPECT_EQ(rig.pm.nodes_recorded.value(), 1u);
  EXPECT_EQ(rig.pm.prefetches(), 0u)
      << "the frontier block is not mapped yet: nothing to traverse";
}

TEST(ProgramMap, WrongPathBlocksNeverEnterTheMap) {
  ProgramMapRig rig;
  rig.push_partial(0x1000, 8, 4);  // wrong-path suffix: not retired
  rig.push_block(0x8000);
  rig.push_wrong(0xF000);          // fully wrong successor
  rig.mem.tick(0);
  rig.pm.tick(0);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 0u)
      << "a block with a wrong-path suffix must not be recorded";
  EXPECT_EQ(rig.pm.recorded_edges(0x8000), 0u)
      << "an edge into a fully wrong block must not be recorded";
  EXPECT_EQ(rig.pm.nodes_recorded.value(), 0u);
}

TEST(ProgramMap, TraversalPrestagesTheSuccessorChain) {
  ProgramMapRig rig;
  rig.push_block(0x1000, 8);
  rig.push_block(0x8000, 32);  // 128 bytes: spans 2 lines
  rig.push_block(0xA000, 8);
  rig.mem.tick(0);
  rig.pm.tick(0);  // records 0x1000 -> 0x8000 and 0x8000 -> 0xA000

  rig.push_block(0x1000, 8);  // frontier returns to the mapped node
  rig.run_cycles(1, 60);
  EXPECT_GE(rig.pm.traversals.value(), 1u);
  EXPECT_TRUE(rig.pm.probe(0x8000).present);
  EXPECT_TRUE(rig.pm.probe(0x8040).present)
      << "the successor block's whole span is prestaged";
  EXPECT_TRUE(rig.pm.probe(0xA000).present)
      << "the walk continues to the successor's successor";
}

TEST(ProgramMap, RepeatedEdgesStrengthenInsteadOfDuplicating) {
  ProgramMapRig rig;
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  rig.ftq.flush();
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(1);
  rig.pm.tick(1);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 1u) << "same edge, one slot";
  EXPECT_EQ(rig.pm.edges_strengthened.value(), 1u);
}

TEST(ProgramMap, TraversalFollowsTheHighestConfidenceEdge) {
  ProgramMapRig rig;
  const auto observe = [&rig](Addr from, Addr to, Cycle now) {
    rig.ftq.flush();
    rig.push_block(from);
    rig.push_block(to);
    rig.mem.tick(now);
    rig.pm.tick(now);
  };
  observe(0x1000, 0x8000, 0);  // A -> B, confidence 1
  observe(0x1000, 0x9000, 1);  // A -> C, confidence 1
  observe(0x1000, 0x8000, 2);  // A -> B, confidence 2
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 2u);

  rig.ftq.flush();
  rig.push_block(0x1000);  // frontier at the mapped node
  rig.run_cycles(3, 60);
  EXPECT_TRUE(rig.pm.probe(0x8000).present)
      << "the stronger successor is the one walked";
  EXPECT_FALSE(rig.pm.probe(0x9000).present);
  EXPECT_EQ(rig.pm.prefetches(), 1u);
}

TEST(ProgramMap, BackwardEdgesAreClassified) {
  ProgramMapRig rig;
  rig.push_block(0x8000);
  rig.push_block(0x1000);  // return/loop: target below the source
  rig.mem.tick(0);
  rig.pm.tick(0);
  EXPECT_EQ(rig.pm.recorded_edges(0x8000), 1u);
  EXPECT_EQ(rig.pm.backward_edges.value(), 1u);
}

TEST(ProgramMap, RecoveryResetsTheFrontierButKeepsTheMap) {
  ProgramMapRig rig;
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  rig.ftq.flush();  // the CPU flushes the FTQ on recovery
  rig.pm.on_recovery(1);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 1u)
      << "the map records retired control flow and survives recovery";

  rig.push_block(0x1000);
  rig.run_cycles(1, 60);
  EXPECT_EQ(rig.pm.traversals.value(), 1u);
  EXPECT_TRUE(rig.pm.probe(0x8000).present);
}

TEST(ProgramMap, ConsumePromotesAndFrees) {
  ProgramMapRig rig;
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  rig.push_block(0x1000);
  rig.run_cycles(1, 60);
  ASSERT_TRUE(rig.pm.probe(0x8000).present);
  rig.pm.on_fetch_from_pb(0x8000, 61);
  EXPECT_FALSE(rig.pm.probe(0x8000).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x8000));
}

// --- whole-machine pin for the buffered schemes -----------------------------

/// FNV-1a over the eight little-endian bytes of @p v.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

/// Mixes every simulated RunResult statistic (the set the cycle-skip
/// equivalence test compares) and the scheme's own counters into @p h.
void digest_run(std::uint64_t& h, const cpu::Cpu& machine,
                const cpu::RunResult& r) {
  fnv_mix(h, r.instructions);
  fnv_mix(h, r.cycles);
  fnv_mix(h, std::bit_cast<std::uint64_t>(r.ipc));
  for (int i = 0; i < kNumFetchSources; ++i) {
    fnv_mix(h, r.fetch_sources.count(static_cast<FetchSource>(i)));
    fnv_mix(h, r.prefetch_sources.count(static_cast<FetchSource>(i)));
  }
  fnv_mix(h, r.lines_fetched);
  fnv_mix(h, r.recoveries);
  fnv_mix(h, r.blocks_predicted);
  fnv_mix(h, std::bit_cast<std::uint64_t>(r.mispredicts_per_kilo_instr));
  fnv_mix(h, r.l2_hits);
  fnv_mix(h, r.l2_misses);
  fnv_mix(h, r.dcache_misses);
  fnv_mix(h, r.prefetches_issued);

  const IPrefetcher& p = machine.prefetcher();
  if (const auto* fdp = dynamic_cast<const FdpPrefetcher*>(&p)) {
    fnv_mix(h, fdp->requests_filtered.value());
    fnv_mix(h, fdp->pb_occupancy_stalls.value());
  } else if (const auto* s = dynamic_cast<const StreamPrefetcher*>(&p)) {
    fnv_mix(h, s->regions_recorded.value());
    fnv_mix(h, s->region_replays.value());
  } else if (const auto* m = dynamic_cast<const ManaPrefetcher*>(&p)) {
    fnv_mix(h, m->records_created.value());
    fnv_mix(h, m->record_replays.value());
    fnv_mix(h, m->chain_replays.value());
    fnv_mix(h, m->hobp_invalidations.value());
  } else if (const auto* pm = dynamic_cast<const ProgramMapPrefetcher*>(&p)) {
    fnv_mix(h, pm->nodes_recorded.value());
    fnv_mix(h, pm->edges_strengthened.value());
    fnv_mix(h, pm->traversals.value());
    fnv_mix(h, pm->backward_edges.value());
  } else {
    EXPECT_NE(dynamic_cast<const NextLinePrefetcher*>(&p), nullptr)
        << "unexpected scheme " << machine.config().prefetcher;
  }
}

TEST(BufferedSchemes, MatchParentPin) {
  // Whole runs long enough to fill the buffer (LRU reclaim, FDP's
  // consume while a transfer is in flight, stalls on a full buffer) and
  // small L1s so prefetches come from every level. Each literal digests
  // six runs (L1 1K and 4K x gcc, eon, mcf at 50k instructions, 45 nm).
  // The golden pins check IPC and fetch sources only; this one also
  // pins prefetch sources and every counter a buffered scheme keeps.
  struct Pin {
    const char* preset;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"fdp", 0xbbbbb51b1307c952ULL},
      {"fdp-l0", 0x9301ecc62cdc4bd7ULL},
      {"fdp-l0-pb16", 0x8d37870e42a63c10ULL},
      {"next-line", 0x731b33b5d14d8e24ULL},
      // With an L0, next-line counts an L0-only successor as an L0
      // prefetch source; the parent counted it as L1.
      {"next-line-l0", 0x5cb6cf31fb04e16bULL},
      {"next-line-l0-pb16", 0x99b16016be94ae5dULL},
      {"stream", 0x5918f547626728faULL},
      {"stream-l0", 0x138ddc14f41d91ddULL},
      {"stream-l0-pb16", 0x6f75cd27b15bac2bULL},
      {"mana", 0x0e70633c488f7703ULL},
      {"mana-l0", 0x62f5eb0765d8e43aULL},
      {"mana-l0-pb16", 0xa9c77d2920691448ULL},
      {"program-map", 0xe328ffae3869a1f2ULL},
      {"program-map-l0", 0xcf5e8b591750574bULL},
      {"program-map-l0-pb16", 0xdc85401f78c4d6c5ULL},
  };
  for (const Pin& pin : pins) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t l1 : {1024U, 4096U}) {
      for (const char* bench : {"gcc", "eon", "mcf"}) {
        cpu::MachineConfig cfg =
            sim::make_config(pin.preset, cacti::TechNode::um045, l1);
        cfg.benchmark = bench;
        cfg.max_instructions = 50000;
        cpu::Cpu machine(cfg);
        const cpu::RunResult r = machine.run();
        digest_run(h, machine, r);
      }
    }
    EXPECT_EQ(h, pin.digest)
        << pin.preset << ": 0x" << std::hex << h << "ULL";
  }
}

// --- registry ---------------------------------------------------------------

TEST(Registry, EveryBuiltinSchemeIsRegistered) {
  auto& registry = PrefetcherRegistry::instance();
  for (const char* name : {"base", "fdp", "clgp", "next-line", "stream",
                           "mana", "program-map"}) {
    const PrefetcherInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->label.empty());
    EXPECT_TRUE(static_cast<bool>(info->build));
  }
  EXPECT_EQ(registry.find("frobnicate"), nullptr);
}

TEST(Registry, BuildsEveryRegisteredSchemeFromAMachineConfig) {
  auto caches = FdpRig::make_caches(false);
  auto mem = FdpRig::make_mem();
  for (const std::string& name : PrefetcherRegistry::instance().names()) {
    cpu::MachineConfig cfg;
    cfg.prefetcher = name;
    const cpu::DerivedTimings timings = cpu::DerivedTimings::from(cfg);
    PrefetcherBuild b = build_prefetcher(
        {.config = cfg, .timings = timings, .caches = caches, .mem = mem});
    ASSERT_NE(b.queue, nullptr) << name;
    ASSERT_NE(b.prefetcher, nullptr) << name;
    // Contract smoke: a fresh prefetcher stages nothing and survives its
    // whole interface.
    EXPECT_FALSE(b.prefetcher->probe(0x1000).present) << name;
    b.prefetcher->tick(0);
    b.prefetcher->on_recovery(1);
    EXPECT_EQ(b.prefetcher->prefetches(), 0u) << name;
  }
}

TEST(Registry, UnknownNameThrowsNamingTheRegisteredSchemes) {
  auto caches = FdpRig::make_caches(false);
  auto mem = FdpRig::make_mem();
  cpu::MachineConfig cfg;
  cfg.prefetcher = "no-such-scheme";
  const cpu::DerivedTimings timings = cpu::DerivedTimings::from(cfg);
  try {
    (void)build_prefetcher(
        {.config = cfg, .timings = timings, .caches = caches, .mem = mem});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scheme"), std::string::npos) << what;
    for (const char* name : {"base", "fdp", "clgp", "next-line", "stream",
                             "mana", "program-map"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(Registry, OutOfTreeRegistrationIsOpen) {
  // The whole point of the registry: a scheme can be added without
  // touching the cpu/sim/cli layers. Register one and build it.
  auto& registry = PrefetcherRegistry::instance();
  if (registry.find("test-null") == nullptr) {
    registry.add({.name = "test-null",
                  .label = "TestNull",
                  .description = "test-only scheme",
                  .build = [](const BuildInputs& in) {
                    PrefetcherBuild b;
                    b.queue = std::make_unique<frontend::FetchTargetQueue>(
                        kQueueBlocks, in.config.line_bytes);
                    b.prefetcher = std::make_unique<NonePrefetcher>();
                    return b;
                  }});
  }
  auto caches = FdpRig::make_caches(false);
  auto mem = FdpRig::make_mem();
  cpu::MachineConfig cfg;
  cfg.prefetcher = "test-null";
  const cpu::DerivedTimings timings = cpu::DerivedTimings::from(cfg);
  PrefetcherBuild b = build_prefetcher(
      {.config = cfg, .timings = timings, .caches = caches, .mem = mem});
  EXPECT_NE(b.prefetcher, nullptr);
}

TEST(Registry, DuplicateRegistrationIsAHardError) {
  // Last-wins would let a typo'd registration silently shadow a real
  // scheme; a colliding name must fail loudly, naming the collision.
  auto& registry = PrefetcherRegistry::instance();
  const auto info = [] {
    PrefetcherInfo i;
    i.name = "dup-probe";
    i.label = "DupProbe";
    i.description = "duplicate-registration regression probe";
    i.build = [](const BuildInputs& in) {
      PrefetcherBuild b;
      b.queue = std::make_unique<frontend::FetchTargetQueue>(
          kQueueBlocks, in.config.line_bytes);
      b.prefetcher = std::make_unique<NonePrefetcher>();
      return b;
    };
    return i;
  }();
  if (registry.find("dup-probe") == nullptr) registry.add(info);
  try {
    registry.add(info);
    FAIL() << "expected SimError on duplicate registration";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("dup-probe"), std::string::npos)
        << e.what();
  }
  EXPECT_NE(registry.find("dup-probe"), nullptr)
      << "the original registration survives the rejected duplicate";
}

TEST(Registry, StorageBudgetsAreAccountedPerScheme) {
  // Every real prefetcher carries CACTI-backed storage accounting; the
  // no-prefetcher baseline is storage-free by definition.
  for (const char* name : {"fdp", "clgp", "next-line", "stream", "mana",
                           "program-map"}) {
    cpu::MachineConfig cfg;
    cfg.prefetcher = name;
    EXPECT_GT(probe_storage_bits(cfg), 0u) << name;
  }
  cpu::MachineConfig base;
  base.prefetcher = "base";
  EXPECT_EQ(probe_storage_bits(base), 0u);
}

}  // namespace
}  // namespace prestage::prefetch
