// Unit tests for the fetch engine's timing discipline: parallel probing,
// streaming vs blocking overlap, demand misses and flush semantics.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/clgp.hpp"
#include "frontend/fetch_engine.hpp"
#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/prefetcher.hpp"

namespace prestage::frontend {
namespace {

/// Records every delivered instruction with its arrival cycle.
struct RecordingSink final : IFetchSink {
  struct Got {
    FetchedInst inst;
    Cycle at;
  };
  std::vector<Got> got;
  Cycle now = 0;
  bool open = true;

  [[nodiscard]] bool can_accept() const override { return open; }
  void accept(const FetchedInst& inst) override {
    got.push_back({inst, now});
  }
};

struct Rig {
  FetchTargetQueue ftq{8, 64};
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  prefetch::NonePrefetcher none;
  FetchEngine engine;
  RecordingSink sink;

  explicit Rig(int l1_latency = 4, bool pipelined = false,
               bool with_l0 = false)
      : caches(make_caches(l1_latency, pipelined, with_l0)),
        mem(make_mem()),
        engine(FetchEngineConfig{}, ftq, caches, mem, none) {}

  static mem::IFetchCaches make_caches(int lat, bool pipe, bool l0) {
    mem::IFetchCachesConfig c;
    c.l1_size_bytes = 4096;
    c.l1_latency = lat;
    c.l1_pipelined = pipe;
    c.has_l0 = l0;
    return mem::IFetchCaches(c);
  }
  static mem::MemSystem make_mem() {
    mem::MemSystemConfig c;
    c.l2_latency = 10;
    c.mem_latency = 50;
    return mem::MemSystem(c);
  }

  void push_block(Addr start, std::uint32_t len) {
    FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 1000;
    b.wrong_from = len;
    ftq.push_block(b);
  }

  void run(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      sink.now = t;
      mem.tick(t);
      engine.tick(t, sink);
    }
  }
};

TEST(FetchEngine, L1HitDeliversAfterLatency) {
  Rig rig(/*l1_latency=*/4);
  rig.caches.fill_demand(0x1000);
  rig.push_block(0x1000, 8);
  rig.run(0, 10);
  ASSERT_EQ(rig.sink.got.size(), 8u);
  // Initiated at cycle 0, ready at 4: first instructions arrive then.
  EXPECT_EQ(rig.sink.got.front().at, 4u);
  EXPECT_EQ(rig.sink.got.front().inst.pc, 0x1000u);
  EXPECT_EQ(rig.sink.got.front().inst.oracle_seq, 1000u);
  EXPECT_EQ(rig.sink.got.front().inst.source, FetchSource::L1);
  // Four-wide delivery: 8 instructions over two cycles.
  EXPECT_EQ(rig.sink.got.back().at, 5u);
}

TEST(FetchEngine, BlockingL1SerialisesConsecutiveLines) {
  Rig rig(/*l1_latency=*/4, /*pipelined=*/false);
  rig.caches.fill_demand(0x1000);
  rig.caches.fill_demand(0x1040);
  rig.push_block(0x1000, 32);  // two full lines
  rig.run(0, 30);
  ASSERT_EQ(rig.sink.got.size(), 32u);
  // Line 0: access 0..4, delivery cycles 4..7. The next blocking access
  // starts the cycle the buffer drains (initiate runs after deliver):
  // issues at 7, ready at 11 — 3 dead cycles vs the pipelined case.
  EXPECT_EQ(rig.sink.got[16].at, 11u);
}

TEST(FetchEngine, PipelinedL1OverlapsConsecutiveLines) {
  Rig rig(/*l1_latency=*/4, /*pipelined=*/true);
  rig.caches.fill_demand(0x1000);
  rig.caches.fill_demand(0x1040);
  rig.push_block(0x1000, 32);
  rig.run(0, 30);
  ASSERT_EQ(rig.sink.got.size(), 32u);
  // Second access issues at cycle 1, ready at 5; line 0 drains at 7, so
  // line 1 starts delivering at 8 — gapless.
  EXPECT_EQ(rig.sink.got[16].at, 8u);
  EXPECT_EQ(rig.sink.got[31].at, 11u);
}

TEST(FetchEngine, L0HitIsOneCycleAndStreams) {
  Rig rig(/*l1_latency=*/4, /*pipelined=*/false, /*with_l0=*/true);
  rig.caches.fill_demand(0x1000);  // fills L1 + L0
  rig.push_block(0x1000, 8);
  rig.run(0, 10);
  ASSERT_EQ(rig.sink.got.size(), 8u);
  EXPECT_EQ(rig.sink.got.front().at, 1u);
  EXPECT_EQ(rig.sink.got.front().inst.source, FetchSource::L0);
}

TEST(FetchEngine, DemandMissGoesToL2AndFillsEmergencyPath) {
  Rig rig(4, false, /*with_l0=*/true);
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000, 4);
  rig.run(0, 20);
  ASSERT_EQ(rig.sink.got.size(), 4u);
  EXPECT_EQ(rig.sink.got.front().inst.source, FetchSource::L2);
  // Granted at cycle 1, L2 latency 10 -> ready 11.
  EXPECT_EQ(rig.sink.got.front().at, 11u);
  EXPECT_TRUE(rig.caches.probe_l1(0x1000));
  EXPECT_TRUE(rig.caches.probe_l0(0x1000));
}

TEST(FetchEngine, L1HitRefillsTheFilterL0) {
  Rig rig(4, false, /*with_l0=*/true);
  rig.caches.l1().insert(0x1000);  // L1-only
  rig.push_block(0x1000, 4);
  rig.run(0, 10);
  EXPECT_TRUE(rig.caches.probe_l0(0x1000));
}

TEST(FetchEngine, SinkBackpressureStallsDelivery) {
  Rig rig(4);
  rig.caches.fill_demand(0x1000);
  rig.push_block(0x1000, 8);
  rig.sink.open = false;
  rig.run(0, 10);
  EXPECT_TRUE(rig.sink.got.empty());
  rig.sink.open = true;
  rig.run(11, 20);
  EXPECT_EQ(rig.sink.got.size(), 8u);
}

TEST(FetchEngine, FlushSquashesPendingAndBuffered) {
  Rig rig(4);
  rig.caches.fill_demand(0x1000);
  rig.push_block(0x1000, 16);
  rig.run(0, 2);  // access in flight, nothing delivered yet
  rig.ftq.flush();
  rig.engine.flush();
  rig.run(3, 20);
  EXPECT_TRUE(rig.sink.got.empty());
  EXPECT_TRUE(rig.engine.idle());
}

TEST(FetchEngine, SquashedDemandMissStillFillsCaches) {
  // The SRAM write happens regardless of the squash; only the waking of
  // the dead fetch is suppressed.
  Rig rig(4);
  rig.mem.l2().insert(0x2000);
  rig.push_block(0x2000, 4);
  rig.run(0, 2);
  rig.ftq.flush();
  rig.engine.flush();
  rig.run(3, 30);
  EXPECT_TRUE(rig.sink.got.empty());
  EXPECT_TRUE(rig.caches.probe_l1(0x2000));
}

TEST(FetchEngine, FetchSourceAccountingPerLine) {
  Rig rig(4);
  rig.caches.fill_demand(0x1000);
  rig.mem.l2().insert(0x2000);
  rig.push_block(0x1000, 8);   // L1 hit
  rig.push_block(0x2000, 8);   // L2 miss
  rig.run(0, 40);
  EXPECT_EQ(rig.engine.fetch_sources.count(FetchSource::L1), 1u);
  EXPECT_EQ(rig.engine.fetch_sources.count(FetchSource::L2), 1u);
  EXPECT_EQ(rig.engine.lines_fetched.value(), 2u);
  EXPECT_EQ(rig.engine.instrs_delivered.value(), 16u);
}

TEST(FetchEngine, WrongPathFlagsPropagateToDeliveredInstructions) {
  Rig rig(4);
  rig.caches.fill_demand(0x1000);
  FetchBlock b;
  b.start = 0x1000;
  b.length = 8;
  b.oracle_base_seq = 500;
  b.wrong_from = 5;
  b.culprit_index = 4;
  rig.ftq.push_block(b);
  rig.run(0, 10);
  ASSERT_EQ(rig.sink.got.size(), 8u);
  EXPECT_FALSE(rig.sink.got[3].inst.wrong_path);
  EXPECT_TRUE(rig.sink.got[4].inst.culprit);
  EXPECT_FALSE(rig.sink.got[4].inst.wrong_path);  // culprit is correct path
  EXPECT_TRUE(rig.sink.got[5].inst.wrong_path);
  EXPECT_EQ(rig.sink.got[5].inst.oracle_seq, kNoSeq);
}

// CLGP-backed engine: prestage-buffer hits and in-flight waits.
struct ClgpEngineRig {
  CacheLineTargetQueue cltq{8, 64};
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  core::ClgpPrestager clgp;
  FetchEngine engine;
  RecordingSink sink;

  ClgpEngineRig()
      : caches(Rig::make_caches(4, false, false)),
        mem(Rig::make_mem()),
        clgp(core::ClgpConfig{}, cltq, caches, mem),
        engine(FetchEngineConfig{}, cltq, caches, mem, clgp) {}

  void push_block(Addr start, std::uint32_t len) {
    FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 0;
    b.wrong_from = len;
    cltq.push_block(b);
  }

  void run(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      sink.now = t;
      mem.tick(t);
      engine.tick(t, sink);
      clgp.tick(t);
    }
  }
};

TEST(FetchEngine, PrestageHitServesAtBufferLatency) {
  ClgpEngineRig rig;
  rig.caches.fill_demand(0x1000);
  rig.push_block(0x1000, 8);
  // Let the scan stage the line first (fetch races it; give it a cycle).
  rig.mem.tick(0);
  rig.clgp.tick(0);
  rig.run(1, 20);
  ASSERT_EQ(rig.sink.got.size(), 8u);
  EXPECT_EQ(rig.sink.got.front().inst.source, FetchSource::PreBuffer);
  // Transfer from L1 completes at ~4; PB read adds one cycle.
  EXPECT_LE(rig.sink.got.front().at, 6u);
}

TEST(FetchEngine, WaitsOnInFlightPrestageFill) {
  ClgpEngineRig rig;
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000, 4);
  rig.mem.tick(0);
  rig.clgp.tick(0);  // prefetch to L2 in flight, arrival unknown
  rig.run(1, 30);
  ASSERT_EQ(rig.sink.got.size(), 4u);
  EXPECT_EQ(rig.sink.got.front().inst.source, FetchSource::PreBuffer);
  // L2 fill granted ~1, ready ~11, PB read +1 => ~12.
  EXPECT_GE(rig.sink.got.front().at, 11u);
  EXPECT_LE(rig.sink.got.front().at, 14u);
}

// --- forecast/tick agreement ---------------------------------------------
//
// The event-horizon skip folds every cycle idle_plan() calls idle into
// one count of its per_cycle counter. So on such a cycle tick() must
// change nothing else: no delivery, no issue, no queue movement, and no
// statistic but that counter, which rises by exactly one.

std::vector<const Counter*> counters(const FetchEngine& e) {
  return {&e.lines_fetched, &e.instrs_delivered, &e.stall_cycles_no_request,
          &e.stall_cycles_structural};
}

/// Everything a fetch-engine tick can change, as seen from outside: the
/// counters (in counters() order), the fetch sources, the deliveries,
/// the queue head, and the prestage buffer's consumers counters.
std::vector<std::uint64_t> fetch_state(const FetchEngine& e,
                                       const IFetchQueue& q,
                                       const RecordingSink& sink,
                                       const core::ClgpPrestager* clgp) {
  std::vector<std::uint64_t> st;
  for (const Counter* c : counters(e)) st.push_back(c->value());
  for (int i = 0; i < kNumFetchSources; ++i) {
    st.push_back(e.fetch_sources.count(static_cast<FetchSource>(i)));
  }
  const auto head = q.peek_line();
  st.insert(st.end(), {sink.got.size(), q.blocks_held(),
                       head ? head->first_pc : kNoAddr,
                       head ? head->count : 0, e.idle() ? 1U : 0U});
  if (clgp != nullptr) {
    for (const auto& entry : clgp->buffer().entries()) {
      st.push_back(entry.consumers);
    }
  }
  return st;
}

TEST(FetchEngineProperty, IdleForecastFoldsIntoOneStallCount) {
  std::uint64_t structural = 0;
  std::uint64_t no_request = 0;
  for (int variant = 0; variant < 8; ++variant) {
    const bool with_clgp = (variant & 1) != 0;
    const bool pipelined = (variant & 2) != 0;
    const bool with_l0 = (variant & 4) != 0;
    mem::IFetchCaches caches = Rig::make_caches(4, pipelined, with_l0);
    mem::MemSystem mem = Rig::make_mem();
    FetchTargetQueue ftq{8, 64};
    CacheLineTargetQueue cltq{8, 64};
    core::ClgpConfig clgp_cfg;
    clgp_cfg.entries = 4;
    clgp_cfg.pb_latency = 2;
    clgp_cfg.pb_pipelined = pipelined;
    core::ClgpPrestager clgp(clgp_cfg, cltq, caches, mem);
    prefetch::NonePrefetcher none;
    IFetchQueue& queue = with_clgp ? static_cast<IFetchQueue&>(cltq) : ftq;
    prefetch::IPrefetcher& prefetcher =
        with_clgp ? static_cast<prefetch::IPrefetcher&>(clgp) : none;
    FetchEngine engine(FetchEngineConfig{}, queue, caches, mem, prefetcher);
    RecordingSink sink;
    const core::ClgpPrestager* staged = with_clgp ? &clgp : nullptr;

    Rng rng(1000 + static_cast<std::uint64_t>(variant));
    for (Cycle t = 0; t < 4000; ++t) {
      if (queue.can_accept_block() && rng.chance(0.3)) {
        FetchBlock b;
        b.start = 0x4000 + 0x40 * rng.below(24) + 4 * rng.below(16);
        b.length = 1 + static_cast<std::uint32_t>(rng.below(24));
        b.oracle_base_seq = t;
        b.wrong_from = b.length;
        queue.push_block(b);
      }
      if (rng.chance(0.02)) caches.fill_demand(0x4000 + 0x40 * rng.below(24));
      if (rng.chance(0.02)) mem.l2().insert(0x4000 + 0x40 * rng.below(24));
      if (rng.chance(0.1)) sink.open = !sink.open;
      if (rng.chance(0.01)) {  // a misprediction recovery
        queue.flush();
        engine.flush();
        prefetcher.on_recovery(t);
      }

      sink.now = t;
      mem.tick(t);
      const IdlePlan plan = engine.idle_plan(t, sink);
      const auto before = fetch_state(engine, queue, sink, staged);
      engine.tick(t, sink);
      if (plan.next_event > t) {
        auto expected = before;
        const auto named = counters(engine);
        for (std::size_t i = 0; i < named.size(); ++i) {
          if (named[i] == plan.per_cycle) ++expected[i];
        }
        structural += plan.per_cycle == &engine.stall_cycles_structural;
        no_request += plan.per_cycle == &engine.stall_cycles_no_request;
        ASSERT_EQ(fetch_state(engine, queue, sink, staged), expected)
            << "variant " << variant << " cycle " << t;
      }
      prefetcher.tick(t);
    }
  }
  // Both kinds of stall were folded.
  EXPECT_GT(structural, 1000u);
  EXPECT_GT(no_request, 1000u);
}

}  // namespace
}  // namespace prestage::frontend
