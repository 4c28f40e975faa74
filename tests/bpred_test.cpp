// Unit tests for the branch-prediction substrate.
#include <gtest/gtest.h>

#include "bpred/bimodal.hpp"
#include "bpred/ras.hpp"
#include "bpred/stream.hpp"
#include "bpred/stream_predictor.hpp"

namespace prestage::bpred {
namespace {

TEST(Stream, Geometry) {
  const Stream s{0x1000, 4, 0x2000};
  EXPECT_EQ(s.end(), 0x1010u);
  EXPECT_EQ(s.last_pc(), 0x100Cu);
}

TEST(Ras, PushPopLifo) {
  ReturnAddressStack ras;
  ras.push(0x100);
  ras.push(0x200);
  EXPECT_EQ(ras.pop(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x100u);
  EXPECT_EQ(ras.pop(), kNoAddr);  // underflow
}

TEST(Ras, OverflowWrapsLosingDeepestEntry) {
  ReturnAddressStack ras;
  for (Addr a = 1; a <= 9; ++a) ras.push(a * 0x10);
  // 8-entry stack: the first push (0x10) was overwritten.
  for (Addr a = 9; a >= 2; --a) EXPECT_EQ(ras.pop(), a * 0x10);
  EXPECT_EQ(ras.pop(), kNoAddr);
}

TEST(Ras, CheckpointRestore) {
  ReturnAddressStack ras;
  ras.push(0x100);
  ras.push(0x200);
  const auto cp = ras.checkpoint();
  ras.push(0x300);
  (void)ras.pop();
  (void)ras.pop();
  ras.restore(cp);
  EXPECT_EQ(ras.height(), 2u);
  EXPECT_EQ(ras.pop(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x100u);
}

StreamPredictorConfig tiny_config() {
  StreamPredictorConfig cfg;
  cfg.l1_entries = 64;
  cfg.l2_entries = 128;
  cfg.l2_assoc = 4;
  return cfg;
}

TEST(StreamPredictor, ColdMissPredictsSequentialMaxStream) {
  StreamPredictor sp(tiny_config());
  const Stream s = sp.predict(0x1000);
  EXPECT_EQ(s.start, 0x1000u);
  EXPECT_EQ(s.length, kMaxStreamInstrs);
  EXPECT_EQ(s.next_start, s.end());
  EXPECT_EQ(sp.table_misses.value(), 1u);
}

TEST(StreamPredictor, LearnsStreamAfterTraining) {
  StreamPredictor sp(tiny_config());
  const Stream actual{0x1000, 12, 0x4000};
  sp.train(actual);
  const Stream pred = sp.predict(0x1000);
  EXPECT_EQ(pred.length, 12u);
  EXPECT_EQ(pred.next_start, 0x4000u);
}

TEST(StreamPredictor, HysteresisResistsSingleDivergence) {
  StreamPredictor sp(tiny_config());
  const Stream stable{0x1000, 12, 0x4000};
  const Stream blip{0x1000, 5, 0x9000};
  sp.train(stable);
  sp.train(stable);
  sp.train(stable);
  sp.train(blip);  // one-off divergence should not flip the entry
  EXPECT_EQ(sp.predict(0x1000).next_start, 0x4000u);
  sp.train(blip);
  sp.train(blip);
  sp.train(blip);  // persistent change eventually wins
  EXPECT_EQ(sp.predict(0x1000).next_start, 0x9000u);
}

TEST(StreamPredictor, PromotionToSecondLevelSurvivesL1Conflict) {
  StreamPredictorConfig cfg = tiny_config();
  StreamPredictor sp(cfg);
  const Stream a{0x1000, 8, 0x2000};
  sp.train(a);
  sp.train(a);  // second sighting promotes into L2
  ASSERT_TRUE(sp.contains(0x1000));
  // Thrash the (direct-mapped) first level with many other streams.
  for (Addr s = 0x100000; s < 0x100000 + 64 * 0x40; s += 0x40) {
    sp.train({s, 4, s + 0x1000});
  }
  // The L2 copy still supplies the prediction.
  EXPECT_EQ(sp.predict(0x1000).next_start, 0x2000u);
}

TEST(StreamPredictor, TrainRejectsDegenerateStreams) {
  StreamPredictor sp(tiny_config());
  EXPECT_THROW(sp.train({0x1000, 0, 0x2000}), SimError);
  EXPECT_THROW(sp.train({0x1000, kMaxStreamInstrs + 1, 0x2000}), SimError);
}

TEST(StreamPredictor, ClearForgetsEverything) {
  StreamPredictor sp(tiny_config());
  sp.train({0x1000, 8, 0x2000});
  sp.clear();
  EXPECT_FALSE(sp.contains(0x1000));
}

TEST(StreamPredictor, ManyStreamsRetainedAtScale) {
  StreamPredictor sp({.l1_entries = 1024, .l2_entries = 6144, .l2_assoc = 4});
  // A working set of 512 streams fits comfortably in 1K+6K entries.
  for (int round = 0; round < 3; ++round) {
    for (Addr i = 0; i < 512; ++i) {
      const Addr start = 0x10000 + i * 0x80;
      sp.train({start, 10, start + 0x40});
    }
  }
  int correct = 0;
  for (Addr i = 0; i < 512; ++i) {
    const Addr start = 0x10000 + i * 0x80;
    correct += (sp.predict(start).next_start == start + 0x40);
  }
  EXPECT_GT(correct, 480);  // > 94% retained
}

TEST(Bimodal, LearnsBias) {
  BimodalPredictor bp(256);
  for (int i = 0; i < 10; ++i) bp.train(0x1000, true);
  EXPECT_TRUE(bp.predict(0x1000));
  for (int i = 0; i < 10; ++i) bp.train(0x1000, false);
  EXPECT_FALSE(bp.predict(0x1000));
}

TEST(Bimodal, HysteresisAbsorbsOneBlip) {
  BimodalPredictor bp(256);
  for (int i = 0; i < 4; ++i) bp.train(0x1000, true);
  bp.train(0x1000, false);
  EXPECT_TRUE(bp.predict(0x1000));
}

}  // namespace
}  // namespace prestage::bpred
