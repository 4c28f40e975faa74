// Field-by-field equality of two runs' statistics, for the tests that
// demand bit-identical results: cycle skip on or off, serial or
// parallel, recorded or replayed, and store round trips. It walks the
// statistic tables beside cpu::RunResult, so a newly listed statistic is
// compared without an edit here.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "cpu/cpu.hpp"

namespace prestage {

/// Expects every statistic of @p a and @p b to be identical, sampling
/// estimates included. Doubles are compared exactly: the paths under
/// test repeat the same arithmetic, so not even the last bit may move.
/// Host telemetry (host_seconds, minstr_per_sec, cycles_skipped) is
/// exempt by design.
inline void expect_same_stats(const cpu::RunResult& a,
                              const cpu::RunResult& b,
                              const std::string& what = "") {
  EXPECT_EQ(a.benchmark, b.benchmark) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.ipc, b.ipc) << what;
  EXPECT_EQ(a.mispredicts_per_kilo_instr, b.mispredicts_per_kilo_instr)
      << what;
  for (const auto& c : cpu::kRunCounts) {
    EXPECT_EQ(a.*c.member, b.*c.member) << what << ' ' << c.key;
  }
  for (const auto& src : cpu::kRunSources) {
    for (int i = 0; i < kNumFetchSources; ++i) {
      const auto s = static_cast<FetchSource>(i);
      EXPECT_EQ((a.*src.member).count(s), (b.*src.member).count(s))
          << what << ' ' << src.key << ' ' << to_string(s);
    }
  }
  EXPECT_EQ(a.sampled, b.sampled) << what;
  EXPECT_EQ(a.ipc_error, b.ipc_error) << what;
  for (const auto& c : cpu::kSampleCounts) {
    EXPECT_EQ(a.*c.member, b.*c.member) << what << ' ' << c.key;
  }
}

}  // namespace prestage
