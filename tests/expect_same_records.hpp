// Field-by-field equality of two record sequences, for the tests that
// demand the same trace whatever path produced it: batch sizes, clones,
// replays, span walks and plan snapshots.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/trace.hpp"

namespace prestage::workload {

/// Asserts @p a and @p b hold the same records, every field, in order;
/// @p what labels the first mismatch.
inline void expect_same_records(const std::vector<DynInst>& a,
                                const std::vector<DynInst>& b,
                                const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const DynInst& x = a[i];
    const DynInst& y = b[i];
    const std::string at = what + " record " + std::to_string(i);
    ASSERT_EQ(x.pc, y.pc) << at;
    ASSERT_EQ(x.op, y.op) << at;
    ASSERT_EQ(x.dst, y.dst) << at;
    ASSERT_EQ(x.src1, y.src1) << at;
    ASSERT_EQ(x.src2, y.src2) << at;
    ASSERT_EQ(x.data_addr, y.data_addr) << at;
    ASSERT_EQ(x.next_pc, y.next_pc) << at;
    ASSERT_EQ(x.taken, y.taken) << at;
    ASSERT_EQ(x.ends_stream, y.ends_stream) << at;
    ASSERT_EQ(x.seq, y.seq) << at;
  }
}

}  // namespace prestage::workload
