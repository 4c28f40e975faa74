// Stream-at-a-time reads for the trace tests: a source hands out a flat
// record stream through fill(), and these tests check it stream by
// stream.
#pragma once

#include <vector>

#include "workload/trace.hpp"

namespace prestage::workload {

/// The next whole stream of @p src (which must sit at a stream
/// boundary), read through fill().
inline std::vector<DynInst> read_stream(TraceSource& src) {
  return read_streams(src, 1);
}

}  // namespace prestage::workload
