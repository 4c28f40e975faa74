#include "sample/sliced_source.hpp"

namespace prestage::sample {

workload::StreamChunk SlicedTraceSource::next_stream() {
  workload::StreamChunk chunk = inner_->next_stream();
  for (workload::DynInst& inst : chunk.insts) {
    inst.seq = emitted_++;  // the Oracle's window starts at seq 0
  }
  return chunk;
}

std::size_t SlicedTraceSource::fill(workload::DynInst* out, std::size_t n) {
  const std::size_t got = inner_->fill(out, n);
  for (std::size_t i = 0; i < got; ++i) out[i].seq = emitted_++;
  return got;
}

}  // namespace prestage::sample
