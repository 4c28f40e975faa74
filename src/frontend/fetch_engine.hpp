// The fetch stage: consumes line requests from the decoupling queue and
// probes the pre-buffer, L0 and L1 in parallel, falling back to an L2
// demand request. Supports multiple in-flight line fetches with in-order
// delivery, which is what lets a pipelined L1 (or pipelined pre-buffer)
// overlap accesses — and what makes a conventional blocking multi-cycle
// L1 serialise, the paper's central cost.
#pragma once

#include <cstdint>

#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "frontend/fetch_queue.hpp"
#include "frontend/fetch_types.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/prefetcher.hpp"

namespace prestage::frontend {

/// Where fetched instructions go (the CPU's decode pipe).
class IFetchSink {
 public:
  virtual ~IFetchSink() = default;
  [[nodiscard]] virtual bool can_accept() const = 0;
  virtual void accept(const FetchedInst& inst) = 0;
};

struct FetchEngineConfig {
  std::uint32_t width = 4;          ///< instructions delivered per cycle
  std::uint32_t max_outstanding = 8;  ///< in-flight line fetches
};

class FetchEngine {
 public:
  FetchEngine(const FetchEngineConfig& config, IFetchQueue& queue,
              mem::IFetchCaches& caches, mem::MemSystem& mem,
              prefetch::IPrefetcher& prefetcher);

  /// One cycle: deliver buffered instructions, then initiate at most one
  /// new line fetch.
  void tick(Cycle now, IFetchSink& sink);

  /// Squashes the line buffer and all in-flight line fetches (recovery).
  void flush();

  /// Event-horizon forecast at cycle @p now (cpu/cpu.cpp fast-forward),
  /// without mutating any state. Work this cycle (a delivery, promotion
  /// or issue) reports next_event <= now; otherwise it reports the stall
  /// tick() would act on: the counter it increments every cycle, and the
  /// self-timed wakeup (pending head arrival, blocking-port drain) when
  /// one exists. Wakeups owned by other units (MemSystem fills, back-end
  /// drain) are deliberately excluded — their horizons cover those.
  [[nodiscard]] IdlePlan idle_plan(Cycle now, const IFetchSink& sink);

  [[nodiscard]] bool idle() const {
    return !line_buffer_.active && pending_.empty();
  }

  // --- statistics (paper Figure 7: fetch source distribution) ----------
  SourceBreakdown fetch_sources;  ///< per delivered line
  Counter lines_fetched;
  Counter instrs_delivered;
  Counter stall_cycles_no_request;  ///< queue empty
  Counter stall_cycles_structural;  ///< port busy / pending full

 private:
  struct Pending {
    LineView view;
    std::uint64_t id = 0;
    Cycle ready = kNoCycle;  ///< set at issue or by fill callback
    FetchSource source = FetchSource::L1;
    bool streaming = false;  ///< source sustains one line per cycle
  };

  struct LineBuffer {
    LineView view;
    FetchSource source = FetchSource::L1;
    std::uint32_t delivered = 0;
    bool active = false;
  };

  void deliver(Cycle now, IFetchSink& sink);

  /// The one decision tick() acts on and idle_plan() reports: what the
  /// head of the queue does at `now`. Returns either
  /// on.stall(counter, wake) — the fetch waits, bumping `counter` once
  /// per cycle, until the self-timed `wake` (kNoCycle when another unit
  /// ends the wait) — or on.issue(view, source, streaming, data_ready):
  /// read the head line from `source` (L2 stands for a demand miss;
  /// `data_ready` is a pre-buffer line's arrival).
  template <class On>
  auto next_step(Cycle now, On&& on);
  /// Starts the line fetch next_step() chose.
  void start_fetch(Cycle now, const LineView& view, FetchSource source,
                   bool streaming, Cycle data_ready);

  FetchEngineConfig config_;
  IFetchQueue& queue_;
  mem::IFetchCaches& caches_;
  mem::MemSystem& mem_;
  prefetch::IPrefetcher& prefetcher_;

  RingBuffer<Pending> pending_;
  LineBuffer line_buffer_;
  std::uint64_t next_id_ = 1;
  std::uint64_t flush_gen_ = 0;
};

}  // namespace prestage::frontend
