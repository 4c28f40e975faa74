// The conventional prefetch buffer (paper §3.1) that FDP, next-line,
// stream, MANA and program-map share, and the BufferedPrefetcher base
// that plugs it into the fetch stage. CLGP's prestage buffer
// (core/prestage_buffer.hpp) is the contrasting design.
//
//  * Fully associative, one line per entry. The fetch stage probes it
//    in parallel with L0/L1 through its own read port.
//  * A transfer comes from the L1's prefetch port when the line is
//    L1-resident (§3.1.1), else from L2/memory through a gen-guarded
//    fill callback.
//  * When the fetch stage uses a line, the line is promoted to the
//    I-cache (the L0 when present, else the L1) and the entry is freed.
//    Arrival (below) says what happens to a line used before it is
//    valid.
//
// Deviation from the paper: entries whose lines arrived but were never
// consumed (wrong-path prefetches surviving a flush) are reclaimable in
// LRU order when no free entry exists; the strict freed-only-on-use rule
// would wedge the buffer after mispredictions.
//
// Fill callbacks hold `this` and pointers into the entry array, so the
// buffer can be neither copied nor moved.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "mem/port.hpp"
#include "prefetch/prefetcher.hpp"

namespace prestage::prefetch {

/// Geometry of a prefetch buffer (prefetch_buffer_config() in
/// registry.hpp fills it from the machine configuration).
struct PrefetchBufferConfig {
  std::uint32_t entries = 8;      ///< lines
  int latency = 1;                ///< read latency in cycles
  bool pipelined = false;         ///< 16-entry buffers are pipelined (§5)
  std::uint32_t line_bytes = 64;
};

/// Whether a buffer tracks a transfer's arrival or assumes it. The
/// fetch-side probe reports the same arrival cycle under both; they
/// differ in when an entry may be reclaimed and when a consumed line is
/// promoted.
enum class Arrival : std::uint8_t {
  /// FDP: an L1 transfer becomes valid when settle() passes its
  /// completion cycle, and a line consumed before it is valid is
  /// promoted when it arrives.
  Tracked,
  /// Next-line and the stream family: an L1 transfer is valid (and so
  /// reclaimable) at issue, and a consumed line is promoted and freed
  /// at once.
  Assumed,
};

/// Outcome of PrefetchBuffer::issue().
enum class IssueResult : std::uint8_t {
  Started,   ///< a transfer started into a free or reclaimed entry
  Full,      ///< every entry is in flight: nothing to reclaim
  PortBusy,  ///< L1-resident, but the L1 prefetch port is taken
};

class PrefetchBuffer {
 public:
  PrefetchBuffer(const PrefetchBufferConfig& config, Arrival arrival,
                 mem::IFetchCaches& caches, mem::MemSystem& mem);
  PrefetchBuffer(const PrefetchBuffer&) = delete;
  PrefetchBuffer& operator=(const PrefetchBuffer&) = delete;

  [[nodiscard]] std::uint32_t line_bytes() const noexcept {
    return config_.line_bytes;
  }
  [[nodiscard]] mem::LatencyPort& port() noexcept { return port_; }

  /// Is @p line allocated (arrived or in flight)?
  [[nodiscard]] bool contains(Addr line) const {
    return find(line) != nullptr;
  }

  /// Fetch-side probe. data_ready is the arrival cycle, kNoCycle while a
  /// fill from below L1 has not reported one yet.
  [[nodiscard]] PreBufferProbe probe(Addr line) const {
    const Entry* e = find(line);
    if (e == nullptr) return {};
    return PreBufferProbe{true, e->ready};
  }

  /// The fetch stage used @p line: promote it and free its entry (for a
  /// Tracked buffer, on arrival if its data is not yet valid).
  void consume(Addr line);

  /// Starts a transfer of @p line into a free entry, else into the LRU
  /// arrived entry. The caller has already filtered the line.
  IssueResult issue(Addr line, Cycle now);

  /// The stream family's request: skip a line that is one cycle away
  /// (in the buffer or the L0), else issue it. The L1 is deliberately
  /// not filtered against: with a multi-cycle L1 the point is staging
  /// resident lines into one-cycle reach (paper §3.1.1/§3.2.3). A full
  /// buffer or a busy L1 prefetch port drops the request.
  void prestage(Addr line, Cycle now);

  /// Makes Tracked L1 transfers whose completion cycle has passed valid.
  /// Returns at once before the earliest of them.
  void settle(Cycle now) {
    if (now >= pending_) settle_due(now);
  }
  /// Earliest completion cycle settle() is waiting for, or kNoCycle.
  [[nodiscard]] Cycle next_settle() const noexcept { return pending_; }
  /// Would issue() find an entry (free, or arrived and reclaimable)?
  [[nodiscard]] bool can_allocate() const;

  /// Counts a prefetch request by where its line was found (Figure 8).
  void record_source(FetchSource s) noexcept { sources_.add(s); }
  [[nodiscard]] const SourceBreakdown& sources() const noexcept {
    return sources_;
  }

  /// Data + tag + valid/in-flight state per entry.
  [[nodiscard]] std::uint64_t storage_bits() const;

  Counter prefetches_issued;  ///< transfers started (L1/L2/mem)

 private:
  struct Entry {
    Addr line = kNoAddr;
    Cycle ready = kNoCycle;  ///< arrival; kNoCycle while unknown
    std::uint64_t lru = 0;
    std::uint64_t gen = 0;  ///< reallocation guard for fill callbacks
    bool allocated = false;
    bool valid = false;            ///< data arrived
    bool promote_on_fill = false;  ///< consumed before it arrived
  };

  [[nodiscard]] const Entry* find(Addr line) const {
    for (const Entry& e : entries_) {
      if (e.allocated && e.line == line) return &e;
    }
    return nullptr;
  }
  [[nodiscard]] Entry* find(Addr line) {
    return const_cast<Entry*>(std::as_const(*this).find(line));
  }
  [[nodiscard]] Entry* allocate();
  void promote_and_free(Entry& e);
  void settle_due(Cycle now);

  PrefetchBufferConfig config_;
  Arrival arrival_;
  mem::IFetchCaches& caches_;
  mem::MemSystem& mem_;
  mem::LatencyPort port_;
  std::vector<Entry> entries_;
  // Earliest `ready` of the Tracked L1 transfers in flight, or kNoCycle.
  // Exact: such a transfer starts only in issue(), and it ends only in
  // settle_due(), which recomputes this (allocate() reclaims arrived
  // entries only, and a consume before arrival waits for it).
  Cycle pending_ = kNoCycle;
  std::uint64_t lru_clock_ = 0;
  SourceBreakdown sources_;
};

/// An IPrefetcher whose pre-buffer is a PrefetchBuffer. The fetch-side
/// hooks and statistics all come from the buffer, so a scheme writes
/// only its trigger hooks (tick, on_line_request, on_recovery) and its
/// learned tables.
class BufferedPrefetcher : public IPrefetcher {
 public:
  [[nodiscard]] PreBufferProbe probe(Addr line) const final {
    return buffer_.probe(line);
  }
  [[nodiscard]] mem::LatencyPort* pb_port() final { return &buffer_.port(); }
  void on_fetch_from_pb(Addr line, Cycle /*now*/) final {
    buffer_.consume(line);
  }
  /// Prefetched lines stay in the buffer across a misprediction: the
  /// paper keeps wrong-path prefetches as potentially useful.
  void on_recovery(Cycle /*now*/) override {}
  [[nodiscard]] const SourceBreakdown& prefetch_sources() const final {
    return buffer_.sources();
  }
  [[nodiscard]] std::uint64_t prefetches() const final {
    return buffer_.prefetches_issued.value();
  }
  [[nodiscard]] std::uint64_t storage_bits() const override {
    return buffer_.storage_bits();
  }

 protected:
  BufferedPrefetcher(const PrefetchBufferConfig& buffer, Arrival arrival,
                     mem::IFetchCaches& caches, mem::MemSystem& mem)
      : buffer_(buffer, arrival, caches, mem) {}

  PrefetchBuffer buffer_;
};

}  // namespace prestage::prefetch
