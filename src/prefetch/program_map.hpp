// Program-map traversal prefetching (after Karlsson et al., "A Unified
// Instruction Prefetcher Using Program Structure" lineage; arXiv
// 2406.06738): a call/return + branch-target graph of the program is
// built online from *retired* control flow, then traversed ahead of the
// fetch frontier to stage the lines behind upcoming discontinuities —
// the misses sequential schemes structurally cannot cover.
//
//  * Map building: the scheme owns its FetchTargetQueue and, each
//    cycle, records the blocks flowing through it. An edge links a
//    block to the block that followed it in the stream, and only pairs
//    the oracle verified (no wrong-path suffix, no culprit) are
//    recorded — the model's equivalent of building the map at retire
//    time, so mispredicted paths never pollute the graph. A node is
//    keyed by the block's start PC and holds the block's line span plus
//    up to two successor edges with 2-bit saturating confidence; each
//    edge is classified forward (call/taken branch) or backward
//    (return/loop) by target direction.
//  * Traversal: from the youngest queued block, the map is walked up to
//    `depth` successor nodes, prestaging every line each visited block
//    spans and following the highest-confidence edge at each step. The
//    walk re-arms whenever the frontier block changes, so the
//    prefetcher always runs one traversal ahead of prediction.
//  * Recovery: the CPU flushes the FTQ; the traversal frontier resets
//    (the old walk described a squashed path) but the map is kept — it
//    records retired, not speculative, control flow.
//
// Prestaging uses PrefetchBuffer::prestage(): already-staged or
// L0-resident lines are skipped, L1-resident lines are staged from the
// L1's prefetch port, the rest fill from L2/memory.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "frontend/fetch_queue.hpp"
#include "prefetch/prefetch_buffer.hpp"

namespace prestage::prefetch {

struct ProgramMapConfig {
  std::uint32_t map_entries = 256;  ///< program-map nodes (direct-mapped)
  std::uint32_t depth = 4;          ///< nodes traversed ahead of fetch
  std::uint32_t record_per_cycle = 2;  ///< FTQ blocks recorded per cycle
};

class ProgramMapPrefetcher final : public BufferedPrefetcher {
 public:
  ProgramMapPrefetcher(const ProgramMapConfig& config,
                       const PrefetchBufferConfig& buffer,
                       frontend::FetchTargetQueue& ftq,
                       mem::IFetchCaches& caches, mem::MemSystem& mem);

  void tick(Cycle now) override;
  [[nodiscard]] IdlePlan idle_plan(Cycle now) override;
  void on_recovery(Cycle now) override;
  [[nodiscard]] std::uint64_t storage_bits() const override;

  // --- statistics -------------------------------------------------------
  Counter nodes_recorded;     ///< retired blocks entered into the map
  Counter edges_strengthened; ///< successor confidence increments
  Counter traversals;         ///< map walks launched from a new frontier
  Counter backward_edges;     ///< return/loop edges recorded

  /// Number of successor edges of the node keyed by @p start (tests).
  [[nodiscard]] std::uint32_t recorded_edges(Addr start) const;

 private:
  static constexpr std::uint32_t kMaxEdges = 2;
  static constexpr std::uint8_t kMaxConfidence = 3;  ///< 2-bit counter

  struct Edge {
    Addr target = kNoAddr;
    std::uint8_t confidence = 0;
    bool backward = false;  ///< return/loop (target below source)
  };

  struct Node {
    Addr start = kNoAddr;         ///< block start PC (tag)
    std::uint32_t span_lines = 1; ///< lines the block covers
    Edge edges[kMaxEdges];
    bool valid = false;
  };

  [[nodiscard]] std::size_t map_index(Addr start) const;
  [[nodiscard]] const Node* lookup(Addr start) const;

  /// Enters one oracle-verified block and its observed successor edge.
  void record_block(const frontend::FetchBlock& block, Addr successor);
  /// Walks the map from the node at @p start, prestaging the blocks its
  /// successor chain reaches.
  void traverse(Addr start, Cycle now);

  // The two things tick() acts on, and idle_plan() reports.
  /// First queued block at or after @p b whose edge to its successor is
  /// still unrecorded; when there is none, an index with no successor.
  [[nodiscard]] std::size_t next_unrecorded(std::size_t b) const;
  /// The youngest block's start when the frontier moved since the last
  /// traversal, else kNoAddr.
  [[nodiscard]] Addr moved_frontier() const;

  ProgramMapConfig config_;
  frontend::FetchTargetQueue& ftq_;
  std::vector<Node> map_;
  Addr last_frontier_ = kNoAddr;  ///< last traversal start (re-arm guard)
};

}  // namespace prestage::prefetch
