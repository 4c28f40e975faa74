#include "prefetch/program_map.hpp"

#include "cacti/storage.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::prefetch {

ProgramMapPrefetcher::ProgramMapPrefetcher(const ProgramMapConfig& config,
                                           const PrefetchBufferConfig& buffer,
                                           frontend::FetchTargetQueue& ftq,
                                           mem::IFetchCaches& caches,
                                           mem::MemSystem& mem)
    : BufferedPrefetcher(buffer, Arrival::Assumed, caches, mem),
      config_(config),
      ftq_(ftq),
      map_(config.map_entries) {
  PRESTAGE_ASSERT(config.map_entries >= 1 && config.depth >= 1);
}

std::size_t ProgramMapPrefetcher::map_index(Addr start) const {
  return static_cast<std::size_t>((start / buffer_.line_bytes()) %
                                  map_.size());
}

const ProgramMapPrefetcher::Node* ProgramMapPrefetcher::lookup(
    Addr start) const {
  const Node& n = map_[map_index(start)];
  return n.valid && n.start == start ? &n : nullptr;
}

std::uint32_t ProgramMapPrefetcher::recorded_edges(Addr start) const {
  const Node* n = lookup(start);
  if (n == nullptr) return 0;
  std::uint32_t count = 0;
  for (const Edge& e : n->edges) count += (e.target != kNoAddr);
  return count;
}

void ProgramMapPrefetcher::record_block(const frontend::FetchBlock& block,
                                        Addr successor) {
  if (successor == kNoAddr || block.length == 0) return;
  Node& n = map_[map_index(block.start)];
  if (!n.valid || n.start != block.start) {
    // Allocate (or displace the colliding node — direct-mapped).
    n = Node{};
    n.start = block.start;
    n.valid = true;
    nodes_recorded.add();
  }
  n.span_lines = frontend::lines_in_block(block, buffer_.line_bytes());

  // Edge update: strengthen a matching successor, else take an empty
  // slot, else displace the weakest edge (decay-and-replace).
  for (Edge& e : n.edges) {
    if (e.target == successor) {
      if (e.confidence < kMaxConfidence) ++e.confidence;
      edges_strengthened.add();
      return;
    }
  }
  Edge* slot = nullptr;
  for (Edge& e : n.edges) {
    if (e.target == kNoAddr) {
      slot = &e;
      break;
    }
    if (slot == nullptr || e.confidence < slot->confidence) slot = &e;
  }
  PRESTAGE_ASSERT(slot != nullptr);
  slot->target = successor;
  slot->confidence = 1;
  // A call or forward branch jumps ahead; a return or loop closes
  // backward. The classification feeds the stats (and tests) — the
  // traversal itself follows both kinds.
  slot->backward = successor <= block.start;
  if (slot->backward) backward_edges.add();
}

void ProgramMapPrefetcher::traverse(Addr start, Cycle now) {
  const Node* n = lookup(start);
  if (n == nullptr) return;  // frontier not mapped yet
  traversals.add();
  for (std::uint32_t hops = 0; hops < config_.depth; ++hops) {
    const Edge* best = nullptr;
    for (const Edge& e : n->edges) {
      if (e.target == kNoAddr) continue;
      if (best == nullptr || e.confidence > best->confidence) best = &e;
    }
    if (best == nullptr) return;
    const Addr target = best->target;
    // The successor node knows the block's span; an unmapped target
    // still gets its entry line staged — it IS the discontinuity.
    const Node* tn = lookup(target);
    const std::uint32_t span = tn != nullptr ? tn->span_lines : 1;
    const Addr line_bytes = buffer_.line_bytes();
    const Addr first_line = target / line_bytes * line_bytes;
    for (std::uint32_t d = 0; d < span; ++d) {
      buffer_.prestage(first_line + static_cast<Addr>(d) * line_bytes, now);
    }
    if (tn == nullptr) return;
    n = tn;
  }
}

std::size_t ProgramMapPrefetcher::next_unrecorded(std::size_t b) const {
  while (b + 1 < ftq_.size() && ftq_.entry(b).prefetch_line != 0) ++b;
  return b;
}

Addr ProgramMapPrefetcher::moved_frontier() const {
  if (ftq_.size() == 0) return kNoAddr;
  const Addr frontier = ftq_.entry(ftq_.size() - 1).block.start;
  return frontier == last_frontier_ ? kNoAddr : frontier;
}

void ProgramMapPrefetcher::tick(Cycle now) {
  // Record: each queued block's successor is the next block in the
  // stream; an edge is entered once both ends are oracle-verified. The
  // per-entry prefetch_line cursor (unused by this queue's fetch side)
  // doubles as the "already recorded" marker.
  std::uint32_t recorded = 0;
  for (std::size_t b = next_unrecorded(0);
       b + 1 < ftq_.size() && recorded < config_.record_per_cycle;
       b = next_unrecorded(b + 1)) {
    ftq_.entry(b).prefetch_line = 1;
    ++recorded;
    const frontend::FetchBlock& block = ftq_.entry(b).block;
    const frontend::FetchBlock& next = ftq_.entry(b + 1).block;
    const bool retired_edge = !block.fully_wrong() &&
                              block.culprit_index < 0 &&
                              block.wrong_from >= block.length &&
                              !next.fully_wrong();
    if (retired_edge) record_block(block, next.start);
  }

  // Traverse: walk the map ahead of the youngest block whenever the
  // frontier moves.
  const Addr frontier = moved_frontier();
  if (frontier == kNoAddr) return;
  last_frontier_ = frontier;
  traverse(frontier, now);
}

IdlePlan ProgramMapPrefetcher::idle_plan(Cycle now) {
  // Apart from these two, tick() is pure (entries arrive via callbacks
  // and fetch-side probes) and counts nothing per cycle.
  if (next_unrecorded(0) + 1 < ftq_.size() || moved_frontier() != kNoAddr) {
    return {now, nullptr};
  }
  return {kNoCycle, nullptr};
}

void ProgramMapPrefetcher::on_recovery(Cycle now) {
  (void)now;
  // The walked path was squashed with the FTQ; the map is retired
  // control flow and survives.
  last_frontier_ = kNoAddr;
}

std::uint64_t ProgramMapPrefetcher::storage_bits() const {
  // Prestage buffer plus the program-map node table: per node, the
  // start-PC tag, the span, and two edges of target + 2-bit confidence
  // + direction.
  const std::uint64_t edge_bits = cacti::kPhysAddrBits + 2 + 1;
  const std::uint64_t node_bits =
      cacti::kPhysAddrBits + 3 + kMaxEdges * edge_bits + 1;
  return buffer_.storage_bits() +
         cacti::table_bits(config_.map_entries, node_bits);
}

void register_program_map_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "program-map",
         .label = "PMap",
         .description =
             "program-map traversal: call/branch graph built from "
             "retired control flow, walked ahead of fetch to stage "
             "discontinuity targets (arXiv 2406.06738)",
         .build = [](const BuildInputs& in) {
           auto ftq = std::make_unique<frontend::FetchTargetQueue>(
               kQueueBlocks, in.config.line_bytes);
           PrefetcherBuild b;
           b.prefetcher = std::make_unique<ProgramMapPrefetcher>(
               ProgramMapConfig{}, prefetch_buffer_config(in), *ftq,
               in.caches, in.mem);
           b.queue = std::move(ftq);
           return b;
         }});
}

}  // namespace prestage::prefetch
