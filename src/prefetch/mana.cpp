#include "prefetch/mana.hpp"

#include "cacti/storage.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::prefetch {

ManaPrefetcher::ManaPrefetcher(const ManaConfig& config,
                               const PrefetchBufferConfig& buffer,
                               mem::IFetchCaches& caches,
                               mem::MemSystem& mem)
    : BufferedPrefetcher(buffer, Arrival::Assumed, caches, mem),
      config_(config),
      table_(config.table_entries),
      hobpt_(config.hobpt_entries, kNoAddr) {
  PRESTAGE_ASSERT(config.table_entries >= 1 && config.hobpt_entries >= 1);
  PRESTAGE_ASSERT(config.region_span >= 1 && config.region_span <= 32);
  PRESTAGE_ASSERT(config.hobp_low_bits >= 1 && config.hobp_low_bits < 56);
}

std::uint64_t ManaPrefetcher::line_number(Addr line) const {
  return line / buffer_.line_bytes();
}

std::size_t ManaPrefetcher::table_index(Addr trigger) const {
  return static_cast<std::size_t>(line_number(trigger) % table_.size());
}

Addr ManaPrefetcher::record_trigger(const Record& r) const {
  const Addr pattern = hobpt_[r.hobp_index];
  if (pattern == kNoAddr) return kNoAddr;
  return ((pattern << config_.hobp_low_bits) | r.low) * buffer_.line_bytes();
}

std::uint32_t ManaPrefetcher::hobp_index_of(Addr trigger) {
  const Addr pattern = line_number(trigger) >> config_.hobp_low_bits;
  for (std::uint32_t i = 0; i < hobpt_used_; ++i) {
    if (hobpt_[i] == pattern) return i;
  }
  // FIFO insertion. Records built against the evicted pattern would
  // reconstruct a wrong trigger, so they are invalidated here — the
  // coverage cost of HOBP compression, made explicit.
  const std::uint32_t slot = hobpt_next_;
  hobpt_next_ = (hobpt_next_ + 1) % config_.hobpt_entries;
  if (hobpt_used_ < config_.hobpt_entries) {
    ++hobpt_used_;
  } else {
    for (Record& r : table_) {
      if (r.valid && r.hobp_index == slot) {
        r.valid = false;
        hobp_invalidations.add();
      }
    }
  }
  hobpt_[slot] = pattern;
  return slot;
}

std::uint32_t ManaPrefetcher::recorded_footprint(Addr trigger) const {
  const Record& r = table_[table_index(trigger)];
  if (!r.valid || record_trigger(r) != trigger) return 0;
  return r.footprint;
}

void ManaPrefetcher::finalize_region() {
  if (region_trigger_ != kNoAddr && region_footprint_ != 0) {
    const std::uint32_t index =
        static_cast<std::uint32_t>(table_index(region_trigger_));
    Record& r = table_[index];
    r.hobp_index = hobp_index_of(region_trigger_);
    r.low = line_number(region_trigger_) &
            ((1ULL << config_.hobp_low_bits) - 1);
    r.footprint = region_footprint_;
    r.successor = kNoSuccessor;
    r.valid = true;
    records_created.add();
    // Chain: the predecessor's region was followed by this one.
    if (last_record_ != kNoSuccessor && last_record_ != index) {
      table_[last_record_].successor = index;
    }
    last_record_ = index;
  }
  region_trigger_ = kNoAddr;
  region_footprint_ = 0;
}

void ManaPrefetcher::replay_record(const Record& r, Cycle now) {
  const Addr trigger = record_trigger(r);
  if (trigger == kNoAddr) return;
  for (std::uint32_t d = 0; d < config_.region_span; ++d) {
    if ((r.footprint & (1U << d)) == 0) continue;
    buffer_.prestage(
        trigger + static_cast<Addr>(d + 1) * buffer_.line_bytes(), now);
  }
}

void ManaPrefetcher::on_line_request(Addr line, Cycle now) {
  // Replay: a recorded trigger prestages its footprint and then walks
  // the successor chain ahead of fetch.
  const Record& hit = table_[table_index(line)];
  if (hit.valid && record_trigger(hit) == line) {
    record_replays.add();
    replay_record(hit, now);
    std::uint32_t next = hit.successor;
    for (std::uint32_t hops = 0;
         hops < config_.lookahead && next != kNoSuccessor; ++hops) {
      const Record& chained = table_[next];
      if (!chained.valid) break;
      const Addr chained_trigger = record_trigger(chained);
      if (chained_trigger == kNoAddr) break;
      chain_replays.add();
      buffer_.prestage(chained_trigger, now);
      replay_record(chained, now);
      next = chained.successor;
    }
  }

  // Record: place the request in the open spatial region, or finalize
  // it and open a new one on a discontinuity.
  if (region_trigger_ == kNoAddr) {
    region_trigger_ = line;
    region_footprint_ = 0;
    return;
  }
  if (line == region_trigger_) return;  // trigger re-requested
  if (line > region_trigger_) {
    const std::uint64_t delta =
        line_number(line) - line_number(region_trigger_);
    if (delta <= config_.region_span) {
      region_footprint_ |= 1U << (delta - 1);
      return;
    }
  }
  finalize_region();
  region_trigger_ = line;
  region_footprint_ = 0;
}

void ManaPrefetcher::on_recovery(Cycle now) {
  (void)now;
  // Abandon the open region — wrong-path requests must not become a
  // record, and the chain predecessor no longer describes what fetch
  // will do next. The table itself is kept (observed control flow).
  region_trigger_ = kNoAddr;
  region_footprint_ = 0;
  last_record_ = kNoSuccessor;
}

std::uint64_t ManaPrefetcher::storage_bits() const {
  // Prestage buffer (data + tag + state), the MANA table (HOBP index +
  // low bits + footprint + successor + valid per record), and the HOBP
  // pattern table (high-order line-number bits per entry).
  const std::uint32_t line_offset = cacti::index_bits(buffer_.line_bytes());
  const std::uint64_t record_bits =
      cacti::index_bits(config_.hobpt_entries) + config_.hobp_low_bits +
      config_.region_span + cacti::index_bits(config_.table_entries) + 1;
  const std::uint64_t pattern_bits =
      cacti::kPhysAddrBits - line_offset - config_.hobp_low_bits;
  return buffer_.storage_bits() +
         cacti::table_bits(config_.table_entries, record_bits) +
         cacti::table_bits(config_.hobpt_entries, pattern_bits);
}

void register_mana_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "mana",
         .label = "MANA",
         .description =
             "MANA spatial-region prefetcher: HOBP-compressed region "
             "records chained through a MANA table, replayed ahead of "
             "fetch (arXiv 2102.01764)",
         .build = [](const BuildInputs& in) {
           PrefetcherBuild b;
           b.queue = std::make_unique<frontend::FetchTargetQueue>(
               kQueueBlocks, in.config.line_bytes);
           b.prefetcher = std::make_unique<ManaPrefetcher>(
               ManaConfig{}, prefetch_buffer_config(in), in.caches, in.mem);
           return b;
         }});
}

}  // namespace prestage::prefetch
