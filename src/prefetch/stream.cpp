#include "prefetch/stream.hpp"

#include "cacti/storage.hpp"
#include "common/bytes.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::prefetch {

StreamPrefetcher::StreamPrefetcher(const StreamConfig& config,
                                   const PrefetchBufferConfig& buffer,
                                   mem::IFetchCaches& caches,
                                   mem::MemSystem& mem)
    : BufferedPrefetcher(buffer, Arrival::Assumed, caches, mem),
      config_(config),
      table_(config.table_entries) {
  PRESTAGE_ASSERT(config.table_entries >= 1 && config.max_region_lines >= 2);
}

std::size_t StreamPrefetcher::table_index(Addr trigger) const {
  return static_cast<std::size_t>((trigger / buffer_.line_bytes()) %
                                  table_.size());
}

std::uint32_t StreamPrefetcher::recorded_region_lines(Addr trigger) const {
  const Region& r = table_[table_index(trigger)];
  return r.trigger == trigger ? r.lines : 0;
}

void StreamPrefetcher::finalize_region() {
  if (region_trigger_ != kNoAddr && region_lines_ >= 2) {
    table_[table_index(region_trigger_)] =
        Region{region_trigger_, region_lines_};
    regions_recorded.add();
  }
  region_trigger_ = kNoAddr;
  region_last_ = kNoAddr;
  region_lines_ = 0;
}

void StreamPrefetcher::on_line_request(Addr line, Cycle now) {
  // Replay: a recorded trigger prestages the rest of its region.
  const Region& hit = table_[table_index(line)];
  if (hit.trigger == line && hit.lines >= 2) {
    region_replays.add();
    for (std::uint32_t d = 1; d < hit.lines; ++d) {
      buffer_.prestage(line + static_cast<Addr>(d) * buffer_.line_bytes(),
                       now);
    }
  }

  // Record: grow the in-flight region while requests stay sequential.
  if (region_trigger_ == kNoAddr) {
    region_trigger_ = line;
    region_last_ = line;
    region_lines_ = 1;
    return;
  }
  if (line == region_last_) return;  // same line re-requested
  if (line == region_last_ + buffer_.line_bytes()) {
    region_last_ = line;
    if (++region_lines_ >= config_.max_region_lines) {
      // Cap reached: store this region and chain a fresh one from the
      // current line so long sequential runs become linked regions.
      finalize_region();
      region_trigger_ = line;
      region_last_ = line;
      region_lines_ = 1;
    }
    return;
  }
  // Discontinuity: the region is complete; the new line triggers the
  // next one.
  finalize_region();
  region_trigger_ = line;
  region_last_ = line;
  region_lines_ = 1;
}

void StreamPrefetcher::on_recovery(Cycle now) {
  (void)now;
  // Wrong-path requests must not be recorded as a stream; recorded
  // regions stay — they describe previously observed control flow.
  region_trigger_ = kNoAddr;
  region_last_ = kNoAddr;
  region_lines_ = 0;
}

std::uint64_t StreamPrefetcher::storage_bits() const {
  // Pre-buffer plus the direct-mapped region table: each region record
  // holds a trigger-line tag and the recorded length.
  const std::uint64_t record_bits =
      cacti::line_tag_bits(buffer_.line_bytes()) +
      cacti::index_bits(config_.max_region_lines + 1);
  return buffer_.storage_bits() +
         cacti::table_bits(config_.table_entries, record_bits);
}

bool StreamPrefetcher::save_state(std::vector<std::uint8_t>& out) const {
  // Layout: u32 table entry count, then per entry u64 trigger + u32
  // lines. The count doubles as a shape check on restore.
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(table_.size()));
  for (const Region& region : table_) {
    w.u64(region.trigger);
    w.u32(region.lines);
  }
  return true;
}

bool StreamPrefetcher::restore_state(const std::uint8_t* data,
                                     std::size_t size) {
  // A different table shape stays cold.
  if (size != 4 + table_.size() * 12) return false;
  ByteReader r(data, size, "stream prefetcher state");
  if (r.u32() != table_.size()) return false;
  for (Region& region : table_) {
    region.trigger = r.u64();
    region.lines = r.u32();
  }
  return true;
}

void register_stream_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "stream",
         .label = "Stream",
         .description =
             "stream/discontinuity prefetcher (MANA-flavored): records "
             "consecutive-line regions keyed by trigger line, prestages "
             "them on re-encounter",
         .build = [](const BuildInputs& in) {
           PrefetcherBuild b;
           b.queue = std::make_unique<frontend::FetchTargetQueue>(
               kQueueBlocks, in.config.line_bytes);
           b.prefetcher = std::make_unique<StreamPrefetcher>(
               StreamConfig{}, prefetch_buffer_config(in), in.caches,
               in.mem);
           return b;
         }});
}

}  // namespace prestage::prefetch
