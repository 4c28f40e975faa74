#include "prefetch/next_line.hpp"

#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::prefetch {

NextLinePrefetcher::NextLinePrefetcher(const NextLineConfig& config,
                                       const PrefetchBufferConfig& buffer,
                                       mem::IFetchCaches& caches,
                                       mem::MemSystem& mem)
    : BufferedPrefetcher(buffer, Arrival::Assumed, caches, mem),
      config_(config),
      caches_(caches) {
  PRESTAGE_ASSERT(config.degree >= 1);
}

void NextLinePrefetcher::on_line_request(Addr line, Cycle now) {
  for (std::uint32_t d = 1; d <= config_.degree; ++d) {
    const Addr target = line + static_cast<Addr>(d) * buffer_.line_bytes();
    // A line already at hand is counted where it is (Figure 8); any
    // other is fetched from below the L1.
    if (buffer_.contains(target)) {
      buffer_.record_source(FetchSource::PreBuffer);
    } else if (caches_.probe_l1(target)) {
      buffer_.record_source(FetchSource::L1);
    } else if (caches_.probe_l0(target)) {
      buffer_.record_source(FetchSource::L0);
    } else if (buffer_.issue(target, now) == IssueResult::Full) {
      return;
    }
  }
}

void register_next_line_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "next-line",
         .label = "NL",
         .description = "next-N-line sequential prefetching (related-work "
                        "baseline, §2.1)",
         .build = [](const BuildInputs& in) {
           PrefetcherBuild b;
           b.queue = std::make_unique<frontend::FetchTargetQueue>(
               in.config.queue_blocks, in.config.line_bytes);
           b.prefetcher = std::make_unique<NextLinePrefetcher>(
               NextLineConfig{}, prefetch_buffer_config(in), in.caches,
               in.mem);
           return b;
         }});
}

}  // namespace prestage::prefetch
