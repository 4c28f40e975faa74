#include "prefetch/registry.hpp"

#include <utility>

#include "common/prestage_assert.hpp"

// Builtin registration hooks, each defined in its scheme's own
// translation unit. They are *called* during registry construction (not
// static-initialized) so the linker can never silently drop a scheme's
// object file out of a static archive: referencing the function here
// forces the TU into every link that uses the registry.
namespace prestage::prefetch {
class PrefetcherRegistry;
void register_fdp_prefetcher(PrefetcherRegistry& r);        // fdp.cpp
void register_next_line_prefetcher(PrefetcherRegistry& r);  // next_line.cpp
void register_stream_prefetcher(PrefetcherRegistry& r);     // stream.cpp
void register_mana_prefetcher(PrefetcherRegistry& r);       // mana.cpp
void register_program_map_prefetcher(PrefetcherRegistry& r);  // program_map.cpp
}  // namespace prestage::prefetch

namespace prestage::core {
void register_clgp_prestager(prefetch::PrefetcherRegistry& r);  // core/clgp.cpp
}  // namespace prestage::core

namespace prestage::prefetch {

namespace {

/// The no-prefetch baseline: a block-granular FTQ feeding the fetch
/// engine, and a prefetcher that never stages anything.
void register_base_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "base",
         .label = "base",
         .description = "no prefetching (demand fetch only)",
         .build = [](const BuildInputs& in) {
           PrefetcherBuild b;
           b.queue = std::make_unique<frontend::FetchTargetQueue>(
               kQueueBlocks, in.config.line_bytes);
           b.prefetcher = std::make_unique<NonePrefetcher>();
           return b;
         }});
}

}  // namespace

PrefetchBufferConfig prefetch_buffer_config(const BuildInputs& in) {
  return {.entries = in.config.prebuffer_entries,
          .latency = in.timings.prebuffer_latency,
          .pipelined = in.timings.prebuffer_pipelined,
          .line_bytes = in.config.line_bytes};
}

PrefetcherRegistry::PrefetcherRegistry() {
  // Registration order is presentation order (`prestage list`).
  register_base_prefetcher(*this);
  register_fdp_prefetcher(*this);
  core::register_clgp_prestager(*this);
  register_next_line_prefetcher(*this);
  register_stream_prefetcher(*this);
  register_mana_prefetcher(*this);
  register_program_map_prefetcher(*this);
}

PrefetcherRegistry& PrefetcherRegistry::instance() {
  static PrefetcherRegistry registry;
  return registry;
}

void PrefetcherRegistry::add(PrefetcherInfo info) {
  PRESTAGE_ASSERT(!info.name.empty(), "prefetcher name must be non-empty");
  PRESTAGE_ASSERT(static_cast<bool>(info.build),
                  "prefetcher '" + info.name + "' has no factory");
  PRESTAGE_ASSERT(find(info.name) == nullptr,
                  "duplicate prefetcher registration '" + info.name + "'");
  entries_.push_back(std::move(info));
}

const PrefetcherInfo* PrefetcherRegistry::find(
    std::string_view name) const {
  for (const PrefetcherInfo& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<std::string> PrefetcherRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const PrefetcherInfo& e : entries_) out.push_back(e.name);
  return out;
}

PrefetcherBuild build_prefetcher(const BuildInputs& in) {
  const PrefetcherRegistry& registry = PrefetcherRegistry::instance();
  const PrefetcherInfo* info = registry.find(in.config.prefetcher);
  if (info == nullptr) {
    std::string known;
    for (const std::string& name : registry.names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw SimError("unknown prefetcher '" + in.config.prefetcher +
                   "' (registered: " + known + ")");
  }
  PrefetcherBuild b = info->build(in);
  PRESTAGE_ASSERT(b.queue != nullptr && b.prefetcher != nullptr,
                  "prefetcher factory '" + info->name +
                      "' returned an incomplete build");
  return b;
}

std::uint64_t probe_storage_bits(const cpu::MachineConfig& config) {
  // The bill of bits is a static property of the built structures, so a
  // throwaway cache/memory pair is enough to let the factory run; the
  // references only need to outlive this call.
  const cpu::DerivedTimings timings = cpu::DerivedTimings::from(config);
  mem::IFetchCachesConfig cache_cfg;
  cache_cfg.l1_size_bytes = config.l1i_size;
  cache_cfg.line_bytes = config.line_bytes;
  cache_cfg.l1_latency = timings.l1i_latency;
  cache_cfg.has_l0 = config.has_l0;
  cache_cfg.l0_size_bytes = timings.l0_size;
  mem::IFetchCaches caches(cache_cfg);
  mem::MemSystem mem{mem::MemSystemConfig{}};
  const PrefetcherBuild b =
      build_prefetcher({config, timings, caches, mem});
  return b.prefetcher->storage_bits();
}

}  // namespace prestage::prefetch
