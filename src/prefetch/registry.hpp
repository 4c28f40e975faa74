// The open prefetcher registry: every instruction-prefetch scheme the
// simulator knows is a named factory here, and the CPU builds its
// prefetcher + decoupling-queue pair by registry lookup instead of a
// hard-wired switch.
//
// A factory receives everything a scheme may consult (the machine
// configuration, the CACTI-derived timings, and the cache/memory
// subsystems it drives) and returns the queue/prefetcher pair as one
// unit, because the two are coupled: CLGP scans a cache-line-granular
// CLTQ while FDP-family schemes scan (or ignore) a block-granular FTQ.
//
// Adding a new scheme is a one-directory change under src/prefetch/:
// implement IPrefetcher (a scheme with a conventional prefetch buffer
// derives from BufferedPrefetcher), define a
// `register_<name>_prefetcher()` that adds a PrefetcherInfo, and call it
// from the builtin list in registry.cpp (see README "Adding a
// prefetcher"). Out-of-tree code (tests, experiments) can also register
// at run time through PrefetcherRegistry::instance().add().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/config.hpp"
#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/prefetch_buffer.hpp"
#include "prefetch/prefetcher.hpp"

namespace prestage::prefetch {

/// Capacity of every scheme's decoupling queue (FTQ or CLTQ) in fetch
/// blocks (Table 2).
inline constexpr std::uint32_t kQueueBlocks = 8;

/// Everything a factory may consult when assembling a prefetcher.
struct BuildInputs {
  const cpu::MachineConfig& config;
  const cpu::DerivedTimings& timings;
  mem::IFetchCaches& caches;
  mem::MemSystem& mem;
};

/// The machine's prefetch-buffer geometry (entries, CACTI-derived read
/// latency, pipelining, line size), shared by every buffered scheme.
[[nodiscard]] PrefetchBufferConfig prefetch_buffer_config(
    const BuildInputs& in);

/// What a factory produces: the decoupling queue the predictor fills and
/// the prefetcher that scans it. Both are owned by the Cpu.
struct PrefetcherBuild {
  std::unique_ptr<frontend::IFetchQueue> queue;
  std::unique_ptr<IPrefetcher> prefetcher;
};

/// One registered scheme. `name` is the machine-facing kebab-case token
/// the composition grammar, CLI and campaign stores use; `label` is the
/// human chart label ("FDP", "CLGP").
struct PrefetcherInfo {
  std::string name;
  std::string label;
  std::string description;
  std::function<PrefetcherBuild(const BuildInputs&)> build;
};

class PrefetcherRegistry {
 public:
  /// The process-wide registry, with every builtin scheme registered.
  [[nodiscard]] static PrefetcherRegistry& instance();

  /// Registers a scheme; asserts on a duplicate or empty name.
  void add(PrefetcherInfo info);

  /// nullptr when no scheme has this name.
  [[nodiscard]] const PrefetcherInfo* find(std::string_view name) const;

  /// All schemes in registration order (builtins first).
  [[nodiscard]] const std::vector<PrefetcherInfo>& entries() const {
    return entries_;
  }

  /// Registered names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  PrefetcherRegistry();

  std::vector<PrefetcherInfo> entries_;
};

/// Builds the prefetcher + queue pair for `in.config.prefetcher`.
/// Throws SimError naming every registered scheme on an unknown name.
[[nodiscard]] PrefetcherBuild build_prefetcher(const BuildInputs& in);

/// Storage budget (IPrefetcher::storage_bits) of the scheme @p config
/// names, built against throwaway cache/memory instances. Used by the
/// CLI and campaign reports to account state without running anything.
[[nodiscard]] std::uint64_t probe_storage_bits(
    const cpu::MachineConfig& config);

}  // namespace prestage::prefetch
