// The instruction-side cache stack probed in parallel at fetch.
//
// Owns the optional L0 filter cache, the L1 I-cache tags and the L1 port
// (blocking or pipelined). Demand-fill policy (which levels a line fills on
// a demand miss) is configurable because FDP and CLGP differ in how they
// use the hierarchy (paper §3.1.1 / §3.2.4).
#pragma once

#include <optional>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/port.hpp"

namespace prestage::mem {

struct IFetchCachesConfig {
  std::uint64_t l1_size_bytes = 4096;
  std::uint32_t l1_assoc = 2;      ///< Table 2
  std::uint32_t line_bytes = 64;   ///< Table 2
  int l1_latency = 1;
  bool l1_pipelined = false;
  bool has_l0 = false;
  std::uint64_t l0_size_bytes = 256;
  int l0_latency = 1;
};

class IFetchCaches {
 public:
  explicit IFetchCaches(const IFetchCachesConfig& config)
      : config_(config),
        l1_(config.l1_size_bytes, config.line_bytes, config.l1_assoc),
        l1_port_(config.l1_latency, config.l1_pipelined),
        prefetch_port_(config.l1_latency, /*pipelined=*/true) {
    if (config.has_l0) {
      // The L0 is fully associative like the pre-buffers it complements.
      l0_.emplace(config.l0_size_bytes, config.line_bytes, /*assoc=*/0);
    }
  }

  [[nodiscard]] const IFetchCachesConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool has_l0() const noexcept { return l0_.has_value(); }

  /// Tag probes without LRU side effects (used by prefetch filtering).
  [[nodiscard]] bool probe_l0(Addr line) const {
    return l0_ && l0_->contains(line);
  }
  [[nodiscard]] bool probe_l1(Addr line) const { return l1_.contains(line); }

  /// Demand lookups: update LRU state.
  [[nodiscard]] bool access_l0(Addr line) {
    return l0_ && l0_->access(line);
  }
  [[nodiscard]] bool access_l1(Addr line) { return l1_.access(line); }

  /// Fill policy for a line arriving from L2/memory on a *demand* miss:
  /// installs into L1 and, when present, L0 (the "emergency" path).
  void fill_demand(Addr line) {
    l1_.insert(line);
    if (l0_) l0_->insert(line);
  }

  /// Fill used by FDP when a prefetch-buffer line is consumed: moves into
  /// L0 if configured, else into L1 (paper §3.1/§3.1.1).
  void fill_promoted(Addr line) {
    if (l0_) {
      l0_->insert(line);
    } else {
      l1_.insert(line);
    }
  }

  /// Installs @p line into the L0 only (no-op without one). The fetch
  /// engine calls it on every L1 demand hit, so a filter-cache L0 learns
  /// each line the fetch stage touches.
  void fill_l0_only(Addr line) {
    if (l0_) l0_->insert(line);
  }

  [[nodiscard]] LatencyPort& l1_port() noexcept { return l1_port_; }

  /// Background read path used for L1 -> pre-buffer transfers: streamed
  /// block moves pipeline through the array at full L1 latency but one
  /// line per cycle, without occupying the demand port (the transfer
  /// engine's own port; cf. the paper's pipelining discussion, §1).
  [[nodiscard]] LatencyPort& prefetch_port() noexcept {
    return prefetch_port_;
  }

  [[nodiscard]] int l0_latency() const noexcept { return config_.l0_latency; }
  [[nodiscard]] int l1_latency() const noexcept { return config_.l1_latency; }

  [[nodiscard]] SetAssocCache& l1() noexcept { return l1_; }
  [[nodiscard]] SetAssocCache* l0() noexcept {
    return l0_ ? &*l0_ : nullptr;
  }

 private:
  IFetchCachesConfig config_;
  std::optional<SetAssocCache> l0_;
  SetAssocCache l1_;
  LatencyPort l1_port_;
  LatencyPort prefetch_port_;
};

}  // namespace prestage::mem
