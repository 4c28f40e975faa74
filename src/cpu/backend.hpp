// The execution back-end: decode pipe, RUU (register update unit),
// scoreboard, data cache and in-order commit.
//
// Trace-driven timing model of the paper's Table 2 core: 4-wide
// fetch/issue/commit, 64-entry RUU, 15-stage pipeline (fetch +
// kDecodeStages to dispatch + execute/commit), 2-ported 1-cycle 32 KB
// D-cache with L2 behind the arbitrated bus (highest priority class).
// Wrong-path instructions occupy pipe and RUU slots and pollute D-cache
// LRU but never touch the scoreboard or commit counts; the culprit
// instruction's completion raises the recovery event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "cpu/config.hpp"
#include "cpu/oracle.hpp"
#include "frontend/fetch_engine.hpp"
#include "mem/cache.hpp"
#include "mem/memsys.hpp"
#include "workload/program.hpp"
#include "workload/trace.hpp"

namespace prestage::cpu {

class Backend final : public frontend::IFetchSink {
 public:
  Backend(const MachineConfig& cfg, Oracle& oracle,
          const workload::Program& program, mem::MemSystem& mem);

  // --- IFetchSink (fetch delivers into the decode pipe) -----------------
  [[nodiscard]] bool can_accept() const override { return !decode_.full(); }
  void accept(const frontend::FetchedInst& inst) override;

  // --- per-cycle stages (called by the CPU in order) --------------------
  void begin_cycle(Cycle now) { now_ = now; }

  /// True when a culprit instruction has completed execution and its
  /// misprediction must be recovered this cycle.
  [[nodiscard]] bool recovery_due(Cycle now) const;

  /// Squashes everything younger than the resolved culprit: the whole
  /// decode pipe and all younger RUU entries.
  void squash_younger_than_culprit();

  void tick_commit(Cycle now);
  void tick_issue(Cycle now);
  void tick_dispatch(Cycle now);

  /// Event-horizon forecast (cpu/cpu.cpp fast-forward): the earliest
  /// cycle any stage acts, read from the same predicates the stages
  /// decide through — the head's commit, the culprit's recovery, an
  /// unissued slot's sources, the decode front's dispatch age. <= @p now
  /// means work this cycle; kNoCycle means only an external event can
  /// wake the back-end (outstanding-load fills ride the MemSystem
  /// horizon). While a full RUU blocks the decode pipe, names
  /// ruu_full_stalls, which tick_dispatch bumps once per frozen cycle.
  [[nodiscard]] IdlePlan idle_plan(Cycle now);

  [[nodiscard]] std::uint64_t committed() const noexcept {
    return committed_;
  }

  // --- statistics -------------------------------------------------------
  Counter wrong_path_dispatched;
  Counter dcache_hits;
  Counter dcache_misses;
  Counter store_commits;
  Counter ruu_full_stalls;

 private:
  // The Table 2 core, held fixed across the study.
  static constexpr std::uint32_t kRuuSize = 64;
  static constexpr std::uint32_t kDecodeStages = 8;  ///< fetch->dispatch
  static constexpr std::uint64_t kL1dSize = 32768;
  static constexpr std::uint32_t kL1dAssoc = 2;
  static constexpr std::uint32_t kL1dPorts = 2;

  struct Staged {
    frontend::FetchedInst f;
    std::uint64_t order = 0;
    Cycle ready_at = 0;  ///< cycle it may dispatch (decode latency)
  };

  struct Slot {
    frontend::FetchedInst f;
    std::uint64_t order = 0;
    OpClass op = OpClass::IntAlu;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    Addr data_addr = kNoAddr;
    Cycle done = kNoCycle;  ///< completion cycle; kNoCycle = outstanding
    bool issued = false;
  };

  // The predicates the stages decide through and idle_plan() reads.
  /// The cycle the head retires: its completion, once it has issued
  /// (kNoCycle while a load's fill is outstanding).
  [[nodiscard]] Cycle commit_at() const {
    if (ruu_.empty() || !ruu_.front().issued) return kNoCycle;
    return ruu_.front().done;
  }
  /// The cycle the unresolved culprit completes and recovery fires.
  [[nodiscard]] Cycle recovery_at() const {
    return culprit_ == nullptr ? kNoCycle : culprit_->done;
  }
  /// The cycle both of @p s's sources are ready.
  [[nodiscard]] Cycle issue_at(const Slot& s) const {
    const auto ready = [this](RegId r) {
      return r == kNoReg ? Cycle{0} : reg_ready_[r];
    };
    return std::max(ready(s.src1), ready(s.src2));
  }
  /// A decode entry waits behind a full RUU: dispatch stalls until
  /// commit frees a slot.
  [[nodiscard]] bool dispatch_blocked() const {
    return !decode_.empty() && ruu_.size() >= kRuuSize;
  }
  [[nodiscard]] static int exec_latency(OpClass op);
  void issue_one(Slot& s, Cycle now, std::uint32_t& loads_this_cycle);

  MachineConfig cfg_;
  Oracle& oracle_;
  const workload::Program& prog_;
  mem::MemSystem& mem_;
  mem::SetAssocCache l1d_;

  RingBuffer<Staged> decode_;
  RingBuffer<Slot> ruu_;  ///< filled in place at dispatch, never copied
  // Hot-path pointers into ruu_'s fixed storage. A ring slot never moves;
  // it is only reused after it leaves the ring, so a pointer stays valid
  // while its slot is live. Commit pops only issued slots (never in
  // unissued_), and the culprit cannot reach commit: recovery fires first.
  // Squash pops only slots younger than the culprit and prunes unissued_
  // alongside. A D-cache fill's slot is correct-path, so it is never
  // squashed, and it cannot commit before the fill sets `done`.
  std::vector<Slot*> unissued_;  ///< dispatch order; tick_issue's scan set
  // The unresolved culprit, or nullptr. The driver predicts no
  // correct-path block past a divergence, so there is at most one.
  Slot* culprit_ = nullptr;
  Cycle reg_ready_[kNumRegs] = {};
  std::uint64_t next_order_ = 1;
  std::uint64_t committed_ = 0;
  Cycle now_ = 0;
};

}  // namespace prestage::cpu
