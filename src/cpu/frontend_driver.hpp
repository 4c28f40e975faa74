// The autonomous prediction engine of the decoupled front-end.
//
// Each cycle, while the FTQ/CLTQ has room, the stream predictor produces
// one fetch block. On the correct path every prediction is verified
// against the oracle's actual stream immediately (the implicit
// prediction of every instruction inside a stream — "not taken until the
// terminator, then jump to next_start" — makes the first diverging
// instruction identifiable at prediction time); the predictor trains on
// the actual stream. After a divergence the driver keeps predicting down
// the wrong path (speculative lookups and RAS updates included, paper §4)
// until the culprit instruction resolves in the back-end and recovery
// resynchronises everything with the oracle.
#pragma once

#include <cstdint>

#include "bpred/ras.hpp"
#include "bpred/stream_predictor.hpp"
#include "common/stats.hpp"
#include "cpu/oracle.hpp"
#include "frontend/fetch_queue.hpp"
#include "workload/program.hpp"

namespace prestage::cpu {

class FrontendDriver {
 public:
  FrontendDriver(bpred::StreamPredictor& predictor,
                 bpred::ReturnAddressStack& ras, Oracle& oracle,
                 frontend::IFetchQueue& queue,
                 const workload::Program& program)
      : predictor_(predictor),
        ras_(ras),
        oracle_(oracle),
        queue_(queue),
        prog_(program) {}

  /// Produces at most one fetch block per cycle (1-cycle predictor).
  void tick(Cycle now);

  /// Branch misprediction recovery: resynchronise with the oracle and
  /// repair the speculative RAS from the oracle's call-stack snapshot.
  void on_recovery();

  /// Event-horizon forecast (cpu/cpu.cpp fast-forward), and the test
  /// tick() acts on: work at @p now while a redirect bubble is draining
  /// (it counts down every tick) or the queue has room for a
  /// prediction, else kNoCycle — the fetch engine consuming a line is
  /// what unblocks a full queue, and the fetch horizon covers that.
  /// Names no per-cycle counter: an idle tick changes nothing.
  [[nodiscard]] IdlePlan idle_plan(Cycle now) const {
    const bool acts = redirect_stall_ > 0 || queue_.can_accept_block();
    return {acts ? now : kNoCycle, nullptr};
  }

  // --- statistics -------------------------------------------------------
  Counter blocks_predicted;
  Counter stream_mispredictions;  ///< divergences (length/target)
  Counter decode_redirects;  ///< unpredicted direct unconditionals caught
                             ///< by the branch address calculator
  Counter wrong_path_blocks;
  Counter ras_repairs;
  // Divergence breakdown (diagnostics):
  Counter div_len_over;    ///< predicted past an actual taken terminator
  Counter div_len_under;   ///< predicted taken where the stream continues
  Counter div_target;      ///< right length, wrong successor
  Counter div_on_table_miss;  ///< divergence on a fall-through prediction
  Counter benign_splits;   ///< early-cut predictions with seq continuation
  Counter div_at_resume;   ///< first post-recovery prediction diverged
  Distribution pred_len;   ///< predicted block lengths
  Distribution actual_len;  ///< actual (remainder) stream lengths

 private:
  void predict_verified(Cycle now);
  void predict_wrong_path(Cycle now);

  /// Applies speculative RAS semantics to a predicted stream and returns
  /// the possibly-overridden successor (returns pop the RAS).
  [[nodiscard]] Addr apply_ras(const bpred::Stream& pred);

  /// Keeps wrong-path PCs inside the program image.
  [[nodiscard]] Addr clamp_pc(Addr pc) const;

  bpred::StreamPredictor& predictor_;
  bpred::ReturnAddressStack& ras_;
  Oracle& oracle_;
  frontend::IFetchQueue& queue_;
  const workload::Program& prog_;
  bool wrong_path_ = false;
  Addr wrong_pc_ = kNoAddr;
  bool first_after_recovery_ = false;
  std::uint32_t redirect_stall_ = 0;  ///< decode-redirect fetch bubble
};

}  // namespace prestage::cpu
