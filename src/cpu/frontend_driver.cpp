#include "cpu/frontend_driver.hpp"

#include "frontend/fetch_types.hpp"

namespace prestage::cpu {

using frontend::FetchBlock;

Addr FrontendDriver::apply_ras(const bpred::Stream& pred) {
  Addr next = pred.next_start;
  if (!prog_.contains_pc(pred.last_pc())) return next;
  const OpClass op = prog_.static_inst_at(pred.last_pc()).op;
  const bool predicted_taken = pred.next_start != pred.end();
  if (op == OpClass::Call && predicted_taken) {
    // Return address: the instruction after the call.
    ras_.push(pred.end());
  } else if (op == OpClass::Return && predicted_taken) {
    const Addr from_ras = ras_.pop();
    if (from_ras != kNoAddr) next = from_ras;
  }
  return next;
}

Addr FrontendDriver::clamp_pc(Addr pc) const {
  if (prog_.contains_pc(pc)) return pc;
  const Addr size = prog_.code_end() - prog_.code_begin();
  return prog_.code_begin() + ((pc % size) & ~(kInstrBytes - 1));
}

void FrontendDriver::predict_verified(Cycle now) {
  (void)now;
  const bpred::Stream actual = oracle_.remainder();
  bpred::Stream pred = predictor_.predict(actual.start);
  const Addr next = apply_ras(pred);
  pred.next_start = next == kNoAddr ? pred.end() : next;
  pred_len.sample(pred.length);
  actual_len.sample(actual.length);

  // Train with the actual stream (commit-lead training; §4 allows
  // speculative lookup/update, training here keeps tables stable).
  predictor_.train(actual);

  FetchBlock block;
  block.start = actual.start;
  block.oracle_base_seq = oracle_.seq_at_cursor();

  const bool benign_split =
      pred.length < actual.length && pred.next_start == pred.end();
  if (benign_split) {
    // The predictor cut the stream early but continues sequentially: the
    // fetched instruction sequence is identical, so no misprediction.
    benign_splits.add();
    block.length = pred.length;
    block.wrong_from = pred.length;
    block.culprit_index = -1;
    oracle_.consume(pred.length);
    queue_.push_block(block);
    blocks_predicted.add();
    return;
  }

  const bool exact = pred.length == actual.length &&
                     pred.next_start == actual.next_start;
  if (exact) {
    block.length = actual.length;
    block.wrong_from = actual.length;
    block.culprit_index = -1;
    oracle_.consume(actual.length);
    queue_.push_block(block);
    blocks_predicted.add();
    return;
  }

  // An unpredicted *direct unconditional* (jump or call) is caught by the
  // branch address calculator at decode: the block truncates at it, fetch
  // resumes at its static target after a short bubble, and no pipeline
  // recovery happens. Returns and conditional branches must still resolve
  // in the back-end.
  if (pred.length > actual.length && prog_.contains_pc(actual.last_pc())) {
    const OpClass term = prog_.static_inst_at(actual.last_pc()).op;
    if (term == OpClass::Jump || term == OpClass::Call) {
      decode_redirects.add();
      block.length = actual.length;
      block.wrong_from = actual.length;
      block.culprit_index = -1;
      if (term == OpClass::Call) ras_.push(actual.end());
      oracle_.consume(actual.length);
      queue_.push_block(block);
      blocks_predicted.add();
      redirect_stall_ = 2;  // discarded sequential fetch + refetch
      return;
    }
  }

  // Divergence. Identify the first instruction whose implicit prediction
  // is wrong; everything the front-end fetches beyond it is wrong-path.
  stream_mispredictions.add();
  if (first_after_recovery_) div_at_resume.add();
  if (pred.length == actual.length) {
    div_target.add();
  } else if (pred.length > actual.length) {
    div_len_over.add();
  } else {
    div_len_under.add();
  }
  if (pred.length == bpred::kMaxStreamInstrs &&
      pred.next_start == pred.end() && actual.length < pred.length) {
    div_on_table_miss.add();
  }
  if (pred.length >= actual.length) {
    // The actual stream ends (taken) before the predicted one, or ends at
    // the same place with a different target: the culprit is the actual
    // terminator.
    block.length = pred.length;
    block.wrong_from = actual.length;
    block.culprit_index = static_cast<std::int32_t>(actual.length - 1);
    oracle_.consume(actual.length);
  } else {
    // Predicted taken (or redirected) where the actual stream continues:
    // the culprit is the predicted terminator; the block's instructions
    // are all a correct-path prefix.
    block.length = pred.length;
    block.wrong_from = pred.length;
    block.culprit_index = static_cast<std::int32_t>(pred.length - 1);
    oracle_.consume(pred.length);
  }
  queue_.push_block(block);
  blocks_predicted.add();
  wrong_path_ = true;
  wrong_pc_ = clamp_pc(pred.next_start);
}

void FrontendDriver::predict_wrong_path(Cycle now) {
  (void)now;
  bpred::Stream pred = predictor_.predict(wrong_pc_);
  const Addr next = apply_ras(pred);
  pred.next_start = next == kNoAddr ? pred.end() : next;

  FetchBlock block;
  block.start = wrong_pc_;
  block.length = pred.length;
  block.oracle_base_seq = frontend::kNoSeq;
  block.wrong_from = 0;
  block.culprit_index = -1;
  queue_.push_block(block);
  blocks_predicted.add();
  wrong_path_blocks.add();
  wrong_pc_ = clamp_pc(pred.next_start);
}

void FrontendDriver::tick(Cycle now) {
  if (idle_plan(now).next_event > now) return;
  if (redirect_stall_ > 0) {
    --redirect_stall_;
    return;
  }
  if (wrong_path_) {
    predict_wrong_path(now);
  } else {
    predict_verified(now);
    first_after_recovery_ = false;
  }
}

void FrontendDriver::on_recovery() {
  wrong_path_ = false;
  wrong_pc_ = kNoAddr;
  first_after_recovery_ = true;
  // Repair the speculative RAS with the oracle call stack (innermost
  // first in the snapshot; push outermost first).
  ras_.clear();
  const auto& snapshot = oracle_.stack_snapshot();
  for (std::size_t i = snapshot.size(); i > 0; --i) {
    ras_.push(snapshot[i - 1]);
  }
  ras_repairs.add();
}

}  // namespace prestage::cpu
