// The decoupling queues between branch prediction and fetch.
//
// FTQ (fetch target queue) stores whole fetch blocks — one block per
// entry, as in Reinman et al.'s scalable front-end. CLTQ (cache line
// target queue, the paper's §3.2.1) stores the same requests split into
// fetch cache lines, one line per entry with a "prefetched" bit. Both hold
// at most the same number of *blocks* (8, Table 2), so both give the
// prefetcher identical lookahead; they differ only in granularity —
// exactly the comparison the paper draws.
#pragma once

#include <cstdint>
#include <optional>

#include "common/ring_buffer.hpp"
#include "frontend/fetch_types.hpp"

namespace prestage::frontend {

/// Fetch-side and predictor-side interface shared by FTQ and CLTQ.
class IFetchQueue {
 public:
  virtual ~IFetchQueue() = default;

  // --- predictor side ---
  [[nodiscard]] virtual bool can_accept_block() const = 0;
  virtual void push_block(const FetchBlock& block) = 0;

  // --- fetch side ---
  /// Next line to fetch, or nullopt when empty.
  [[nodiscard]] virtual std::optional<LineView> peek_line() const = 0;
  /// Consumes the line returned by peek_line().
  virtual void consume_line() = 0;

  /// Squashes all contents (branch misprediction recovery).
  virtual void flush() = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::uint32_t blocks_held() const = 0;
};

/// Splits a block into line views. @p index selects the i-th line.
/// Returns nullopt once past the block's last line.
[[nodiscard]] std::optional<LineView> line_of_block(const FetchBlock& block,
                                                    std::uint32_t line_bytes,
                                                    std::uint32_t index);

/// Number of cache lines a block spans.
[[nodiscard]] std::uint32_t lines_in_block(const FetchBlock& block,
                                           std::uint32_t line_bytes);

/// Address of the @p index-th line a block spans (no range check).
[[nodiscard]] inline Addr line_addr_of_block(const FetchBlock& block,
                                             std::uint32_t line_bytes,
                                             std::uint32_t index) {
  return line_align(block.start, line_bytes) +
         static_cast<Addr>(index) * line_bytes;
}

class FetchTargetQueue final : public IFetchQueue {
 public:
  struct Entry {
    FetchBlock block;
    std::uint32_t lines = 0;          ///< lines the block spans (at push)
    std::uint32_t fetch_line = 0;     ///< next line for the fetch engine
    std::uint32_t prefetch_line = 0;  ///< FDP scan cursor within the block
  };

  FetchTargetQueue(std::uint32_t max_blocks, std::uint32_t line_bytes)
      : entries_(max_blocks), line_bytes_(line_bytes) {}

  [[nodiscard]] bool can_accept_block() const override {
    return !entries_.full();
  }
  void push_block(const FetchBlock& block) override {
    entries_.push(Entry{block, lines_in_block(block, line_bytes_), 0, 0});
    head_view_valid_ = false;
  }

  [[nodiscard]] std::optional<LineView> peek_line() const override {
    if (entries_.empty()) return std::nullopt;
    // The head view is peeked by the fetch engine's tick *and* its idle
    // plan every cycle; recomputing the split only when the head entry
    // or its cursor moves keeps the common re-peek at a cached copy.
    if (!head_view_valid_) {
      const Entry& e = entries_.at(0);
      head_view_ = line_of_block(e.block, line_bytes_, e.fetch_line);
      head_view_valid_ = true;
    }
    return head_view_;
  }
  void consume_line() override;

  void flush() override {
    entries_.clear();
    head_view_valid_ = false;
  }
  [[nodiscard]] bool empty() const override { return entries_.empty(); }
  [[nodiscard]] std::uint32_t blocks_held() const override {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// FDP scan access: entry @p i (0 == oldest).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] Entry& entry(std::size_t i) { return entries_.at(i); }
  [[nodiscard]] const Entry& entry(std::size_t i) const {
    return entries_.at(i);
  }
  [[nodiscard]] std::uint32_t line_bytes() const { return line_bytes_; }

 private:
  RingBuffer<Entry> entries_;
  std::uint32_t line_bytes_;
  mutable std::optional<LineView> head_view_;  ///< cached peek_line()
  mutable bool head_view_valid_ = false;
};

class CacheLineTargetQueue final : public IFetchQueue {
 public:
  /// @param max_blocks   block capacity (same lookahead as the FTQ)
  /// @param line_bytes   cache line size
  /// Line capacity is max_blocks * worst-case lines per block.
  CacheLineTargetQueue(std::uint32_t max_blocks, std::uint32_t line_bytes);

  [[nodiscard]] bool can_accept_block() const override {
    return blocks_held_ < max_blocks_ && lines_.size() + kMaxLinesPerBlock <=
                                             lines_.capacity();
  }
  void push_block(const FetchBlock& block) override;

  [[nodiscard]] std::optional<LineView> peek_line() const override {
    if (lines_.empty()) return std::nullopt;
    return lines_.at(0).view;
  }
  void consume_line() override;

  void flush() override;
  [[nodiscard]] bool empty() const override { return lines_.empty(); }
  [[nodiscard]] std::uint32_t blocks_held() const override {
    return blocks_held_;
  }

  // --- CLGP scan interface (paper §3.2.3) ---
  /// Number of line entries currently queued.
  [[nodiscard]] std::size_t lines_held() const { return lines_.size(); }
  /// Index of the first entry the scan has not yet processed. The scan
  /// marks entries strictly front-to-back, so the prefetched bits form a
  /// prefix; the cached cursor only ever advances (and backs up by one
  /// per consumed line), making the every-cycle scan start amortised
  /// O(1) instead of re-walking the marked prefix.
  [[nodiscard]] std::size_t first_unprefetched() const {
    while (scan_start_ < lines_.size() &&
           lines_.at(scan_start_).view.prefetched) {
      ++scan_start_;
    }
    return scan_start_;
  }
  /// True if entry @p i has already been processed by the CLGP scan.
  [[nodiscard]] bool is_prefetched(std::size_t i) const {
    return lines_.at(i).view.prefetched;
  }
  /// Line entry access for the scan.
  [[nodiscard]] const LineView& line_at(std::size_t i) const {
    return lines_.at(i).view;
  }
  /// Sets the "prefetched bit" of entry @p i.
  void mark_prefetched(std::size_t i) {
    lines_.at(i).view.prefetched = true;
  }

  static constexpr std::uint32_t kMaxLinesPerBlock = 6;  // 64 instrs / 16 + 2

 private:
  struct LineEntry {
    LineView view;
    bool last_of_block = false;
  };

  RingBuffer<LineEntry> lines_;
  std::uint32_t max_blocks_;
  std::uint32_t line_bytes_;
  std::uint32_t blocks_held_ = 0;
  mutable std::size_t scan_start_ = 0;  ///< first_unprefetched() cursor
};

}  // namespace prestage::frontend
