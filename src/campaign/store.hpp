// Append-only JSONL result store: one run point per line, keyed by the
// point's content hash, which is what makes campaigns resumable —
// rerunning a campaign skips every key that already has a line.
//
// Loading is deliberately forgiving: a line that fails to parse (a run
// killed mid-write leaves a truncated tail; disk corruption can garble
// the middle) is counted and skipped, never fatal. The engine then
// simply recomputes the dropped points, so a damaged store heals on the
// next `campaign resume`. Appends flush line-by-line for the same
// reason: everything written before a crash is a complete, loadable
// record.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/faultpoint.hpp"
#include "cpu/cpu.hpp"

namespace prestage::campaign {

/// One stored simulation: the point's identity (denormalized for
/// human-readable stores and cross-store comparison) plus the full
/// RunResult.
struct PointResult {
  std::string key;        ///< RunPoint::key() content hash
  std::string preset;     ///< preset spelling the grid used
  /// Canonical machine-config string (sim::canonical_name). Stored
  /// separately from `preset` so `campaign compare` can diff stores
  /// produced by different registry versions and call out renamed or
  /// no-longer-registered configurations by name instead of silently
  /// failing to pair their keys.
  std::string config;
  std::string node;       ///< "0.045um" style node name
  std::string benchmark;
  std::uint64_t l1i_size = 0;
  std::uint64_t instructions = 0;  ///< configured budget (not committed)
  std::uint64_t seed = 1;
  cpu::RunResult result;
};

/// Serializes to one compact JSON line (no trailing newline).
[[nodiscard]] std::string encode_line(const PointResult& r);

/// Parses one store line; throws json::JsonError on any malformed or
/// incomplete record.
[[nodiscard]] PointResult decode_line(std::string_view line);

/// The one JSONL loader behind the store and its sidecars: hands each
/// non-blank line of @p path to @p add, which decodes and keeps it, and
/// returns how many lines it threw json::JsonError on. Those lines (a
/// torn tail from a killed run, a corrupt middle) are skipped, never
/// fatal. A missing file reads as empty.
[[nodiscard]] std::size_t load_jsonl(
    const std::string& path, const std::function<void(std::string)>& add);

/// A JSONL sidecar of @p Record lines parsed by @p Decode, loaded in file
/// order. Sidecar telemetry must never block a campaign flow, so corrupt
/// lines are dropped, but they are *counted*: a torn tail from a killed
/// run would otherwise silently shrink the totals.
template <typename Record, Record (*Decode)(std::string_view)>
class RecordLog {
 public:
  [[nodiscard]] static RecordLog load(const std::string& path) {
    RecordLog log;
    log.dropped_ = load_jsonl(
        path, [&log](const std::string& line) { log.add(Decode(line)); });
    return log;
  }

  void add(Record r) { records_.push_back(std::move(r)); }
  void note_dropped(std::size_t n = 1) { dropped_ += n; }

  [[nodiscard]] const std::vector<Record>& records() const {
    return records_;
  }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Corrupt/torn JSONL lines skipped while loading.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  std::vector<Record> records_;
  std::size_t dropped_ = 0;
};

class ResultStore {
 public:
  struct LoadStats {
    std::size_t loaded = 0;   ///< well-formed records
    std::size_t skipped = 0;  ///< corrupt/truncated lines dropped
  };

  /// Reads @p path; a missing file yields an empty store (a campaign's
  /// first run starts from nothing). Corrupt lines are dropped into
  /// load_stats().skipped. Duplicate keys keep the first record (append
  /// order: the original result wins; later duplicates are no-ops).
  [[nodiscard]] static ResultStore load(const std::string& path);

  /// In-memory insert (bench harnesses, tests). First key wins, like load.
  void insert(PointResult r);

  [[nodiscard]] bool contains(const std::string& key) const {
    return index_.count(key) > 0;
  }
  /// nullptr when the key is absent.
  [[nodiscard]] const PointResult* find(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<PointResult>& entries() const {
    return entries_;  // file order
  }
  /// The exact on-disk line of each entry, aligned with entries().
  /// Compaction re-emits these verbatim: a decode/re-encode round trip
  /// must never be able to change a stored byte. In-memory insert()s
  /// synthesize theirs through encode_line (what append would write).
  [[nodiscard]] const std::vector<std::string>& raw_lines() const {
    return raw_lines_;
  }
  [[nodiscard]] const LoadStats& load_stats() const { return stats_; }

 private:
  void insert_raw(PointResult r, std::string raw);

  std::vector<PointResult> entries_;
  std::vector<std::string> raw_lines_;
  std::map<std::string, std::size_t> index_;
  LoadStats stats_;
};

/// Append-only JSONL writer. Creates parent directories and the file on
/// open, terminates a torn tail line left by a killed writer, and
/// append() writes one line plus '\n' and flushes, throwing SimError if
/// the write does not land (full disk must not be mistaken for
/// progress). Shared by the result store and the host-perf/failures
/// sidecars.
///
/// @p site, when set, compiles a fault probe into append_line (the
/// whole line is the probe context, so key= triggers match against the
/// embedded "key" field). @p durable adds an fsync after every flush:
/// a line append_line returned from has reached the device, not just
/// the page cache — the crash-consistency contract a power cut tests.
class LineAppender {
 public:
  explicit LineAppender(const std::string& path,
                        std::optional<faults::Site> site = std::nullopt,
                        bool durable = false);
  ~LineAppender();
  LineAppender(const LineAppender&) = delete;
  LineAppender& operator=(const LineAppender&) = delete;

  void append_line(const std::string& line);

 private:
  struct Impl;
  Impl* impl_;
};

/// LineAppender over encode_line(): the result-store writer.
class StoreAppender {
 public:
  explicit StoreAppender(const std::string& path, bool durable = false)
      : lines_(path, faults::Site::StoreAppend, durable) {}

  void append(const PointResult& r) { lines_.append_line(encode_line(r)); }

 private:
  LineAppender lines_;
};

}  // namespace prestage::campaign
