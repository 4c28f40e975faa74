// The little-endian byte codec behind every binary format the simulator
// reads or writes: PSTR traces, PSCK sampling plans, raw ChampSim
// records and saved prefetcher state.
//
// Fields are encoded independently of host byte order. The reader is the
// one place that checks a read against the bytes left: every read, and
// every item count before anything is sized from it, throws a SimError
// prefixed with the caller's context ("trace file 'x.pstr': truncated"),
// so hostile bytes fail typed and never index or allocate past the input.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/prestage_assert.hpp"

namespace prestage {

/// Appends little-endian fields to a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Raw bytes, no length.
  void chars(std::string_view s) {
    // Byte loop rather than range-insert: GCC 12's -Wstringop-overflow
    // misfires on char-iterator vector inserts.
    for (const char c : s) out_.push_back(static_cast<std::uint8_t>(c));
  }
  /// A u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    chars(s);
  }

 private:
  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader over a byte range it does not
/// own; the range must outlive the reader and every view chars() returns.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::string context)
      : begin_(data), cur_(data), end_(data + size),
        context_(std::move(context)) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return *cur_++;
  }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(get(4));
  }
  [[nodiscard]] std::uint64_t u64() { return get(8); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  /// The next @p n raw bytes, as a view into the input.
  [[nodiscard]] std::string_view chars(std::size_t n) {
    need(n);
    const std::string_view s(reinterpret_cast<const char*>(cur_), n);
    cur_ += n;
    return s;
  }
  /// A u32 length, then that many bytes.
  [[nodiscard]] std::string str() { return std::string(chars(u32())); }

  /// A u32 item count, refused unless that many items of at least
  /// @p min_item_bytes each fit in the bytes left: a lying count fails
  /// here, before it can size an allocation.
  [[nodiscard]] std::uint32_t count(std::size_t min_item_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_item_bytes) {
      fail("count " + std::to_string(n) + " exceeds the bytes left");
    }
    return n;
  }

  [[nodiscard]] std::size_t position() const {
    return static_cast<std::size_t>(cur_ - begin_);
  }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - cur_);
  }
  [[nodiscard]] bool exhausted() const { return cur_ == end_; }

  /// Throws SimError("<context>: <what>").
  [[noreturn, gnu::cold, gnu::noinline]] void fail(
      std::string_view what) const {
    throw SimError(context_ + ": " + std::string(what));
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) [[unlikely]] fail("truncated");
  }
  std::uint64_t get(int bytes) {
    need(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(cur_[i]) << (8 * i);
    }
    cur_ += bytes;
    return v;
  }

  const std::uint8_t* begin_;
  const std::uint8_t* cur_;
  const std::uint8_t* end_;
  std::string context_;
};

}  // namespace prestage
