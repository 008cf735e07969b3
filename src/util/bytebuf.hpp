// Binary serialization primitives for the trace file formats.
//
// Fixed little-endian encodings plus LEB128-style varints. The trace formats
// (src/trace/trace_io) are defined on top of these, and the evaluation's
// "file size" criterion is the byte count produced here, so encodings must be
// stable.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace tracered {

/// Growable output byte buffer with primitive encoders.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Unsigned LEB128 varint.
  void uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zig-zag encoded signed varint.
  void svarint(std::int64_t v) {
    uvarint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  /// Length-prefixed string.
  void str(const std::string& s) {
    uvarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reader over a byte span: the decode primitives of every binary format.
/// Everything format-defining — the fixed-width layouts and the varint
/// validity rules of FORMATS.md — lives here exactly once. Throws
/// std::out_of_range on truncated input ("more bytes might complete this":
/// TraceDecoder waits for the next push on it) and std::runtime_error on
/// encodings no further bytes can fix.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size) : buf_(data), size_(size) {}

  bool atEnd() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::uint64_t uvarint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      need(1);
      const std::uint8_t b = buf_[pos_++];
      // The 10th byte may only carry bit 63: anything above is >= 64
      // significant bits, which FORMATS.md declares malformed — reject
      // instead of silently truncating the shifted-out payload. This is a
      // std::runtime_error, NOT std::out_of_range: out_of_range means
      // "truncated, more bytes could fix it" (the streaming decoder waits
      // on it), while an overflowing varint can never become valid no
      // matter how many bytes follow.
      if (shift == 63 && (b & 0x7e) != 0)
        throw std::runtime_error("uvarint overflows 64 bits");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) throw std::runtime_error("uvarint too long");
    }
    return v;
  }

  std::int64_t svarint() {
    const std::uint64_t z = uvarint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string str() {
    const std::uint64_t n = uvarint();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  // Compared via subtraction (pos_ <= size_ always) so a corrupt near-2^64
  // length prefix cannot wrap `pos_ + n` past the bound.
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) throw std::out_of_range("ByteReader: truncated input");
  }

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace tracered
