// Little-endian binary encoding for on-disk artifacts (the design
// cache's serialized entries). ByteWriter appends to an owned buffer;
// ByteReader is a bounds-checked cursor over a view that throws
// hlsprof::Error on any read past the end — truncated or corrupt input
// surfaces as an exception the caller turns into a cache miss, never as
// undefined behavior. All multi-byte values are little-endian and fixed
// width, so encoded bytes are identical across platforms (the same
// property common/hash.hpp guarantees for digests).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hlsprof {

class ByteWriter {
 public:
  ByteWriter& u8(std::uint8_t v) {
    buf_.push_back(char(v));
    return *this;
  }
  ByteWriter& u16(std::uint16_t v) { return le(v, 2); }
  ByteWriter& u32(std::uint32_t v) { return le(v, 4); }
  ByteWriter& u64(std::uint64_t v) { return le(v, 8); }
  ByteWriter& i32(std::int32_t v) { return u32(std::uint32_t(v)); }
  ByteWriter& i64(std::int64_t v) { return u64(std::uint64_t(v)); }
  ByteWriter& boolean(bool v) { return u8(v ? 1 : 0); }

  /// Doubles travel by bit pattern (exact round trip, no locale/printf).
  ByteWriter& f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }

  /// Length-prefixed string: u32 byte count + raw bytes.
  ByteWriter& str(std::string_view s);

  ByteWriter& bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
    return *this;
  }

  const std::string& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }

 private:
  /// One append per value: a push_back per byte made encoding a kernel
  /// (DesignCache::key_of, once per job) several times slower.
  ByteWriter& le(std::uint64_t v, int n) {
    char b[8];
    for (int i = 0; i < n; ++i) b[i] = char((v >> (8 * i)) & 0xff);
    buf_.append(b, std::size_t(n));
    return *this;
  }
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    require(1);
    return std::uint8_t(data_[pos_++]);
  }
  std::uint16_t u16() { return std::uint16_t(le(2)); }
  std::uint32_t u32() { return std::uint32_t(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return std::int32_t(u32()); }
  std::int64_t i64() { return std::int64_t(u64()); }
  bool boolean() { return u8() != 0; }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Counterpart of ByteWriter::str. Throws if the prefix runs past the
  /// end of the buffer.
  std::string str();

  /// Consume `n` raw bytes (a view into the underlying buffer).
  std::string_view view(std::size_t n) {
    require(n);
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  /// Throws hlsprof::Error unless `n` more bytes are available.
  void require(std::size_t n) const;

 private:
  std::uint64_t le(int n) {
    require(std::size_t(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= std::uint64_t(std::uint8_t(data_[pos_ + std::size_t(i)]))
           << (8 * i);
    }
    pos_ += std::size_t(n);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace hlsprof
