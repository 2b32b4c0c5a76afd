// Little-endian byte stream writer/reader shared by the bytecode
// serializer and the controller wire protocol.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace eden::util {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  // LEB128: seven bits a byte, low bits first; a set top bit means more
  // bytes follow. Small values take one byte.
  void varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) {
      out_.push_back(static_cast<std::uint8_t>(v | 0x80));
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t> out_;
};

// Thrown on truncated or malformed streams.
class ByteStreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::span<const std::uint8_t> data = view(u32());
    return {reinterpret_cast<const char*>(data.data()), data.size()};
  }
  std::vector<std::uint8_t> bytes() {
    const std::span<const std::uint8_t> data = view(u32());
    return {data.begin(), data.end()};
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw ByteStreamError("varint too long");
  }
  // The next n bytes, viewed in place instead of copied.
  std::span<const std::uint8_t> view(std::uint64_t n) {
    need(n);
    const std::span<const std::uint8_t> data = bytes_.subspan(pos_, n);
    pos_ += n;
    return data;
  }
  bool exhausted() const { return pos_ == bytes_.size(); }
  // Bytes left to read. Decoders use it to sanity-check element counts
  // before reserving: a count that implies more payload than the frame
  // holds is malformed, not a reason to allocate gigabytes.
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::uint64_t n) {
    if (n > bytes_.size() - pos_) {
      throw ByteStreamError("truncated byte stream");
    }
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace eden::util
