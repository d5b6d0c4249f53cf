/// \file util/byte_codec.h
/// \brief Bounds-checked little-endian byte encoder/decoder and the
/// 64-bit payload checksum shared by every on-wire and on-disk format
/// (cluster frames and messages, persist snapshots, serve warm-state
/// records).
///
/// Byte identity is the point: doubles cross as raw IEEE-754 bit
/// patterns (F64Bits), never formatted and reparsed, so a decoded score
/// or walk state is bit-for-bit the one that was encoded. Decoding is
/// fail-closed: a read past the end sets a sticky failure flag and
/// returns zero values; callers check status() once at the end (plus
/// Finish() to reject trailing bytes), never acting on a
/// partially-decoded message.

#ifndef DHTJOIN_UTIL_BYTE_CODEC_H_
#define DHTJOIN_UTIL_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace dhtjoin {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  /// Allocates `reserve` bytes up front (a frame encodes in one
  /// allocation); 0 grows as needed.
  explicit ByteWriter(std::size_t reserve = 0) { buf_.reserve(reserve); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { Put(v, 2); }
  void U32(uint32_t v) { Put(v, 4); }
  void U64(uint64_t v) { Put(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Raw IEEE-754 bits — the byte-identity-preserving double encoding.
  void F64Bits(double v);
  void Str(const std::string& s);
  /// Appends `bytes` verbatim.
  void Bytes(std::span<const uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  std::span<const uint8_t> bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so one writer can
  /// encode a stream of messages with no allocation once it has grown.
  void Clear() { buf_.clear(); }

 private:
  void Put(uint64_t v, std::size_t n);  // the low n bytes of v

  std::vector<uint8_t> buf_;
};

/// Bounds-checked decoder: reads past the end set a sticky failure
/// flag and return zero values; callers check status() once at the end
/// (plus Finish() to reject trailing bytes).
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8() { return static_cast<uint8_t>(Get(1)); }
  uint16_t U16() { return static_cast<uint16_t>(Get(2)); }
  uint32_t U32() { return static_cast<uint32_t>(Get(4)); }
  uint64_t U64() { return Get(8); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64Bits();
  std::string Str();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - off_; }

  /// kOk if every read so far was in bounds.
  Status status() const;
  /// status(), additionally requiring the buffer fully consumed.
  Status Finish() const;

 private:
  bool Take(std::size_t n, const uint8_t** out);
  uint64_t Get(std::size_t n);  // n little-endian bytes; 0 past the end

  std::span<const uint8_t> data_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// 64-bit checksum over a byte string (SplitMix64-chained over 8-byte
/// words, length-mixed). Not cryptographic — it exists to catch the
/// truncation/bit-flip faults the chaos harness injects, real half-dead
/// peers produce, and torn or rotted disk sectors leave behind.
uint64_t FrameChecksum(std::span<const uint8_t> payload);

/// FrameChecksum of `head` followed by `body`, without joining them.
/// `head.size()` must be a multiple of 8 (a fixed-size frame prefix).
uint64_t FrameChecksum(std::span<const uint8_t> head,
                       std::span<const uint8_t> body);

}  // namespace dhtjoin

#endif  // DHTJOIN_UTIL_BYTE_CODEC_H_
