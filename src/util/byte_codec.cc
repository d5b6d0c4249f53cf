#include "util/byte_codec.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "util/rng.h"

namespace dhtjoin {

// ------------------------------------------------------------ ByteWriter

void ByteWriter::Put(uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buf_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xffu));
  }
}

void ByteWriter::F64Bits(double v) { U64(std::bit_cast<uint64_t>(v)); }

void ByteWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

// ------------------------------------------------------------ ByteReader

bool ByteReader::Take(std::size_t n, const uint8_t** out) {
  if (!ok_ || data_.size() - off_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + off_;
  off_ += n;
  return true;
}

uint64_t ByteReader::Get(std::size_t n) {
  const uint8_t* p = nullptr;
  if (!Take(n, &p)) return 0;
  uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

double ByteReader::F64Bits() { return std::bit_cast<double>(U64()); }

std::string ByteReader::Str() {
  uint32_t n = U32();
  if (!ok_ || data_.size() - off_ < n) {
    ok_ = false;
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + off_), n);
  off_ += n;
  return s;
}

Status ByteReader::status() const {
  if (!ok_) return Status::InvalidArgument("wire message truncated");
  return Status::OK();
}

Status ByteReader::Finish() const {
  DHTJOIN_RETURN_NOT_OK(status());
  if (off_ != data_.size()) {
    return Status::InvalidArgument("wire message has trailing bytes");
  }
  return Status::OK();
}

// -------------------------------------------------------------- checksum

namespace {

/// Folds `bytes` into the chain: 8-byte words, then the zero-padded tail.
uint64_t FoldWords(uint64_t acc, std::span<const uint8_t> bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    uint64_t s = acc ^ word;
    acc = SplitMix64(s);
  }
  if (i < bytes.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    uint64_t s = acc ^ tail;
    acc = SplitMix64(s);
  }
  return acc;
}

}  // namespace

uint64_t FrameChecksum(std::span<const uint8_t> payload) {
  return FrameChecksum({}, payload);
}

uint64_t FrameChecksum(std::span<const uint8_t> head,
                       std::span<const uint8_t> body) {
  // SplitMix64 chain seeded with the length, over 8-byte words, then
  // the tail. Chained (each word is folded into the state through the
  // full mixer) so reordered or shifted bytes change the sum, unlike a
  // XOR fold. A whole-word head leaves body's words where the
  // concatenation has them, so the sum is that of head ++ body.
  assert(head.size() % 8 == 0);
  uint64_t acc = 0x9e3779b97f4a7c15ULL ^ (head.size() + body.size());
  acc = FoldWords(FoldWords(acc, head), body);
  return SplitMix64(acc);
}

}  // namespace dhtjoin
