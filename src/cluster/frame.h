/// \file cluster/frame.h
/// \brief Wire framing for the multi-process serving tier: a fixed
/// 28-byte length-prefixed header with magic, protocol version, frame
/// type, request id, payload length, and a payload checksum.
///
/// The tier is designed fault-first (DESIGN.md §12): a frame arriving
/// over a loopback socket may have been truncated by a dying worker or
/// corrupted by the chaos harness, so every byte of payload is covered
/// by a 64-bit checksum that the receiver verifies BEFORE decoding.
/// A frame that fails the magic, version, length-cap, or checksum test
/// is rejected with a typed Status and the connection is abandoned —
/// the retry/failover machinery above treats it like any other
/// transport fault, so corruption can cost latency but never
/// correctness.
///
/// Layout (all fields little-endian, fixed offsets):
///
///   offset  size  field
///   0       4     magic        "DHJ1" (0x314a4844)
///   4       2     version      kProtocolVersion
///   6       2     type         FrameType
///   8       8     request_id   caller-chosen correlation id
///   16      4     payload_len  bytes following the header
///   20      8     checksum     FrameChecksum(payload) (util/byte_codec.h)
///
/// The header itself is NOT covered by the checksum; a corrupted
/// header is caught by the magic/version/length tests with high
/// probability, and the bounded payload read after it fails fast.

#ifndef DHTJOIN_CLUSTER_FRAME_H_
#define DHTJOIN_CLUSTER_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/byte_codec.h"
#include "util/status.h"

namespace dhtjoin::cluster {

/// "DHJ1" read little-endian.
inline constexpr uint32_t kFrameMagic = 0x314a4844u;

/// Bumped on any incompatible change to the header or payload
/// encodings (cluster/wire.h). A version mismatch is a hard
/// kInvalidArgument — never silently reinterpreted.
inline constexpr uint16_t kProtocolVersion = 1;

/// Upper bound on a single payload; anything larger is treated as a
/// corrupted length field, not an allocation request.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Encoded header size in bytes.
inline constexpr std::size_t kFrameHeaderBytes = 28;

enum class FrameType : uint16_t {
  kHello = 1,        ///< worker identity request (coordinator -> worker)
  kHelloAck = 2,     ///< HelloInfo payload (worker -> coordinator)
  kTwoWay = 3,       ///< TwoWayWireRequest payload
  kTwoWayReply = 4,  ///< TwoWayWireReply payload
  kPing = 5,         ///< heartbeat probe (empty payload)
  kPong = 6,         ///< heartbeat answer (HelloInfo payload)
  kError = 7,        ///< transport-level error report (message payload)
};

struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint16_t version = kProtocolVersion;
  uint16_t type = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

/// Parses and validates a header (magic, version, payload length cap).
/// `in` must hold at least kFrameHeaderBytes.
Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> in);

/// Verifies the payload against the header's checksum and length.
Status VerifyFramePayload(const FrameHeader& header,
                          std::span<const uint8_t> payload);

/// Builds a complete frame (header + payload) ready to write to a
/// socket, computing the checksum.
std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t request_id,
                                 std::span<const uint8_t> payload);

}  // namespace dhtjoin::cluster

#endif  // DHTJOIN_CLUSTER_FRAME_H_
