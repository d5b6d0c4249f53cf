#include "cluster/frame.h"

#include <string>

namespace dhtjoin::cluster {

Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> in) {
  if (in.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header truncated: " +
                                   std::to_string(in.size()) + " bytes");
  }
  ByteReader r(in.first(kFrameHeaderBytes));
  FrameHeader h;
  h.magic = r.U32();
  h.version = r.U16();
  h.type = r.U16();
  h.request_id = r.U64();
  h.payload_len = r.U32();
  h.checksum = r.U64();
  if (h.magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (h.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: got " + std::to_string(h.version) +
        ", want " + std::to_string(kProtocolVersion));
  }
  if (h.payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload length over cap: " +
                                   std::to_string(h.payload_len));
  }
  return h;
}

Status VerifyFramePayload(const FrameHeader& header,
                          std::span<const uint8_t> payload) {
  if (payload.size() != header.payload_len) {
    return Status::IOError("frame payload truncated: got " +
                           std::to_string(payload.size()) + " of " +
                           std::to_string(header.payload_len) + " bytes");
  }
  if (FrameChecksum(payload) != header.checksum) {
    return Status::IOError("frame checksum mismatch");
  }
  return Status::OK();
}

// Encode and decode both go through the shared little-endian codec
// (util/byte_codec.h); the header fields are laid out back to back, so
// the fixed offsets of frame.h fall out of the write order. The frame
// is built in the one buffer it is returned in.
std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t request_id,
                                 std::span<const uint8_t> payload) {
  ByteWriter w(kFrameHeaderBytes + payload.size());
  w.U32(kFrameMagic);
  w.U16(kProtocolVersion);
  w.U16(static_cast<uint16_t>(type));
  w.U64(request_id);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U64(FrameChecksum(payload));
  w.Bytes(payload);
  return w.Take();
}

}  // namespace dhtjoin::cluster
