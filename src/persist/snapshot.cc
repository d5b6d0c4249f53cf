#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/byte_codec.h"

namespace dhtjoin::persist {

namespace {

/// Directory component of `path` ("." when none) — the fsync target
/// that makes the rename durable.
std::string DirOf(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status CloseUnlinkFail(int fd, const std::string& tmp, std::string msg) {
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  return Status::IOError(std::move(msg));
}

}  // namespace

const char* CheckpointPhaseName(CheckpointPhase phase) {
  switch (phase) {
    case CheckpointPhase::kAfterTempCreate: return "after-temp-create";
    case CheckpointPhase::kAfterTempWrite: return "after-temp-write";
    case CheckpointPhase::kAfterFsync: return "after-fsync";
    case CheckpointPhase::kBeforeRename: return "before-rename";
    case CheckpointPhase::kAfterRename: return "after-rename";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeSnapshot(const SnapshotFile& file) {
  ByteWriter header;
  header.U32(kSnapshotMagic);
  header.U16(kSnapshotVersion);
  header.U16(0);  // reserved
  header.U64(file.graph_fp);
  header.U64(file.params_fp);
  header.U64(static_cast<uint64_t>(file.sections.size()));
  const uint64_t header_checksum = FrameChecksum(header.bytes());

  ByteWriter out;
  out.U32(kSnapshotMagic);
  out.U16(kSnapshotVersion);
  out.U16(0);
  out.U64(file.graph_fp);
  out.U64(file.params_fp);
  out.U64(static_cast<uint64_t>(file.sections.size()));
  out.U64(header_checksum);
  std::vector<uint8_t> bytes = out.Take();
  for (const SnapshotSection& section : file.sections) {
    const std::size_t section_start = bytes.size();
    ByteWriter prefix;
    prefix.U32(section.kind);
    prefix.U32(0);  // reserved
    prefix.U64(static_cast<uint64_t>(section.payload.size()));
    auto p = prefix.Take();
    bytes.insert(bytes.end(), p.begin(), p.end());
    bytes.insert(bytes.end(), section.payload.begin(), section.payload.end());
    // Checksum over prefix AND payload: a flipped bit anywhere in the
    // section — kind, reserved, length, or data — fails verification.
    ByteWriter sum;
    sum.U64(FrameChecksum(std::span<const uint8_t>(
        bytes.data() + section_start, bytes.size() - section_start)));
    auto s = sum.Take();
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
  return bytes;
}

Result<SnapshotFile> DecodeSnapshot(std::span<const uint8_t> bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    return Status::InvalidArgument("snapshot corrupt: shorter than header");
  }
  ByteReader r(bytes);
  const uint32_t magic = r.U32();
  const uint16_t version = r.U16();
  (void)r.U16();  // reserved
  SnapshotFile file;
  file.graph_fp = r.U64();
  file.params_fp = r.U64();
  const uint64_t section_count = r.U64();
  const uint64_t header_checksum = r.U64();
  if (!r.ok()) return Status::InvalidArgument("snapshot corrupt: header");
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("snapshot corrupt: bad magic");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot version " + std::to_string(version) +
        " unsupported (expected " + std::to_string(kSnapshotVersion) + ")");
  }
  if (FrameChecksum(bytes.first(kSnapshotHeaderBytes - sizeof(uint64_t))) !=
      header_checksum) {
    return Status::InvalidArgument("snapshot corrupt: header checksum");
  }
  if (section_count > kMaxSections) {
    return Status::InvalidArgument("snapshot corrupt: section count " +
                                   std::to_string(section_count));
  }

  std::size_t off = kSnapshotHeaderBytes;
  file.sections.reserve(static_cast<std::size_t>(section_count));
  for (uint64_t i = 0; i < section_count; ++i) {
    if (bytes.size() - off < kSectionPrefixBytes) {
      return Status::InvalidArgument(
          "snapshot corrupt: truncated at section " + std::to_string(i));
    }
    const std::size_t section_start = off;
    ByteReader pr(bytes.subspan(off, kSectionPrefixBytes));
    SnapshotSection section;
    section.kind = pr.U32();
    (void)pr.U32();  // reserved (covered by the section checksum)
    const uint64_t len = pr.U64();
    off += kSectionPrefixBytes;
    if (len > kMaxSectionBytes || bytes.size() - off < len + sizeof(uint64_t)) {
      return Status::InvalidArgument(
          "snapshot corrupt: section " + std::to_string(i) + " length " +
          std::to_string(len) + " overruns the file");
    }
    auto payload = bytes.subspan(off, static_cast<std::size_t>(len));
    off += static_cast<std::size_t>(len);
    ByteReader cr(bytes.subspan(off, sizeof(uint64_t)));
    const uint64_t checksum = cr.U64();
    off += sizeof(uint64_t);
    const auto covered = bytes.subspan(
        section_start, kSectionPrefixBytes + static_cast<std::size_t>(len));
    if (FrameChecksum(covered) != checksum) {
      return Status::InvalidArgument("snapshot corrupt: section " +
                                     std::to_string(i) + " checksum");
    }
    section.payload.assign(payload.begin(), payload.end());
    file.sections.push_back(std::move(section));
  }
  if (off != bytes.size()) {
    return Status::InvalidArgument("snapshot corrupt: trailing bytes");
  }
  return file;
}

Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes,
                       const CheckpointHook& hook) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::IOError("cannot create '" + tmp +
                           "': " + std::strerror(errno));
  }
  auto abandoned = [&]() {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Cancelled("checkpoint abandoned by hook");
  };
  if (hook && !hook(CheckpointPhase::kAfterTempCreate)) return abandoned();

  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written,
                              bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return CloseUnlinkFail(fd, tmp, "write to '" + tmp +
                                          "' failed: " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (hook && !hook(CheckpointPhase::kAfterTempWrite)) return abandoned();

  if (::fsync(fd) != 0) {
    return CloseUnlinkFail(fd, tmp, "fsync of '" + tmp +
                                        "' failed: " + std::strerror(errno));
  }
  if (hook && !hook(CheckpointPhase::kAfterFsync)) return abandoned();
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("close of '" + tmp +
                           "' failed: " + std::strerror(errno));
  }

  if (hook && !hook(CheckpointPhase::kBeforeRename)) {
    ::unlink(tmp.c_str());
    return Status::Cancelled("checkpoint abandoned by hook");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("rename '" + tmp + "' -> '" + path +
                           "' failed: " + std::strerror(errno));
  }
  // Make the rename itself durable: fsync the containing directory.
  const std::string dir = DirOf(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  if (hook && !hook(CheckpointPhase::kAfterRename)) {
    // The snapshot is already durable; an abandon here changes nothing.
    return Status::Cancelled("checkpoint abandoned by hook (after rename)");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no snapshot at '" + path + "'");
    }
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("read of '" + path + "' failed: " + err);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

Status WriteSnapshotFile(const std::string& path, const SnapshotFile& file,
                         const CheckpointHook& hook) {
  return WriteFileAtomic(path, EncodeSnapshot(file), hook);
}

Result<SnapshotFile> ReadSnapshotFile(const std::string& path) {
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return DecodeSnapshot(bytes);
}

}  // namespace dhtjoin::persist
