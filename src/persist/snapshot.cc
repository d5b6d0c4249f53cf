#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

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

/// Writes all of `bytes` at `offset`; false (errno set) on failure.
bool PWriteAll(int fd, std::span<const uint8_t> bytes, uint64_t offset) {
  while (!bytes.empty()) {
    const ssize_t n =
        ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
    offset += static_cast<uint64_t>(n);
  }
  return true;
}

ByteWriter EncodeHeader(uint64_t graph_fp, uint64_t params_fp,
                        uint64_t section_count) {
  ByteWriter header(kSnapshotHeaderBytes);
  header.U32(kSnapshotMagic);
  header.U16(kSnapshotVersion);
  header.U16(0);  // reserved
  header.U64(graph_fp);
  header.U64(params_fp);
  header.U64(section_count);
  header.U64(FrameChecksum(header.bytes()));
  return header;
}

/// Frames one section as prefix, payload, checksum, handing each piece
/// to `put` — the one framing code of both the in-memory encoder and the
/// streaming writer.
template <typename Put>
void PutSection(uint32_t kind, std::span<const uint8_t> payload, Put&& put) {
  ByteWriter prefix(kSectionPrefixBytes);
  prefix.U32(kind);
  prefix.U32(0);  // reserved
  prefix.U64(static_cast<uint64_t>(payload.size()));
  // Checksum over prefix AND payload: a flipped bit anywhere in the
  // section — kind, reserved, length, or data — fails verification.
  ByteWriter sum(sizeof(uint64_t));
  sum.U64(FrameChecksum(prefix.bytes(), payload));
  put(prefix.bytes());
  put(payload);
  put(sum.bytes());
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

// --------------------------------------------------------------- writer

SnapshotWriter::SnapshotWriter(const std::string& path, uint64_t graph_fp,
                               uint64_t params_fp, CheckpointHook hook)
    : path_(path),
      tmp_(path + ".tmp.XXXXXX"),
      graph_fp_(graph_fp),
      params_fp_(params_fp),
      hook_(std::move(hook)) {
  fd_ = ::mkostemp(tmp_.data(), O_CLOEXEC);
  if (fd_ < 0) {
    status_ = Status::IOError("cannot create '" + tmp_ +
                              "': " + std::strerror(errno));
    tmp_.clear();
    return;
  }
  // mkstemp creates the file 0600; a snapshot is readable by tools
  // running as other users, like the graph files it belongs to.
  if (::fchmod(fd_, 0644) != 0) {
    Fail("fchmod of '" + tmp_ + "'");
    return;
  }
  Reached(CheckpointPhase::kAfterTempCreate);
}

SnapshotWriter::~SnapshotWriter() { Abandon(); }

Status SnapshotWriter::Append(uint32_t kind,
                              std::span<const uint8_t> payload) {
  if (!status_.ok()) return status_;
  staging_peak_ = std::max(staging_peak_, buf_.size() + kSectionPrefixBytes +
                                              payload.size() +
                                              sizeof(uint64_t));
  PutSection(kind, payload, [this](std::span<const uint8_t> b) { Put(b); });
  ++sections_;
  return status_;
}

Status SnapshotWriter::Commit() {
  // Each step runs only while every earlier one succeeded and the hook
  // let the write go on; the first failure sticks in status_.
  if (status_.ok()) Flush();
  if (status_.ok() &&
      !PWriteAll(fd_, EncodeHeader(graph_fp_, params_fp_, sections_).bytes(),
                 0)) {
    Fail("write to '" + tmp_ + "'");
  }
  if (Reached(CheckpointPhase::kAfterTempWrite) && ::fsync(fd_) != 0) {
    Fail("fsync of '" + tmp_ + "'");
  }
  if (Reached(CheckpointPhase::kAfterFsync) &&
      ::close(std::exchange(fd_, -1)) != 0) {
    Fail("close of '" + tmp_ + "'");
  }
  if (Reached(CheckpointPhase::kBeforeRename) &&
      ::rename(tmp_.c_str(), path_.c_str()) != 0) {
    Fail("rename '" + tmp_ + "' -> '" + path_ + "'");
  }
  if (!status_.ok()) return status_;
  tmp_.clear();  // renamed: nothing left to unlink
  // Make the rename itself durable: fsync the containing directory.
  const std::string dir = DirOf(path_);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  // The snapshot is already durable; an abandon here changes nothing.
  Reached(CheckpointPhase::kAfterRename);
  return status_;
}

void SnapshotWriter::Put(std::span<const uint8_t> bytes) {
  while (!bytes.empty() && status_.ok()) {
    const std::size_t n = std::min(bytes.size(), kBufferBytes - buf_.size());
    buf_.Bytes(bytes.first(n));
    bytes = bytes.subspan(n);
    if (buf_.size() == kBufferBytes) Flush();
  }
}

void SnapshotWriter::Flush() {
  if (!PWriteAll(fd_, buf_.bytes(), flushed_)) {
    Fail("write to '" + tmp_ + "'");
    return;
  }
  flushed_ += buf_.size();
  buf_.Clear();
}

bool SnapshotWriter::Reached(CheckpointPhase phase) {
  if (!status_.ok()) return false;
  if (!hook_ || hook_(phase)) return true;
  Abandon();
  status_ = Status::Cancelled(std::string("checkpoint abandoned by hook at ") +
                              CheckpointPhaseName(phase));
  return false;
}

void SnapshotWriter::Fail(const std::string& what) {
  const std::string err = std::strerror(errno);
  Abandon();
  status_ = Status::IOError(what + " failed: " + err);
}

void SnapshotWriter::Abandon() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  if (!tmp_.empty()) ::unlink(tmp_.c_str());
  tmp_.clear();
}

// ----------------------------------------------------------- in memory

std::vector<uint8_t> EncodeSnapshot(const SnapshotFile& file) {
  ByteWriter out = EncodeHeader(file.graph_fp, file.params_fp,
                                static_cast<uint64_t>(file.sections.size()));
  for (const SnapshotSection& section : file.sections) {
    PutSection(section.kind, section.payload,
               [&out](std::span<const uint8_t> b) { out.Bytes(b); });
  }
  return out.Take();
}

Result<SnapshotView> DecodeSnapshotView(std::span<const uint8_t> bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    return Status::InvalidArgument("snapshot corrupt: shorter than header");
  }
  ByteReader r(bytes);
  const uint32_t magic = r.U32();
  const uint16_t version = r.U16();
  (void)r.U16();  // reserved
  SnapshotView file;
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
    SnapshotSectionView section;
    section.kind = pr.U32();
    (void)pr.U32();  // reserved (covered by the section checksum)
    const uint64_t len = pr.U64();
    off += kSectionPrefixBytes;
    if (len > kMaxSectionBytes || bytes.size() - off < len + sizeof(uint64_t)) {
      return Status::InvalidArgument(
          "snapshot corrupt: section " + std::to_string(i) + " length " +
          std::to_string(len) + " overruns the file");
    }
    section.payload = bytes.subspan(off, static_cast<std::size_t>(len));
    off += static_cast<std::size_t>(len);
    ByteReader cr(bytes.subspan(off, sizeof(uint64_t)));
    const uint64_t checksum = cr.U64();
    off += sizeof(uint64_t);
    if (FrameChecksum(bytes.subspan(section_start, kSectionPrefixBytes),
                      section.payload) != checksum) {
      return Status::InvalidArgument("snapshot corrupt: section " +
                                     std::to_string(i) + " checksum");
    }
    file.sections.push_back(section);
  }
  if (off != bytes.size()) {
    return Status::InvalidArgument("snapshot corrupt: trailing bytes");
  }
  return file;
}

Result<SnapshotFile> DecodeSnapshot(std::span<const uint8_t> bytes) {
  DHTJOIN_ASSIGN_OR_RETURN(SnapshotView view, DecodeSnapshotView(bytes));
  SnapshotFile file;
  file.graph_fp = view.graph_fp;
  file.params_fp = view.params_fp;
  file.sections.reserve(view.sections.size());
  for (const SnapshotSectionView& section : view.sections) {
    file.sections.push_back(SnapshotSection{
        section.kind, {section.payload.begin(), section.payload.end()}});
  }
  return file;
}

// ---------------------------------------------------------------- files

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no snapshot at '" + path + "'");
    }
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  auto fail = [&](const char* what) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError(std::string(what) + " of '" + path +
                           "' failed: " + err);
  };
  struct stat st {};
  if (::fstat(fd, &st) != 0) return fail("fstat");
  // Snapshots are replaced by rename, never rewritten in place, so the
  // size fstat reports is the size of the file this fd reads.
  std::vector<uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("read");
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

Status WriteSnapshotFile(const std::string& path, const SnapshotFile& file,
                         const CheckpointHook& hook) {
  SnapshotWriter writer(path, file.graph_fp, file.params_fp, hook);
  for (const SnapshotSection& section : file.sections) {
    DHTJOIN_RETURN_NOT_OK(writer.Append(section.kind, section.payload));
  }
  return writer.Commit();
}

Result<SnapshotFile> ReadSnapshotFile(const std::string& path) {
  DHTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return DecodeSnapshot(bytes);
}

}  // namespace dhtjoin::persist
