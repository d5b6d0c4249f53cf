/// \file persist/snapshot.h
/// \brief Versioned, per-section-checksummed on-disk snapshots with a
/// crash-safe atomic writer — the durability substrate of the serving
/// tier (DESIGN.md §13).
///
/// A snapshot file is a fixed header (magic, format version, graph
/// fingerprint + layout epoch via GraphFingerprint, DhtParams bits via
/// ParamsFingerprint, section count, header checksum) followed by
/// length-prefixed sections, each carrying its own 64-bit checksum —
/// the same SplitMix64-chained FrameChecksum the wire frames use
/// (util/byte_codec.h), so disk corruption and wire corruption are
/// caught by one verified primitive.
///
/// The writer streams: sections pass through one fixed buffer into a
/// temp file of the writer's own in the destination directory, so a
/// checkpoint never stages the whole file in memory. It is crash-safe
/// by construction: the bytes are fsync'd and reach `path` only
/// through rename(2) — POSIX-atomic — followed by a directory fsync.
/// A kill -9 at ANY byte offset of the write therefore leaves either
/// the previous snapshot (rename not reached) or the complete new one
/// (rename durable); the loader turns every other on-disk state —
/// truncation, bit flips, a stray partial temp file — into a typed
/// Status. There is no byte offset at which a crash yields a loadable
/// lie; that property is fuzzed at every section boundary in
/// tests/persist_test.cc and SIGKILL-hammered in bench_recovery.
///
/// CheckpointHook exposes the writer's internal phases so the chaos
/// harness (cluster/chaos.h) can kill a checkpointing worker at a
/// seeded phase, and tests can simulate a crash (return false =
/// abandon the write, as a kill at that byte offset would).

#ifndef DHTJOIN_PERSIST_SNAPSHOT_H_
#define DHTJOIN_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/byte_codec.h"
#include "util/status.h"

namespace dhtjoin::persist {

/// "DHSP" read little-endian.
inline constexpr uint32_t kSnapshotMagic = 0x50534844u;

/// Bumped on any incompatible change to the header or section
/// encodings. A mismatch is a hard kInvalidArgument on load.
inline constexpr uint16_t kSnapshotVersion = 1;

/// Encoded header size: magic u32, version u16, reserved u16,
/// graph_fp u64, params_fp u64, section_count u64, header checksum u64.
inline constexpr std::size_t kSnapshotHeaderBytes = 40;

/// Per-section byte prefix: kind u32, reserved u32, length u64; the
/// payload is followed by a u64 checksum covering prefix AND payload.
inline constexpr std::size_t kSectionPrefixBytes = 16;

/// Upper bound on one section payload; a larger length field is
/// treated as corruption, not an allocation request.
inline constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 30;

/// Upper bound on the section count for the same reason.
inline constexpr uint64_t kMaxSections = uint64_t{1} << 24;

/// One length-prefixed, checksummed section. `kind` is
/// caller-defined (the serving layer uses serve::CachePayload values).
struct SnapshotSection {
  uint32_t kind = 0;
  std::vector<uint8_t> payload;
};

/// A decoded snapshot: identity fingerprints + sections.
struct SnapshotFile {
  uint64_t graph_fp = 0;
  uint64_t params_fp = 0;
  std::vector<SnapshotSection> sections;
};

/// A section of a verified snapshot, viewed in place: `payload` points
/// into the bytes it was decoded from.
struct SnapshotSectionView {
  uint32_t kind = 0;
  std::span<const uint8_t> payload;
};

/// A verified snapshot whose sections are views into the decoded bytes;
/// valid only while those bytes are.
struct SnapshotView {
  uint64_t graph_fp = 0;
  uint64_t params_fp = 0;
  std::vector<SnapshotSectionView> sections;
};

/// The atomic writer's observable phases, in execution order. A crash
/// before kAfterRename leaves the previous snapshot; at/after it, the
/// new one. There is no third outcome.
enum class CheckpointPhase : uint8_t {
  kAfterTempCreate = 0,  ///< temp file exists, empty
  kAfterTempWrite,       ///< all bytes written to the temp file
  kAfterFsync,           ///< temp file contents durable
  kBeforeRename,         ///< about to rename(temp, path)
  kAfterRename,          ///< snapshot visible under `path`
};
inline constexpr int kNumCheckpointPhases = 5;

const char* CheckpointPhaseName(CheckpointPhase phase);

/// Invoked by SnapshotWriter at each phase. Returning false abandons
/// the write (temp file unlinked, Status{kCancelled}) — the unit-test
/// simulation of a kill at that byte offset. The chaos harness's hook
/// instead raises SIGKILL and never returns.
using CheckpointHook = std::function<bool(CheckpointPhase)>;

/// Streams a snapshot crash-safely to `path`, one section at a time.
///
/// The constructor creates a temp file of its own (mkstemp) in the
/// destination directory, so concurrent writers to one path never share
/// it. Append frames each section (prefix + payload + checksum) into a
/// fixed kBufferBytes buffer that is written to the temp file whenever
/// it fills. Commit writes the rest, back-patches the header (whose
/// section count is known only then) at offset 0, and runs fsync ->
/// close -> rename -> directory fsync. The file bytes equal
/// EncodeSnapshot of the same sections.
///
/// Errors are sticky: after a failed or abandoned step every later call
/// returns the same status. The temp file is unlinked on any failure,
/// and by the destructor of a writer that never committed.
class SnapshotWriter {
 public:
  /// Staging buffer size; the writer never holds more than this plus
  /// the section it is framing.
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;

  SnapshotWriter(const std::string& path, uint64_t graph_fp,
                 uint64_t params_fp, CheckpointHook hook = nullptr);
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Frames one section. `payload` is not referenced after return.
  Status Append(uint32_t kind, std::span<const uint8_t> payload);

  /// Makes the snapshot durable under `path` (see the class comment).
  Status Commit();

  /// Snapshot bytes framed so far (the file size after Commit).
  uint64_t bytes() const { return flushed_ + buf_.size(); }

  /// The most bytes held at once: unflushed buffer + the framed section
  /// in hand. At most kBufferBytes + the largest framed section.
  std::size_t staging_peak() const { return staging_peak_; }

 private:
  /// Appends to the staging buffer, writing it out each time it fills.
  void Put(std::span<const uint8_t> bytes);
  /// Writes the staging buffer to the temp file at its file offset.
  void Flush();
  /// Fires `hook_` at `phase` if no step has failed; false if one has
  /// or the hook abandons the write (then a sticky kCancelled).
  bool Reached(CheckpointPhase phase);
  /// Sticks an IOError naming `what` and errno, then Abandon()s.
  void Fail(const std::string& what);
  /// Closes and unlinks the temp file, if still open / not renamed.
  void Abandon();

  std::string path_;
  std::string tmp_;
  uint64_t graph_fp_;
  uint64_t params_fp_;
  CheckpointHook hook_;
  int fd_ = -1;
  Status status_;
  ByteWriter buf_{kBufferBytes};
  // Temp-file offset of buf_'s first byte. The header's bytes are left
  // as a hole until Commit writes them.
  uint64_t flushed_ = kSnapshotHeaderBytes;
  uint64_t sections_ = 0;
  std::size_t staging_peak_ = 0;
};

/// Serializes a snapshot (header + checksummed sections) in memory.
std::vector<uint8_t> EncodeSnapshot(const SnapshotFile& file);

/// Fail-closed decode: bad magic/version, a broken header or section
/// checksum, an out-of-bounds length, or trailing bytes all yield
/// kInvalidArgument — never a partially-filled snapshot. Every section
/// is verified before this returns; the views point into `bytes`.
Result<SnapshotView> DecodeSnapshotView(std::span<const uint8_t> bytes);

/// DecodeSnapshotView with each payload copied out.
Result<SnapshotFile> DecodeSnapshot(std::span<const uint8_t> bytes);

/// Reads a whole file into one buffer sized from fstat. kNotFound when
/// `path` does not exist (the ordinary cold start), kIOError on any
/// other failure.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Streams `file` through a SnapshotWriter.
Status WriteSnapshotFile(const std::string& path, const SnapshotFile& file,
                         const CheckpointHook& hook = nullptr);

/// ReadFileBytes + DecodeSnapshot: kNotFound for a missing file,
/// kInvalidArgument for a corrupt one, the snapshot otherwise.
Result<SnapshotFile> ReadSnapshotFile(const std::string& path);

}  // namespace dhtjoin::persist

#endif  // DHTJOIN_PERSIST_SNAPSHOT_H_
