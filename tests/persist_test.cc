/// \file tests/persist_test.cc
/// \brief Durability substrate (persist/* + serve warm state): the
/// snapshot codec fails closed on EVERY truncation offset and bit
/// flip, the atomic writer leaves last-good-or-new at every crash
/// phase, and a warm-restored service answers byte-identically to a
/// cold one (DESIGN.md §13).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/chaos.h"
#include "dht/params.h"
#include "persist/metrics.h"
#include "persist/snapshot.h"
#include "serve/session.h"
#include "serve/warm_state.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using persist::CheckpointPhase;
using persist::DecodeSnapshot;
using persist::EncodeSnapshot;
using persist::ReadSnapshotFile;
using persist::SnapshotFile;
using persist::SnapshotSection;
using persist::SnapshotWriter;
using persist::WriteSnapshotFile;
using serve::DhtJoinService;
using testing::RandomGraph;
using testing::Range;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "persist_test_" + name;
}

void WriteRawFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Writer temp files (`<name>.tmp.*`) left beside `path`.
std::vector<std::string> LeftoverTempFiles(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".tmp.";
  std::vector<std::string> left;
  for (const auto& entry :
       std::filesystem::directory_iterator(p.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) left.push_back(name);
  }
  return left;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = persist::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

/// Every strict prefix and every single-bit flip of `bytes` in
/// [begin, end) must decode to kInvalidArgument.
void ExpectPrefixesAndFlipsRejected(const std::vector<uint8_t>& bytes,
                                    std::size_t begin, std::size_t end) {
  for (std::size_t len = begin; len < std::min(end, bytes.size()); ++len) {
    Result<SnapshotFile> r =
        DecodeSnapshot(std::span<const uint8_t>(bytes.data(), len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << len << " bytes";
  }
  std::vector<uint8_t> mutated = bytes;
  for (std::size_t i = begin; i < std::min(end, bytes.size()); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = static_cast<uint8_t>(bytes[i] ^ (1u << bit));
      Result<SnapshotFile> r = DecodeSnapshot(mutated);
      EXPECT_FALSE(r.ok()) << "byte " << i << " bit " << bit << " accepted";
    }
    mutated[i] = bytes[i];
  }
}

/// Sections that make the streaming writer flush in the middle of a
/// section and frame one section larger than its whole buffer.
SnapshotFile MultiBufferSnapshot() {
  SnapshotFile file;
  file.graph_fp = 0x0102030405060708ull;
  file.params_fp = 0x1112131415161718ull;
  uint32_t x = 12345;
  auto bytes_of = [&x](std::size_t n) {
    std::vector<uint8_t> v(n);
    for (uint8_t& b : v) {
      x = x * 1103515245u + 12345u;
      b = static_cast<uint8_t>(x >> 16);
    }
    return v;
  };
  // 347 sections of 3,001 bytes (3,025 framed) run past the first
  // buffer flush.
  for (int i = 0; i < 347; ++i) {
    file.sections.push_back(SnapshotSection{2, bytes_of(3001)});
  }
  file.sections.push_back(SnapshotSection{3, {}});
  file.sections.push_back(
      SnapshotSection{4, bytes_of(SnapshotWriter::kBufferBytes + 4097)});
  file.sections.push_back(SnapshotSection{2, bytes_of(17)});
  return file;
}

SnapshotFile SampleSnapshot() {
  SnapshotFile file;
  file.graph_fp = 0x1122334455667788ull;
  file.params_fp = 0x99aabbccddeeff00ull;
  file.sections.push_back(SnapshotSection{1, {10, 20, 30, 40, 50}});
  file.sections.push_back(SnapshotSection{2, {}});  // empty payload
  SnapshotSection big;
  big.kind = 4;
  for (int i = 0; i < 300; ++i) big.payload.push_back(uint8_t(i * 7));
  file.sections.push_back(std::move(big));
  return file;
}

void ExpectBytesIdentical(const std::vector<ScoredPair>& got,
                          const std::vector<ScoredPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].p, want[i].p) << "pair " << i;
    EXPECT_EQ(got[i].q, want[i].q) << "pair " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << "pair " << i;
  }
}

// ----------------------------------------------------------- codec

TEST(SnapshotCodecTest, RoundTripsHeaderAndSections) {
  const SnapshotFile file = SampleSnapshot();
  const std::vector<uint8_t> bytes = EncodeSnapshot(file);
  Result<SnapshotFile> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->graph_fp, file.graph_fp);
  EXPECT_EQ(decoded->params_fp, file.params_fp);
  ASSERT_EQ(decoded->sections.size(), file.sections.size());
  for (std::size_t i = 0; i < file.sections.size(); ++i) {
    EXPECT_EQ(decoded->sections[i].kind, file.sections[i].kind);
    EXPECT_EQ(decoded->sections[i].payload, file.sections[i].payload);
  }
}

TEST(SnapshotCodecTest, SplitChecksumEqualsJoinedChecksum) {
  // Sections are checksummed as (prefix, payload) without joining them;
  // the sum must be the one over the joined bytes, or the format moves.
  std::vector<uint8_t> bytes(61);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const std::span<const uint8_t> all(bytes);
  for (std::size_t head = 0; head <= 48; head += 8) {
    for (std::size_t len = head; len <= all.size(); ++len) {
      EXPECT_EQ(FrameChecksum(all.first(head), all.subspan(head, len - head)),
                FrameChecksum(all.first(len)))
          << "head " << head << " len " << len;
    }
  }
}

TEST(SnapshotCodecTest, EncodingIsPinnedToVersion1Bytes) {
  // The version-1 bytes of SampleSnapshot(), in memory and streamed: an
  // encoding change that keeps the version number fails here.
  const std::vector<uint8_t> header = {
      68, 72,  83,  80,  1,   0,   0,   0,   136, 119, 102, 85,  68, 51,
      34, 17,  0,   255, 238, 221, 204, 187, 170, 153, 3,   0,   0,  0,
      0,  0,   0,   0,   73,  94,  187, 190, 74,  73,  46,  238};
  const std::string path = TempPath("golden.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SampleSnapshot()).ok());
  for (const std::vector<uint8_t>& bytes :
       {EncodeSnapshot(SampleSnapshot()), ReadBytes(path)}) {
    ASSERT_EQ(bytes.size(), 417u);
    EXPECT_TRUE(std::equal(header.begin(), header.end(), bytes.begin()));
    EXPECT_EQ(FrameChecksum(bytes), 0x56c86c86e7ac6b49ull);
  }
  std::remove(path.c_str());
}

TEST(SnapshotCodecTest, EmptySnapshotRoundTrips) {
  SnapshotFile file;
  file.graph_fp = 7;
  file.params_fp = 8;
  Result<SnapshotFile> decoded = DecodeSnapshot(EncodeSnapshot(file));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->sections.empty());
}

TEST(SnapshotCodecTest, RejectsTruncationAtEveryByteOffset) {
  // A kill -9 can stop a non-atomic write at ANY byte. Every strict
  // prefix must decode to a typed error — never crash, never a
  // partially-filled snapshot.
  const std::vector<uint8_t> bytes = EncodeSnapshot(SampleSnapshot());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Result<SnapshotFile> r =
        DecodeSnapshot(std::span<const uint8_t>(bytes.data(), len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << len << " bytes";
  }
}

TEST(SnapshotCodecTest, RejectsEverySingleBitFlip) {
  // Header bytes are covered by the header checksum, section bytes
  // (prefix AND payload) by the section checksum, and the checksum
  // fields by themselves: no byte may flip undetected.
  const std::vector<uint8_t> bytes = EncodeSnapshot(SampleSnapshot());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[i] = static_cast<uint8_t>(mutated[i] ^ (1u << bit));
      Result<SnapshotFile> r = DecodeSnapshot(mutated);
      EXPECT_FALSE(r.ok()) << "byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(SnapshotCodecTest, RejectsTrailingBytesAndWrongVersion) {
  std::vector<uint8_t> bytes = EncodeSnapshot(SampleSnapshot());
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(trailing).ok());

  // A future-version file must be refused outright, not half-parsed.
  std::vector<uint8_t> vnext = bytes;
  vnext[4] = static_cast<uint8_t>(persist::kSnapshotVersion + 1);
  Result<SnapshotFile> r = DecodeSnapshot(vnext);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

// ---------------------------------------------------- streaming writer

TEST(SnapshotWriterTest, StreamedFileIsByteIdenticalToEncodeSnapshot) {
  for (const SnapshotFile& file :
       {SampleSnapshot(), MultiBufferSnapshot(), SnapshotFile{}}) {
    const std::string path = TempPath("stream_identity.snap");
    ASSERT_TRUE(WriteSnapshotFile(path, file).ok());
    const std::vector<uint8_t> streamed = ReadBytes(path);
    const std::vector<uint8_t> encoded = EncodeSnapshot(file);
    ASSERT_EQ(streamed.size(), encoded.size());
    EXPECT_TRUE(streamed == encoded);
    std::remove(path.c_str());
  }
}

TEST(SnapshotWriterTest, StreamedFileRejectsEveryPrefixAndBitFlip) {
  const std::string path = TempPath("stream_fuzz.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SampleSnapshot()).ok());
  const std::vector<uint8_t> small = ReadBytes(path);
  ExpectPrefixesAndFlipsRejected(small, 0, small.size());

  // A multi-buffer file: the back-patched header, both sides of every
  // buffer flush, and the tail.
  ASSERT_TRUE(WriteSnapshotFile(path, MultiBufferSnapshot()).ok());
  const std::vector<uint8_t> big = ReadBytes(path);
  ASSERT_GT(big.size(), 2 * SnapshotWriter::kBufferBytes);
  ExpectPrefixesAndFlipsRejected(big, 0, persist::kSnapshotHeaderBytes);
  for (std::size_t flush = SnapshotWriter::kBufferBytes +
                           persist::kSnapshotHeaderBytes;
       flush < big.size(); flush += SnapshotWriter::kBufferBytes) {
    ExpectPrefixesAndFlipsRejected(big, flush - 4, flush + 4);
  }
  ExpectPrefixesAndFlipsRejected(big, big.size() - 12, big.size());
  std::remove(path.c_str());
}

TEST(SnapshotWriterTest, StagingStaysWithinBufferPlusLargestSection) {
  const SnapshotFile file = MultiBufferSnapshot();
  const std::string path = TempPath("stream_staging.snap");
  SnapshotWriter writer(path, file.graph_fp, file.params_fp);
  std::size_t largest = 0;
  for (const SnapshotSection& section : file.sections) {
    ASSERT_TRUE(writer.Append(section.kind, section.payload).ok());
    largest = std::max(largest, persist::kSectionPrefixBytes +
                                    section.payload.size() + sizeof(uint64_t));
  }
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(writer.bytes(), EncodeSnapshot(file).size());
  EXPECT_GE(writer.staging_peak(), largest);
  EXPECT_LE(writer.staging_peak(), SnapshotWriter::kBufferBytes + largest);
  // The whole file is never staged.
  EXPECT_LT(writer.staging_peak(), writer.bytes());
  std::remove(path.c_str());
}

// ---------------------------------------------------- atomic writer

TEST(AtomicWriterTest, AbandonAtEveryPhaseLeavesLastGoodOrNew) {
  const std::string path = TempPath("abandon.snap");
  SnapshotFile good;
  good.graph_fp = 1;
  good.params_fp = 2;
  good.sections.push_back(SnapshotSection{1, {1, 2, 3}});
  ASSERT_TRUE(WriteSnapshotFile(path, good).ok());

  SnapshotFile next;
  next.graph_fp = 1;
  next.params_fp = 2;
  next.sections.push_back(SnapshotSection{1, {9, 9, 9, 9}});

  for (int phase = 0; phase < persist::kNumCheckpointPhases; ++phase) {
    const auto kill_at = static_cast<CheckpointPhase>(phase);
    SCOPED_TRACE(persist::CheckpointPhaseName(kill_at));
    Status st = WriteSnapshotFile(path, next, [kill_at](CheckpointPhase p) {
      return p != kill_at;
    });
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    // The on-disk state must be a complete snapshot: the previous one
    // for any pre-rename crash, the new one at/after the rename.
    Result<SnapshotFile> loaded = ReadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (kill_at == CheckpointPhase::kAfterRename) {
      EXPECT_EQ(loaded->sections[0].payload, next.sections[0].payload);
    } else {
      EXPECT_EQ(loaded->sections[0].payload, good.sections[0].payload);
    }
    // No abandoned temp file may survive.
    EXPECT_TRUE(LeftoverTempFiles(path).empty());
    // Reset to the known-good state for the next phase.
    ASSERT_TRUE(WriteSnapshotFile(path, good).ok());
  }
  std::remove(path.c_str());
}

TEST(AtomicWriterTest, WriterDroppedBeforeCommitLeavesNoTempFile) {
  const std::string path = TempPath("dropped.snap");
  {
    SnapshotWriter writer(path, 1, 2);
    ASSERT_TRUE(writer.Append(1, std::vector<uint8_t>(100, 7)).ok());
  }
  EXPECT_TRUE(LeftoverTempFiles(path).empty());
  EXPECT_EQ(ReadSnapshotFile(path).status().code(), StatusCode::kNotFound);
}

TEST(AtomicWriterTest, CommittedSnapshotIsWorldReadable) {
  // The writer's temp file starts owner-only (mkstemp); the committed
  // snapshot must not.
  const std::string path = TempPath("mode.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SampleSnapshot()).ok());
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0644u);
  std::remove(path.c_str());
}

TEST(AtomicWriterTest, MissingFileIsNotFoundNotError) {
  Result<SnapshotFile> r = ReadSnapshotFile(TempPath("never_written.snap"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------- warm state

class WarmStateTest : public ::testing::Test {
 protected:
  WarmStateTest()
      : g_(RandomGraph(60, 200, 7)),
        params_(DhtParams::Lambda(0.2)),
        P_(Range("P", 0, 20)),
        Q_(Range("Q", 25, 55)) {}

  static constexpr int kD = 6;
  static constexpr std::size_t kK = 15;

  static DhtJoinService::Options ServiceOptions() {
    DhtJoinService::Options o;
    o.num_threads = 2;
    return o;
  }

  Graph g_;
  DhtParams params_;
  NodeSet P_;
  NodeSet Q_;
};

TEST_F(WarmStateTest, RestoredServiceAnswersByteIdenticallyAndWarm) {
  const std::string path = TempPath("warm_roundtrip.snap");
  DhtJoinService cold(g_, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = cold.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(cold.SaveWarmState(path).ok());

  DhtJoinService warmed(g_, params_, kD, ServiceOptions());
  Result<int64_t> restored = warmed.LoadWarmState(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(restored.value(), 0);

  serve::QueryStats qs;
  Result<std::vector<ScoredPair>> got = warmed.TwoWay(P_, Q_, kK, &qs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBytesIdentical(*got, *want);
  // The restored cache must actually be USED, not just loaded.
  EXPECT_GT(qs.warm_targets, 0);

  // Restore-into-warm is idempotent: loading again changes nothing
  // the next answer can observe.
  Result<int64_t> again = warmed.LoadWarmState(path);
  ASSERT_TRUE(again.ok());
  Result<std::vector<ScoredPair>> got2 = warmed.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(got2.ok());
  ExpectBytesIdentical(*got2, *want);
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, FingerprintMismatchFallsBackColdSilently) {
  const std::string path = TempPath("warm_mismatch.snap");
  DhtJoinService source(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(source.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(source.SaveWarmState(path).ok());

  // A service over a DIFFERENT graph must refuse the warm state (OK,
  // zero restored — a stale snapshot is an ordinary cold start) and
  // still answer ITS graph's queries correctly.
  Graph other = RandomGraph(60, 200, 8);
  DhtJoinService stranger(other, params_, kD, ServiceOptions());
  Result<int64_t> restored = stranger.LoadWarmState(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), 0);

  const obs::MetricsSnapshot snap = stranger.SnapshotMetrics();
  EXPECT_GE(snap.FindCounter("persist.restore.rejects")->value, 1);
  EXPECT_EQ(snap.FindCounter("persist.restore.hits")->value, 0);

  DhtJoinService reference(other, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = reference.TwoWay(P_, Q_, kK);
  Result<std::vector<ScoredPair>> got = stranger.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBytesIdentical(*got, *want);
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, CorruptSnapshotIsTypedAndServiceStaysServing) {
  const std::string path = TempPath("warm_corrupt.snap");
  DhtJoinService source(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(source.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(source.SaveWarmState(path).ok());

  Result<std::vector<uint8_t>> bytes = persist::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  // Fuzz the WHOLE file: every truncation boundary and a bit flip in
  // every byte must produce a typed load failure (or a silent cold
  // start — never a crash, never poisoned state), after which the
  // service still answers byte-identically.
  DhtJoinService cold_ref(g_, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = cold_ref.TwoWay(P_, Q_, kK);
  ASSERT_TRUE(want.ok());

  const std::size_t n = bytes->size();
  for (std::size_t len = 0; len < n; len += (n / 37) + 1) {
    std::vector<uint8_t> trunc(bytes->begin(),
                               bytes->begin() + static_cast<int64_t>(len));
    WriteRawFile(path, trunc);
    DhtJoinService victim(g_, params_, kD, ServiceOptions());
    Result<int64_t> r = victim.LoadWarmState(path);
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
    Result<std::vector<ScoredPair>> got = victim.TwoWay(P_, Q_, kK);
    ASSERT_TRUE(got.ok());
    ExpectBytesIdentical(*got, *want);
  }
  for (std::size_t i = 0; i < n; i += (n / 53) + 1) {
    std::vector<uint8_t> flipped = *bytes;
    flipped[i] = static_cast<uint8_t>(flipped[i] ^ 0x40u);
    WriteRawFile(path, flipped);
    DhtJoinService victim(g_, params_, kD, ServiceOptions());
    Result<int64_t> r = victim.LoadWarmState(path);
    EXPECT_FALSE(r.ok()) << "bit flip at byte " << i << " accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, GarbageSectionPayloadsAreRejectedByRecordDecode) {
  // Sections with VALID snapshot checksums but garbage record bytes:
  // the warm-record decoder's own bounds checks must refuse them.
  DhtJoinService service(g_, params_, kD, ServiceOptions());
  const std::string path = TempPath("warm_garbage.snap");
  SnapshotFile file;
  file.graph_fp = service.graph_fingerprint();
  file.params_fp = ParamsFingerprint(params_, kD);
  // kind 2 = batch walk state, with a payload that is far too short.
  file.sections.push_back(SnapshotSection{2, {0xff, 0x01, 0x02}});
  ASSERT_TRUE(WriteSnapshotFile(path, file).ok());
  Result<int64_t> r = service.LoadWarmState(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Unknown section kind: same typed refusal.
  file.sections[0] = SnapshotSection{77, {1, 2, 3, 4}};
  ASSERT_TRUE(WriteSnapshotFile(path, file).ok());
  Result<int64_t> r2 = service.LoadWarmState(path);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, RetiredScalarSectionIsRefusedAndServiceServesCold) {
  // Section kind 1 held the retired scalar walk snapshot. A checkpoint
  // that still carries one is refused whole with a typed status — even
  // the valid records before it are not restored — and the service
  // then answers cold, byte-identically.
  DhtJoinService source(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(source.TwoWay(P_, Q_, kK).ok());
  const std::string path = TempPath("warm_retired.snap");
  ASSERT_TRUE(source.SaveWarmState(path).ok());
  Result<SnapshotFile> file = ReadSnapshotFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_FALSE(file->sections.empty());
  // A well-formed-looking scalar record (key, target, level, mass).
  file->sections.push_back(
      SnapshotSection{1, std::vector<uint8_t>(64, 0x01)});
  ASSERT_TRUE(WriteSnapshotFile(path, *file).ok());

  DhtJoinService victim(g_, params_, kD, ServiceOptions());
  Result<int64_t> r = victim.LoadWarmState(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(victim.cache_stats().entries, 0u);

  DhtJoinService reference(g_, params_, kD, ServiceOptions());
  Result<std::vector<ScoredPair>> want = reference.TwoWay(P_, Q_, kK);
  serve::QueryStats qs;
  Result<std::vector<ScoredPair>> got = victim.TwoWay(P_, Q_, kK, &qs);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBytesIdentical(*got, *want);
  EXPECT_EQ(qs.warm_targets, 0);
  // The kind stays reserved: nothing the service writes reuses it.
  ASSERT_TRUE(victim.SaveWarmState(path).ok());
  Result<SnapshotFile> rewritten = ReadSnapshotFile(path);
  ASSERT_TRUE(rewritten.ok());
  for (const SnapshotSection& section : rewritten->sections) {
    EXPECT_NE(section.kind, 1u);
  }
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, PersistMetricsTickOnSaveAndRestore) {
  const std::string path = TempPath("warm_metrics.snap");
  DhtJoinService source(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(source.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(source.SaveWarmState(path).ok());
  {
    const obs::MetricsSnapshot snap = source.SnapshotMetrics();
    EXPECT_EQ(snap.FindCounter("persist.checkpoint.writes")->value, 1);
    EXPECT_GT(snap.FindCounter("persist.checkpoint.bytes")->value, 0);
    EXPECT_EQ(snap.FindCounter("persist.checkpoint.failures")->value, 0);
  }
  DhtJoinService warmed(g_, params_, kD, ServiceOptions());
  Result<int64_t> restored = warmed.LoadWarmState(path);
  ASSERT_TRUE(restored.ok());
  {
    const obs::MetricsSnapshot snap = warmed.SnapshotMetrics();
    EXPECT_EQ(snap.FindCounter("persist.restore.hits")->value,
              restored.value());
    EXPECT_EQ(snap.FindCounter("persist.restore.rejects")->value, 0);
  }
  // A missing file is a cold start, not a reject.
  DhtJoinService cold(g_, params_, kD, ServiceOptions());
  Result<int64_t> none = cold.LoadWarmState(TempPath("does_not_exist.snap"));
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
  {
    const obs::MetricsSnapshot snap = cold.SnapshotMetrics();
    EXPECT_EQ(snap.FindCounter("persist.restore.rejects")->value, 0);
  }
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, SaveAbortAtEveryPhaseLeavesPreviousOrNew) {
  const std::string path = TempPath("warm_abort.snap");
  const std::string next_path = TempPath("warm_abort_next.snap");
  DhtJoinService service(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(service.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(service.SaveWarmState(path).ok());
  const std::vector<uint8_t> previous = ReadBytes(path);
  // More cache records, so the next checkpoint differs from the last.
  ASSERT_TRUE(service.TwoWay(Range("P2", 30, 45), Range("Q2", 0, 12), kK).ok());
  ASSERT_TRUE(service.SaveWarmState(next_path).ok());
  const std::vector<uint8_t> next = ReadBytes(next_path);
  ASSERT_NE(previous, next);

  for (int phase = 0; phase < persist::kNumCheckpointPhases; ++phase) {
    const auto kill_at = static_cast<CheckpointPhase>(phase);
    SCOPED_TRACE(persist::CheckpointPhaseName(kill_at));
    std::vector<int> fired;
    Status st = service.SaveWarmState(path, [&](CheckpointPhase p) {
      fired.push_back(static_cast<int>(p));
      return p != kill_at;
    });
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    std::vector<int> want(static_cast<std::size_t>(phase) + 1);
    for (int p = 0; p <= phase; ++p) want[static_cast<std::size_t>(p)] = p;
    EXPECT_EQ(fired, want);
    EXPECT_TRUE(ReadBytes(path) ==
                (kill_at == CheckpointPhase::kAfterRename ? next : previous));
    EXPECT_TRUE(LeftoverTempFiles(path).empty());
    DhtJoinService restored(g_, params_, kD, ServiceOptions());
    ASSERT_TRUE(restored.LoadWarmState(path).ok());
    WriteRawFile(path, previous);
  }
  std::remove(path.c_str());
  std::remove(next_path.c_str());
}

TEST_F(WarmStateTest, ConcurrentSavesToOnePathAllSucceed) {
  const std::string path = TempPath("warm_concurrent.snap");
  DhtJoinService service(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(service.TwoWay(P_, Q_, kK).ok());
  constexpr int kRounds = 20;
  Status status[2];
  auto saver = [&](int t) {
    for (int i = 0; i < kRounds && status[t].ok(); ++i) {
      status[t] = service.SaveWarmState(path);
    }
  };
  std::thread a(saver, 0);
  std::thread b(saver, 1);
  a.join();
  b.join();
  EXPECT_TRUE(status[0].ok()) << status[0].ToString();
  EXPECT_TRUE(status[1].ok()) << status[1].ToString();
  EXPECT_TRUE(LeftoverTempFiles(path).empty());
  DhtJoinService restored(g_, params_, kD, ServiceOptions());
  Result<int64_t> n = restored.LoadWarmState(path);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_GT(n.value(), 0);
  EXPECT_EQ(service.SnapshotMetrics()
                .FindCounter("persist.checkpoint.writes")
                ->value,
            2 * kRounds);
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, SaveBesideLiveQueriesRestoresByteIdentically) {
  const std::string path = TempPath("warm_live.snap");
  DhtJoinService service(g_, params_, kD, ServiceOptions());
  std::atomic<bool> done{false};
  Status save_status;
  int saves = 0;
  std::thread checkpointer([&] {
    while (!done.load() && save_status.ok()) {
      save_status = service.SaveWarmState(path);
      ++saves;
    }
  });
  std::vector<NodeSet> lefts = {P_, Range("P2", 30, 45), Range("P3", 5, 25)};
  std::vector<std::future<Result<std::vector<ScoredPair>>>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const NodeSet& left : lefts) {
      futures.push_back(service.SubmitTwoWay(left, Q_, kK));
    }
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  done.store(true);
  checkpointer.join();
  ASSERT_TRUE(save_status.ok()) << save_status.ToString();
  EXPECT_GT(saves, 0);
  ASSERT_TRUE(service.SaveWarmState(path).ok());

  DhtJoinService warmed(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(warmed.LoadWarmState(path).ok());
  DhtJoinService cold(g_, params_, kD, ServiceOptions());
  for (const NodeSet& left : lefts) {
    Result<std::vector<ScoredPair>> want = cold.TwoWay(left, Q_, kK);
    Result<std::vector<ScoredPair>> got = warmed.TwoWay(left, Q_, kK);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectBytesIdentical(*got, *want);
  }
  std::remove(path.c_str());
}

TEST_F(WarmStateTest, SavedFileReencodesIdentically) {
  // The streamed checkpoint of real cache records is byte-for-byte the
  // in-memory encoding of the sections it holds.
  const std::string path = TempPath("warm_reencode.snap");
  DhtJoinService service(g_, params_, kD, ServiceOptions());
  ASSERT_TRUE(service.TwoWay(P_, Q_, kK).ok());
  ASSERT_TRUE(service.SaveWarmState(path).ok());
  const std::vector<uint8_t> streamed = ReadBytes(path);
  Result<SnapshotFile> file = DecodeSnapshot(streamed);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_FALSE(file->sections.empty());
  EXPECT_TRUE(EncodeSnapshot(*file) == streamed);

  // The staging gauge: at most the writer's buffer plus the largest
  // framed section.
  std::size_t largest = 0;
  for (const SnapshotSection& section : file->sections) {
    largest = std::max(largest, persist::kSectionPrefixBytes +
                                    section.payload.size() + sizeof(uint64_t));
  }
  const double staging =
      service.SnapshotMetrics()
          .FindGauge("persist.checkpoint.staging_bytes")
          ->value;
  EXPECT_GE(staging, static_cast<double>(largest));
  EXPECT_LE(staging,
            static_cast<double>(SnapshotWriter::kBufferBytes + largest));
  std::remove(path.c_str());
}

// -------------------------------------------------- chaos schedule

TEST(CheckpointChaosTest, DrawIsDeterministicAndCoversEveryPhase) {
  cluster::ChaosOptions opts;
  opts.seed = 1234;
  opts.p_kill_at_checkpoint = 1.0;
  bool phase_seen[persist::kNumCheckpointPhases] = {};
  for (uint64_t ordinal = 0; ordinal < 64; ++ordinal) {
    cluster::CheckpointFault a = cluster::DrawCheckpointFault(opts, ordinal);
    cluster::CheckpointFault b = cluster::DrawCheckpointFault(opts, ordinal);
    EXPECT_TRUE(a.armed);
    EXPECT_EQ(a.kill_phase, b.kill_phase) << "ordinal " << ordinal;
    phase_seen[static_cast<int>(a.kill_phase)] = true;
  }
  for (int p = 0; p < persist::kNumCheckpointPhases; ++p) {
    EXPECT_TRUE(phase_seen[p])
        << persist::CheckpointPhaseName(static_cast<CheckpointPhase>(p));
  }
  // Probability 0 (or chaos disabled) never arms.
  opts.p_kill_at_checkpoint = 0.0;
  EXPECT_FALSE(cluster::DrawCheckpointFault(opts, 0).armed);
  cluster::ChaosOptions off;
  off.p_kill_at_checkpoint = 1.0;  // seed 0 = disabled
  EXPECT_FALSE(cluster::DrawCheckpointFault(off, 0).armed);
}

}  // namespace
}  // namespace dhtjoin
