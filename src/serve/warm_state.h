/// \file serve/warm_state.h
/// \brief Serialization of ScoreCache records for the durability layer
/// (persist/snapshot.h): one snapshot section per cached payload.
///
/// Byte-identity discipline matches the wire (util/byte_codec.h): every
/// double crosses the disk as raw IEEE-754 bits via F64Bits, node ids
/// as raw values, so a warm-restored payload is bit-for-bit the one
/// that was checkpointed — and, by the engines' determinism, answers
/// resumed from it are byte-identical to cold execution (gated in
/// tests/persist_test.cc and bench_recovery).
///
/// A record's key context (graph fingerprint, DhtParams) is NOT stored
/// per record — the snapshot header carries the fingerprints once, and
/// the loading service stamps its own graph_fp/params into every
/// rebuilt key AFTER validating those fingerprints. A snapshot from a
/// different graph or measure therefore cannot smuggle records in.
///
/// Decoding is fail-closed: any underflow, trailing bytes, or
/// structurally impossible field yields kInvalidArgument, never a
/// partially-filled record.

#ifndef DHTJOIN_SERVE_WARM_STATE_H_
#define DHTJOIN_SERVE_WARM_STATE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/score_cache.h"
#include "util/byte_codec.h"

namespace dhtjoin::serve {

/// Snapshot section kind of a cached payload (stable on-disk values;
/// never reorder).
uint32_t SectionKindFor(CachePayload kind);

/// Encodes one (key, entry) pair as a snapshot section payload into
/// `out`, which is cleared first (its capacity is kept, so one writer
/// serves a whole checkpoint). `entry` must match `key.kind` (all of
/// serve/ pairs them consistently); false on a mismatch or an entry
/// that is not snapshotable.
bool EncodeCacheRecord(const CacheKey& key, const CacheEntry& entry,
                       ByteWriter& out);

struct DecodedCacheRecord {
  CacheKey key;
  std::shared_ptr<const CacheEntry> entry;
};

/// Rebuilds a record from a section. `graph_fp` and `params` come from
/// the LOADING service (validated against the snapshot header by the
/// caller); the record carries everything else. A section of the
/// retired kind 1 (the old scalar walk snapshot) is refused with
/// kUnimplemented; any other unknown kind or malformed payload with
/// kInvalidArgument.
Result<DecodedCacheRecord> DecodeCacheRecord(uint32_t section_kind,
                                             std::span<const uint8_t> payload,
                                             uint64_t graph_fp,
                                             const DhtParams& params);

}  // namespace dhtjoin::serve

#endif  // DHTJOIN_SERVE_WARM_STATE_H_
