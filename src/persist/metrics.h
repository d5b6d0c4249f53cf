/// \file persist/metrics.h
/// \brief Eagerly-registered counters and gauges for the durability
/// layer.
///
/// Same discipline as cluster/metrics.h: every persist.* metric is
/// registered at construction so exports enumerate the full set from
/// the first scrape — a zero row is "no checkpoints yet", an absent
/// row would be "is persistence even wired?". Names are pinned exactly
/// in tests/obs_test.cc.

#ifndef DHTJOIN_PERSIST_METRICS_H_
#define DHTJOIN_PERSIST_METRICS_H_

#include "obs/metrics.h"

namespace dhtjoin::persist {

struct PersistMetrics {
  explicit PersistMetrics(obs::MetricsRegistry& registry)
      : checkpoint_writes(registry.GetCounter("persist.checkpoint.writes")),
        checkpoint_failures(
            registry.GetCounter("persist.checkpoint.failures")),
        checkpoint_bytes(registry.GetCounter("persist.checkpoint.bytes")),
        checkpoint_staging_bytes(
            registry.GetGauge("persist.checkpoint.staging_bytes")),
        restore_hits(registry.GetCounter("persist.restore.hits")),
        restore_rejects(registry.GetCounter("persist.restore.rejects")) {}

  /// Snapshots durably renamed into place / failed or abandoned.
  obs::Counter* checkpoint_writes;
  obs::Counter* checkpoint_failures;
  /// Encoded bytes of successful checkpoint writes.
  obs::Counter* checkpoint_bytes;
  /// Most bytes the last checkpoint held in memory at once
  /// (SnapshotWriter::staging_peak): bounded by the writer's buffer plus
  /// its largest section, however large the snapshot.
  obs::Gauge* checkpoint_staging_bytes;
  /// Cache records restored from a validated snapshot.
  obs::Counter* restore_hits;
  /// Snapshots rejected whole: fingerprint mismatch or corruption.
  obs::Counter* restore_rejects;
};

}  // namespace dhtjoin::persist

#endif  // DHTJOIN_PERSIST_METRICS_H_
