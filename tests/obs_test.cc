/// \file tests/obs_test.cc
/// \brief Observability primitives (DESIGN.md §11): FakeClock,
/// counters/gauges, log2 histograms with deterministic quantile
/// bounds, registry snapshots, the JSON/Prometheus export surface, the
/// slow-query ring, and the ThreadPool task histograms.
///
/// Everything here is exact: with an injected FakeClock and quiesced
/// writers, every counter value, bucket count, quantile bound, and
/// exported byte is pinned — telemetry that drifts is telemetry that
/// cannot gate CI.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/metrics.h"
#include "obs/clock.h"
#include "persist/metrics.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slow_query.h"
#include "util/thread_pool.h"

namespace dhtjoin {
namespace {

// ------------------------------------------------------------- clock

TEST(FakeClockTest, AdvancesOnlyWhenTold) {
  obs::FakeClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100);
  EXPECT_EQ(clock.NowNanos(), 100);  // time does not flow on its own
  clock.AdvanceNanos(5);
  EXPECT_EQ(clock.NowNanos(), 105);
  clock.AdvanceMicros(2);
  EXPECT_EQ(clock.NowNanos(), 2105);
  clock.AdvanceMillis(1);
  EXPECT_EQ(clock.NowNanos(), 1002105);
  clock.Set(42);
  EXPECT_EQ(clock.NowNanos(), 42);
}

TEST(FakeClockTest, SystemClockIsMonotone) {
  const obs::Clock* clock = obs::SystemClock::Get();
  const int64_t a = clock->NowNanos();
  const int64_t b = clock->NowNanos();
  EXPECT_LE(a, b);
}

// --------------------------------------------------- counters/gauges

TEST(MetricsTest, CounterSumsAcrossAdds) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
  c.Add(-2);  // deltas may be negative (fold-backs)
  EXPECT_EQ(c.Value(), 40);
}

TEST(MetricsTest, GaugeIsLastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  EXPECT_EQ(g.Value(), 3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.Value(), -1.25);
}

// --------------------------------------------------------- histogram

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly 0 (and clamped negatives); bucket b >= 1
  // holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(obs::Histogram::BucketOf(-7), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(1023), 10);
  EXPECT_EQ(obs::Histogram::BucketOf(1024), 11);

  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(10), 1023);
}

TEST(MetricsTest, HistogramQuantileBoundsAreDeterministic) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("t.h");
  // 90 fast samples in [2^4, 2^5) and 10 slow ones in [2^10, 2^11):
  // p50 lands in the fast bucket, p95/p99 in the slow one.
  for (int i = 0; i < 90; ++i) h->Record(16);
  for (int i = 0; i < 10; ++i) h->Record(1024);
  EXPECT_EQ(h->Count(), 100);
  EXPECT_EQ(h->Sum(), 90 * 16 + 10 * 1024);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::HistogramSnapshot* hs = snap.FindHistogram("t.h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100);
  EXPECT_EQ(hs->QuantileBound(0.50), 31);    // bucket of 16: [16, 31]
  EXPECT_EQ(hs->QuantileBound(0.90), 31);    // 90th sample is still fast
  EXPECT_EQ(hs->QuantileBound(0.95), 2047);  // bucket of 1024
  EXPECT_EQ(hs->QuantileBound(0.99), 2047);
  EXPECT_DOUBLE_EQ(hs->Mean(), (90.0 * 16 + 10 * 1024) / 100.0);
}

TEST(MetricsTest, EmptyHistogramQuantilesAreZero) {
  obs::HistogramSnapshot hs;
  EXPECT_EQ(hs.QuantileBound(0.5), 0);
  EXPECT_EQ(hs.QuantileBound(0.99), 0);
  EXPECT_EQ(hs.Mean(), 0.0);
}

// ---------------------------------------------------------- registry

TEST(MetricsTest, RegistryReturnsStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x.count");
  obs::Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);  // hot paths cache this pointer once
  a->Add(7);
  EXPECT_EQ(b->Value(), 7);
}

TEST(MetricsTest, SnapshotListsEachKindSortedByName) {
  obs::MetricsRegistry registry;
  registry.GetCounter("z.second")->Add(2);
  registry.GetCounter("a.first")->Add(1);
  registry.GetGauge("m.gauge")->Set(0.5);
  registry.GetHistogram("q.hist")->Record(4);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "z.second");
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.FindCounter("z.second")->value, 2);
  EXPECT_EQ(snap.FindCounter("missing"), nullptr);
  EXPECT_EQ(snap.FindGauge("m.gauge")->value, 0.5);
  EXPECT_EQ(snap.FindHistogram("q.hist")->count, 1);
}

// ------------------------------------------------------------ export

TEST(ExportTest, MetricsSnapshotJsonIsBytePinned) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b.count")->Add(3);
  registry.GetCounter("a.count")->Add(1);
  registry.GetGauge("g.ratio")->Set(0.25);
  obs::Histogram* h = registry.GetHistogram("h.lat");
  h->Record(16);
  h->Record(16);

  EXPECT_EQ(obs::ToJson(registry.Snapshot()),
            "{\"a.count\": 1, \"b.count\": 3, \"g.ratio\": 0.25, "
            "\"h.lat.count\": 2, \"h.lat.sum\": 32, \"h.lat.mean\": 16, "
            "\"h.lat.p50\": 31, \"h.lat.p95\": 31, \"h.lat.p99\": 31}");
}

TEST(ExportTest, PrometheusTextExposesTypedSeries) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve.query.twoway")->Add(5);
  registry.GetGauge("serve.cache.hit_rate")->Set(0.75);
  registry.GetHistogram("serve.query.latency_ns")->Record(1024);

  const std::string text = obs::ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE dhtjoin_serve_query_twoway counter\n"
                      "dhtjoin_serve_query_twoway 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dhtjoin_serve_cache_hit_rate gauge\n"
                      "dhtjoin_serve_cache_hit_rate 0.75\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dhtjoin_serve_query_latency_ns summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("dhtjoin_serve_query_latency_ns{quantile=\"0.99\"} "
                      "2047\n"),
            std::string::npos);
  EXPECT_NE(text.find("dhtjoin_serve_query_latency_ns_count 1\n"),
            std::string::npos);
  // Dots are sanitized — no raw metric names leak into the exposition.
  EXPECT_EQ(text.find("serve.query"), std::string::npos);
}

TEST(ExportTest, TwoWayJoinStatsJsonMatchesHistoricalPrintfBytes) {
  TwoWayJoinStats st;
  st.walk_steps = 279522;
  st.walks_started = 87;
  st.pool_barriers = 4;
  st.barriers_per_iteration = {1, 1, 2};
  st.state_hits = 41;
  st.state_misses = 87;
  st.state_evictions = 3;
  st.partial.degraded = true;
  st.partial.level_reached = 6;
  st.partial.eps_bound = 0.001953125;

  // The exact bytes `dhtjoin_cli join2` printed before the export
  // helper existed (same keys, order, spacing, and %.9g doubles).
  char expected[512];
  std::snprintf(
      expected, sizeof(expected),
      "{\"walk_steps\": %lld, \"walks_started\": %lld, "
      "\"pool_barriers\": %lld, \"barriers_per_iteration\": [1, 1, 2], "
      "\"state_hits\": %lld, \"state_misses\": %lld, "
      "\"state_evictions\": %lld, \"degraded\": %s, "
      "\"level_reached\": %d, \"eps_bound\": %.9g}",
      static_cast<long long>(st.walk_steps),
      static_cast<long long>(st.walks_started),
      static_cast<long long>(st.pool_barriers),
      static_cast<long long>(st.state_hits),
      static_cast<long long>(st.state_misses),
      static_cast<long long>(st.state_evictions),
      st.partial.degraded ? "true" : "false", st.partial.level_reached,
      st.partial.eps_bound);
  EXPECT_EQ(obs::ToJson(st), expected);
}

// ---------------------------------------------------- slow-query log

TEST(SlowQueryLogTest, RingKeepsMostRecentOldestFirst) {
  obs::SlowQueryLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Record("q" + std::to_string(i), 100 + i, "{\"n\": " +
                                                    std::to_string(i) + "}");
  }
  EXPECT_EQ(log.total_recorded(), 5);
  const std::vector<obs::SlowQueryLog::Entry> entries = log.Dump();
  ASSERT_EQ(entries.size(), 3u);  // q0/q1 evicted
  EXPECT_EQ(entries[0].name, "q2");
  EXPECT_EQ(entries[0].sequence, 2);
  EXPECT_EQ(entries[2].name, "q4");
  EXPECT_EQ(entries[2].latency_ns, 104);
  EXPECT_EQ(entries[2].trace_json, "{\"n\": 4}");
}

TEST(SlowQueryLogTest, JsonEmbedsTraceDocuments) {
  obs::SlowQueryLog log(/*capacity=*/4);
  log.Record("twoway", 2048, "{\"name\": \"query.twoway\"}");
  log.Record("nway", 4096, std::string());  // empty trace renders as {}
  EXPECT_EQ(log.ToJson(),
            "{\"total_recorded\": 2, \"slow_queries\": ["
            "{\"name\": \"twoway\", \"sequence\": 0, \"latency_ns\": 2048, "
            "\"trace\": {\"name\": \"query.twoway\"}}, "
            "{\"name\": \"nway\", \"sequence\": 1, \"latency_ns\": 4096, "
            "\"trace\": {}}]}");
}

// ------------------------------------------------------ pool metrics

TEST(ThreadPoolMetricsTest, TaskAndQueueHistogramsFillUnderFakeClock) {
  obs::MetricsRegistry registry;
  obs::FakeClock clock;
  ThreadPool pool(1);  // run-inline: deterministic counts
  pool.EnableMetrics(&registry, &clock, "test.pool");

  pool.ParallelFor(4, [](int64_t) {});
  pool.ParallelFor(0, [](int64_t) {});  // empty dispatch: no barrier

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("test.pool.barriers")->value, 1);
  EXPECT_EQ(pool.scheduler_barriers(), 1);  // same counter, re-homed
  EXPECT_EQ(snap.FindCounter("test.pool.tasks")->value, 0);  // ran inline
  EXPECT_EQ(snap.FindCounter("test.pool.workers_spawned")->value, 0);
  if (obs::kEnabled) {
    // Submit() is the timed path; inline single-task ParallelFor skips
    // it by design.
    pool.Submit([] {});
    const obs::MetricsSnapshot after = registry.Snapshot();
    EXPECT_EQ(after.FindCounter("test.pool.tasks")->value, 1);
    EXPECT_EQ(after.FindCounter("test.pool.tasks_inline")->value, 1);
    EXPECT_EQ(after.FindHistogram("test.pool.queue_wait_ns")->count, 1);
    EXPECT_EQ(after.FindHistogram("test.pool.task_ns")->count, 1);
  }
}

// ------------------------------------------------------- cluster tier

TEST(ClusterMetricsTest, EveryCounterIsRegisteredEagerlyAtZero) {
  obs::MetricsRegistry registry;
  dhtjoin::cluster::ClusterMetrics metrics(registry);
  (void)metrics;
  const obs::MetricsSnapshot snap = registry.Snapshot();
  // A dashboard can only alert on series that exist BEFORE the first
  // fault — every cluster counter must appear in a fresh snapshot.
  const char* names[] = {
      "cluster.rpc.attempts",        "cluster.rpc.ok",
      "cluster.rpc.transport_errors", "cluster.rpc.retries",
      "cluster.rpc.resource_exhausted", "cluster.hedge.fired",
      "cluster.hedge.won",           "cluster.failover.worker",
      "cluster.failover.local",      "cluster.heartbeat.probes",
      "cluster.heartbeat.misses",    "cluster.frame.checksum_rejects",
      "cluster.backoff.sleeps",      "cluster.backoff.micros",
      "cluster.worker.respawns",
  };
  for (const char* name : names) {
    const obs::CounterSnapshot* c = snap.FindCounter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value, 0) << name;
  }
  ASSERT_NE(snap.FindHistogram("cluster.rpc.latency_ns"), nullptr);
  EXPECT_EQ(snap.FindHistogram("cluster.rpc.latency_ns")->count, 0);
}

TEST(ClusterMetricsTest, ValuesExportExactlyInJsonAndPrometheus) {
  obs::MetricsRegistry registry;
  dhtjoin::cluster::ClusterMetrics metrics(registry);
  metrics.rpc_attempts->Add(7);
  metrics.hedge_fired->Increment();
  metrics.failover_local->Add(2);
  metrics.backoff_micros->Add(12500);
  metrics.rpc_latency_ns->Record(4096);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("cluster.rpc.attempts")->value, 7);
  EXPECT_EQ(snap.FindCounter("cluster.hedge.fired")->value, 1);
  EXPECT_EQ(snap.FindCounter("cluster.failover.local")->value, 2);
  EXPECT_EQ(snap.FindCounter("cluster.backoff.micros")->value, 12500);
  EXPECT_EQ(snap.FindHistogram("cluster.rpc.latency_ns")->count, 1);

  const std::string json = obs::ToJson(snap);
  EXPECT_NE(json.find("\"cluster.rpc.attempts\": 7"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cluster.failover.local\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cluster.rpc.latency_ns.count\": 1"),
            std::string::npos);

  const std::string prom = obs::ToPrometheusText(snap);
  EXPECT_NE(prom.find("# TYPE dhtjoin_cluster_rpc_attempts counter\n"
                      "dhtjoin_cluster_rpc_attempts 7\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("dhtjoin_cluster_hedge_fired 1\n"), std::string::npos);
  EXPECT_NE(prom.find("dhtjoin_cluster_rpc_latency_ns_count 1\n"),
            std::string::npos);
}

// ------------------------------------------------------ persist tier

TEST(PersistMetricsTest, EveryCounterIsRegisteredEagerlyAtZero) {
  obs::MetricsRegistry registry;
  dhtjoin::persist::PersistMetrics metrics(registry);
  (void)metrics;
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const char* names[] = {
      "persist.checkpoint.writes", "persist.checkpoint.failures",
      "persist.checkpoint.bytes",  "persist.restore.hits",
      "persist.restore.rejects",
  };
  for (const char* name : names) {
    const obs::CounterSnapshot* c = snap.FindCounter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value, 0) << name;
  }
  const obs::GaugeSnapshot* staging =
      snap.FindGauge("persist.checkpoint.staging_bytes");
  ASSERT_NE(staging, nullptr);
  EXPECT_EQ(staging->value, 0.0);
}

TEST(PersistMetricsTest, ValuesExportExactlyInJsonAndPrometheus) {
  obs::MetricsRegistry registry;
  dhtjoin::persist::PersistMetrics metrics(registry);
  metrics.checkpoint_writes->Add(3);
  metrics.checkpoint_bytes->Add(65536);
  metrics.restore_hits->Add(41);
  metrics.restore_rejects->Increment();
  metrics.checkpoint_staging_bytes->Set(1048600);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("persist.checkpoint.writes")->value, 3);
  EXPECT_EQ(snap.FindCounter("persist.checkpoint.bytes")->value, 65536);
  EXPECT_EQ(snap.FindCounter("persist.restore.hits")->value, 41);
  EXPECT_EQ(snap.FindCounter("persist.restore.rejects")->value, 1);
  EXPECT_EQ(snap.FindCounter("persist.checkpoint.failures")->value, 0);

  const std::string json = obs::ToJson(snap);
  EXPECT_NE(json.find("\"persist.checkpoint.writes\": 3"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"persist.checkpoint.bytes\": 65536"),
            std::string::npos);
  EXPECT_NE(json.find("\"persist.restore.hits\": 41"), std::string::npos);

  const std::string prom = obs::ToPrometheusText(snap);
  EXPECT_NE(prom.find("# TYPE dhtjoin_persist_checkpoint_writes counter\n"
                      "dhtjoin_persist_checkpoint_writes 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("dhtjoin_persist_restore_rejects 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE dhtjoin_persist_checkpoint_staging_bytes gauge\n"
                      "dhtjoin_persist_checkpoint_staging_bytes 1048600\n"),
            std::string::npos)
      << prom;
}

TEST(ThreadPoolMetricsTest, ConcurrentPoolRecordsEveryTask) {
  obs::MetricsRegistry registry;
  obs::FakeClock clock;
  {
    ThreadPool pool(4);
    pool.EnableMetrics(&registry, &clock, "mt.pool");
    pool.ParallelFor(64, [](int64_t) {});
    pool.Wait();
  }  // join workers so the snapshot below is quiesced and exact
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("mt.pool.tasks")->value, 64);
  EXPECT_EQ(snap.FindCounter("mt.pool.barriers")->value, 1);
  if (obs::kEnabled) {
    EXPECT_EQ(snap.FindHistogram("mt.pool.queue_wait_ns")->count, 64);
    EXPECT_EQ(snap.FindHistogram("mt.pool.task_ns")->count, 64);
  }
}

}  // namespace
}  // namespace dhtjoin
