/// \file perfbench/src/catalogue.h
/// \brief Names, units and intent of every metric the benchmark prints.
/// BENCHMARK.json at the repository root lists the same names
/// (perfbench_test checks that the two agree).

#ifndef PERFBENCH_CATALOGUE_H_
#define PERFBENCH_CATALOGUE_H_

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Per-layer only: the end-to-end metric and workload it should move.
  const char* moves;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"query_p50_ms", "ms", ""},
    {"query_p95_ms", "ms", ""},
    {"throughput_qps", "1/s", ""},
    {"cpu_ms_per_query", "ms", ""},
    {"peak_rss_mb", "MiB", ""},
    {"ok_frac", "ratio", ""},
};

inline constexpr MetricDef kPerLayer[] = {
    {"dht.ybound_ms", "ms", "query_p50_ms @ twoway_cold_l08"},
    {"dht.ybound_standalone_ms", "ms", "query_p50_ms @ twoway_cold_l08"},
    {"dht.ybound_share", "ratio", "query_p50_ms @ twoway_cold_l08"},
    {"dht.advance_many_ms", "ms", "query_p50_ms @ twoway_cold_l08"},
    {"dht.final_ms", "ms", "query_p50_ms @ twoway_cold_l08"},
    {"dht.edges_relaxed", "count", "cpu_ms_per_query @ twoway_cold_l08"},
    {"dht.bytes_per_s", "B/s", "cpu_ms_per_query @ twoway_cold_l08"},
    {"dht.lane_fill", "ratio", "cpu_ms_per_query @ twoway_cold_l08"},
    {"util.pool_barriers", "count", "cpu_ms_per_query @ twoway_cold_l08"},
    {"util.parallel_eff", "ratio", "cpu_ms_per_query @ twoway_cold_l08"},
    {"util.pool_queue_wait_p50_us", "us", "query_p95_ms @ twoway_zipf_warm"},
    {"join2.pruned_frac_r1", "ratio", "query_p50_ms @ twoway_cold_l08"},
    {"join2.y_over_x", "ratio", "query_p50_ms @ twoway_cold_l08"},
    {"join2.incremental_state_hit_rate", "ratio",
     "query_p50_ms @ nway_pji_nl"},
    {"core.pulls_per_query", "count", "query_p50_ms @ nway_pji_nl"},
    {"core.beyond_m_pulls", "count", "query_p50_ms @ nway_pji_nl"},
    {"rankjoin.tuples_generated", "count", "query_p50_ms @ nway_pji_nl"},
    {"serve.cache_hit_rate", "ratio",
     "throughput_qps, query_p50_ms @ twoway_zipf_warm"},
    {"serve.warm_target_frac", "ratio",
     "throughput_qps, query_p50_ms @ twoway_zipf_warm"},
    {"serve.import_ms", "ms",
     "throughput_qps, query_p50_ms @ twoway_zipf_warm"},
    {"serve.write_back_ms", "ms",
     "throughput_qps, query_p50_ms @ twoway_zipf_warm; query_p50_ms @ "
     "twoway_cold_l08"},
    {"serve.cache_evictions", "count", "peak_rss_mb @ twoway_zipf_warm"},
    {"serve.cache_resident_mb", "MiB", "peak_rss_mb @ twoway_zipf_warm"},
    {"serve.table_hits", "count", "query_p50_ms @ nway_pji_nl"},
    {"serve.queue_wait_ms", "ms", "query_p95_ms @ twoway_zipf_warm"},
    {"serve.shed", "count", "ok_frac @ every workload"},
    {"persist.save_ms", "ms", "query_p95_ms @ twoway_zipf_warm"},
    {"persist.save_mb", "MiB", "query_p95_ms @ twoway_zipf_warm"},
    {"persist.load_ms", "ms", "setup_s @ twoway_zipf_warm"},
    {"persist.restored_entries", "count", "setup_s @ twoway_zipf_warm"},
    {"cluster.ping_us", "us", "query_p50_ms @ twoway_cluster"},
    {"cluster.codec_us", "us", "query_p50_ms @ twoway_cluster"},
    {"cluster.reply_bytes", "bytes", "query_p50_ms @ twoway_cluster"},
    {"cluster.attempts_per_query", "count",
     "query_p95_ms, ok_frac @ twoway_cluster"},
    {"cluster.hedged_frac", "ratio", "query_p95_ms, ok_frac @ twoway_cluster"},
    {"cluster.failovers", "count", "query_p95_ms, ok_frac @ twoway_cluster"},
    {"cluster.local_fallbacks", "count",
     "query_p95_ms, ok_frac @ twoway_cluster"},
    {"cluster.warm_target_frac", "ratio", "throughput_qps @ twoway_cluster"},
    {"datasets.generate_s", "s", "setup_s @ every workload"},
    {"serve.init_s", "s", "setup_s @ every workload"},
    {"cluster.spawn_s", "s", "setup_s @ twoway_cluster"},
    {"obs.tracing_overhead", "ratio", "none (cost of tracing itself)"},
};

}  // namespace perfbench

#endif  // PERFBENCH_CATALOGUE_H_
