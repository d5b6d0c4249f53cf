/// \file perfbench/src/main.cc
/// \brief The repository benchmark: drives the serving stack from
/// outside on one of four seeded closed-loop workloads, checks every
/// answer byte for byte against the library's cold path, and prints
/// either the end-to-end metrics (untraced run) or the per-layer
/// metrics (traced run). README.md in this directory documents every
/// workload and metric; run.py builds this binary and runs it.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--work-dir <dir>] [--git-rev <rev>]
///
/// The last line of standard output is the result object
/// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
/// when every answer matched; a run that cannot measure (too few
/// samples, a set-up error) exits nonzero without a result line.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "catalogue.h"
#include "cluster/coordinator.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "dht/bounds.h"
#include "join2/b_idj.h"
#include "loop.h"
#include "obs/config.h"
#include "proc_stats.h"
#include "serve/session.h"
#include "stats.h"
#include "trace_rollup.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dhtjoin;  // NOLINT
using serve::DhtJoinService;

// ------------------------------------------------------------ constants

constexpr double kZipfS = 1.0;
/// Template pools are part of a workload's definition, the same for
/// every run; `--seed` draws the request stream over them.
constexpr uint64_t kTemplateSeed = 20140331;
constexpr double kP95 = 0.95;
/// Requests pre-drawn per stream; a run stops issuing at the end.
constexpr std::size_t kStreamLength = 200000;
constexpr std::size_t kColdStreamLength = 4000;
constexpr std::size_t kColdWarmup = 4;
constexpr std::size_t kColdPool = 150;
/// twoway_zipf_warm checkpoints after every this many answers.
constexpr int64_t kCheckpointEvery = 200;
/// One in this many nway_pji_nl requests is NL.
constexpr int kNlEvery = 8;
constexpr std::size_t kNlTemplates = 4;
/// Per-query counters average over this prefix of the traced stream,
/// so they repeat exactly between same-seed traced runs of
/// twoway_cold_l08 and nway_pji_nl (README.md, "Repeats").
constexpr int64_t kCountPrefix = 200;
constexpr int kUntracedSetupReps = 3;
/// Concurrent library runs computing reference answers.
constexpr int kReferenceThreads = 4;
/// twoway_cold_l08 requests timed one by one through the library.
constexpr std::size_t kLibraryTimedRequests = 50;
const char* const kNwayAreas[] = {"DB", "AI", "SYS", "ML", "IR", "NET"};

// ------------------------------------------------------------ errors

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(2);
}

void CheckStatus(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// ------------------------------------------------------------ report

/// The metric values of one run; names outside the catalogue are a
/// programming error.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  void Set(const std::string& name, double value) {
    if (!Known(name)) Die("unknown metric " + name);
    values_[name] = std::isfinite(value) ? value : 0.0;
  }

  /// Human-readable table, then the result object as the last line.
  void Print(bool correct, const LoopAccount& account) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(account.attempted);
    json += ", \"failed\": " + std::to_string(account.failed);
    json += ", \"metrics\": {";
    bool first = true;
    std::printf("\n%-36s %18s %-6s %s\n", "metric", "value", "unit",
                traced_ ? "moves" : "");
    for (const MetricDef& m : Catalogue()) {
      const auto it = values_.find(m.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      std::printf("%-36s %18.6f %-6s %s\n", m.name, v, m.unit, m.moves);
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", v);
      json += first ? "" : ", ";
      json += "\"" + std::string(m.name) + "\": {\"value\": " + num +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  /// A traced run prints the per-layer metrics, an untraced one the
  /// end-to-end metrics.
  std::span<const MetricDef> Catalogue() const {
    if (traced_) return kPerLayer;
    return kEndToEnd;
  }
  bool Known(const std::string& name) const {
    for (const MetricDef& m : Catalogue()) {
      if (name == m.name) return true;
    }
    return false;
  }

  bool traced_;
  std::map<std::string, double> values_;
};

// ------------------------------------------------------------ run state

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string git_rev = "unknown";
};

/// Shared state of one benchmark run.
struct Run {
  const Args& args;
  const WorkloadSpec& spec;
  Report report;
  LoopAccount account;
  std::string first_error;
  std::vector<double> setup_s;  ///< one per set-up repetition

  Run(const Args& a, const WorkloadSpec& s)
      : args(a), spec(s), report(a.trace) {}

  int SetupReps() const { return args.trace ? 1 : kUntracedSetupReps; }
  DhtParams Params() const { return DhtParams::Lambda(spec.lambda); }
  std::string WorkFile(const std::string& name) const {
    return args.work_dir + "/" + spec.name + "_" + name;
  }

  template <typename Answer, typename Ref>
  void Check(const Phase<Answer>& phase, Ref reference) {
    account.Merge(Verify(phase, reference, &first_error));
  }

  /// The untraced end-to-end metrics of `phase`.
  template <typename Answer>
  void EndToEnd(const Phase<Answer>& phase, double peak_rss_mb) {
    const std::vector<double> lat = phase.AnsweredLatencies();
    const auto p50 = Percentile(lat, 0.5);
    const auto p95 = Percentile(lat, kP95);
    if (!p50 || !p95) {
      Die("only " + std::to_string(lat.size()) + " answered queries; p95 needs " +
          std::to_string(MinSamplesFor(kP95)));
    }
    const double answered = static_cast<double>(lat.size());
    std::printf("[window] %zu answered queries in %.3f s (%lld attempted)\n",
                lat.size(), phase.window_s,
                static_cast<long long>(phase.records.size()));
    report.Set("setup_s", Median(setup_s));
    report.Set("query_p50_ms", *p50);
    report.Set("query_p95_ms", *p95);
    report.Set("throughput_qps", answered / phase.window_s);
    report.Set("cpu_ms_per_query", phase.cpu_s * 1e3 / answered);
    report.Set("peak_rss_mb", peak_rss_mb);
    report.Set("ok_frac", 1.0 - account.FailedFrac());
  }

  /// obs.tracing_overhead: traced over untraced median latency.
  template <typename Answer>
  void TracingOverhead(const Phase<Answer>& untraced,
                       const Phase<Answer>& traced) {
    report.Set("obs.tracing_overhead", Median(traced.AnsweredLatencies()) /
                                           Median(untraced.AnsweredLatencies()));
  }
};

// ------------------------------------------------------------ library runs

struct TimedTwoWay {
  std::vector<ScoredPair> answer;
  double seconds = 0.0;
};

TimedTwoWay RunBIdj(const Graph& g, const DhtParams& p, int d,
                    const TwoWaySets& s, std::size_t k, UpperBoundKind bound) {
  BIdjJoin join(BIdjJoin::Options{.bound = bound});
  const int64_t t0 = NowNanos();
  auto result = join.Run(g, p, d, s.P, s.Q, k);
  const double secs = SecondsSince(t0);
  CheckStatus(result.status(), "BIdjJoin::Run");
  return {std::move(result).value(), secs};
}

double YBoundMillis(const Graph& g, const DhtParams& p, int d,
                    const NodeSet& P, const NodeSet& Q) {
  const int64_t t0 = NowNanos();
  YBoundTable table(g, p, d, P, Q);
  const double ms = SecondsSince(t0) * 1e3;
  if (!table.complete()) Die("YBoundTable incomplete without a stop");
  return ms;
}

/// Calls fn(i) for every i in [0, count), from `threads` threads.
template <typename Fn>
void ForEachParallel(std::size_t count, int threads_wanted, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < threads_wanted; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

using TwoWayAnswer = std::vector<ScoredPair>;

/// Extends `refs` to the library cold-path answers of sets[0, last),
/// several runs at a time (always outside a timed window).
void ExtendReferences(const Graph& g, const DhtParams& p, int d, std::size_t k,
                      const std::vector<TwoWaySets>& sets, std::size_t last,
                      std::vector<TwoWayAnswer>* refs) {
  const std::size_t have = refs->size();
  if (last <= have) return;
  refs->resize(last);
  ForEachParallel(last - have, kReferenceThreads, [&](std::size_t i) {
    (*refs)[have + i] =
        RunBIdj(g, p, d, sets[have + i], k, UpperBoundKind::kY).answer;
  });
}

/// dht.ybound_standalone_ms and join2.y_over_x over the first `count`
/// of `sets`, timed one library run at a time.
void LibraryTwoWayTimings(Run& run, const Graph& g, const DhtParams& p,
                          const std::vector<TwoWaySets>& sets,
                          std::size_t count) {
  const WorkloadSpec& w = run.spec;
  std::vector<double> ybound_ms;
  double y_s = 0.0, x_s = 0.0;
  for (std::size_t i = 0; i < count && i < sets.size(); ++i) {
    ybound_ms.push_back(YBoundMillis(g, p, w.d, sets[i].P, sets[i].Q));
    y_s += RunBIdj(g, p, w.d, sets[i], w.k, UpperBoundKind::kY).seconds;
    x_s += RunBIdj(g, p, w.d, sets[i], w.k, UpperBoundKind::kX).seconds;
  }
  run.report.Set("dht.ybound_standalone_ms", Median(ybound_ms));
  run.report.Set("join2.y_over_x", y_s / x_s);
}

double FileMiB(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------ service layers

/// Counters of one service read before and after a traced phase.
struct ServiceMark {
  serve::CacheStats cache;
  serve::ServiceStats service;
  obs::HistogramSnapshot queue_wait;
  int64_t slow_seq = 0;

  static ServiceMark Take(DhtJoinService& svc) {
    ServiceMark m;
    m.cache = svc.cache_stats();
    m.service = svc.service_stats();
    const obs::MetricsSnapshot snap = svc.SnapshotMetrics();
    if (const auto* h = snap.FindHistogram("serve.pool.queue_wait_ns")) {
      m.queue_wait = *h;
    }
    m.slow_seq = svc.slow_queries().total_recorded();
    return m;
  }
};

int64_t Shed(const serve::ServiceStats& s) {
  return s.admission.shed_capacity + s.admission.shed_cost +
         s.admission.shed_expired;
}

/// Span totals of the queries captured since `from_seq`.
std::map<std::string, int64_t> PhaseSpans(const DhtJoinService& svc,
                                          int64_t from_seq) {
  std::map<std::string, int64_t> totals;
  for (const auto& e : svc.slow_queries().Dump()) {
    if (e.sequence >= from_seq) AddSpanTotals(e.trace_json, &totals);
  }
  return totals;
}

double SpanMs(const std::map<std::string, int64_t>& spans,
              const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
}

/// Per-layer metrics every in-process traced phase reports: span time,
/// cache, pool and admission counters.
template <typename Answer>
void ServiceLayers(Run& run, DhtJoinService& svc, const ServiceMark& before,
                   const Phase<Answer>& phase) {
  const ServiceMark after = ServiceMark::Take(svc);
  const auto spans = PhaseSpans(svc, before.slow_seq);
  const double n = std::max<double>(1.0, static_cast<double>(phase.Answered()));
  const double query_ms =
      SpanMs(spans, "query.twoway") + SpanMs(spans, "query.nway");
  const double advance_ms =
      SpanMs(spans, "b.advance_many") + SpanMs(spans, "f.advance_many");
  Report& r = run.report;
  r.Set("dht.ybound_ms", SpanMs(spans, "ybound") / n);
  r.Set("dht.ybound_share",
        query_ms > 0 ? SpanMs(spans, "ybound") / query_ms : 0.0);
  r.Set("dht.advance_many_ms", advance_ms / n);
  r.Set("dht.final_ms", SpanMs(spans, "final") / n);
  r.Set("serve.import_ms", SpanMs(spans, "import") / n);
  r.Set("serve.write_back_ms", SpanMs(spans, "write_back") / n);

  int64_t bytes = 0, lanes = 0, blocks = 0, warm = 0, cold = 0;
  double queue_ms = 0.0;
  for (const auto& rec : phase.records) {
    bytes += rec.qs.trace_bytes_touched;
    if (rec.status.ok()) queue_ms += rec.latency_ms - rec.qs.seconds * 1e3;
    if (rec.index >= kCountPrefix) continue;
    lanes += rec.qs.trace_lanes_packed;
    blocks += rec.qs.trace_blocks_run;
    warm += rec.qs.warm_targets;
    cold += rec.qs.cold_targets;
  }
  r.Set("dht.bytes_per_s",
        advance_ms > 0 ? static_cast<double>(bytes) / (advance_ms * 1e-3) : 0.0);
  r.Set("dht.lane_fill", blocks > 0 ? static_cast<double>(lanes) /
                                          (static_cast<double>(blocks) * 8.0)
                                    : 0.0);
  r.Set("serve.warm_target_frac",
        warm + cold > 0 ? static_cast<double>(warm) /
                              static_cast<double>(warm + cold)
                        : 0.0);
  r.Set("serve.queue_wait_ms", queue_ms / n);

  const int64_t hits = after.cache.hits - before.cache.hits;
  const int64_t misses = after.cache.misses - before.cache.misses;
  r.Set("serve.cache_hit_rate",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0);
  r.Set("serve.cache_evictions",
        static_cast<double>(after.cache.evictions - before.cache.evictions) / n);
  r.Set("serve.cache_resident_mb",
        static_cast<double>(after.cache.resident_bytes) / (1024.0 * 1024.0));
  r.Set("serve.shed", static_cast<double>(Shed(after.service) -
                                          Shed(before.service)));

  obs::HistogramSnapshot wait = after.queue_wait;
  wait.count -= before.queue_wait.count;
  wait.sum -= before.queue_wait.sum;
  for (std::size_t b = 0; b < wait.buckets.size(); ++b) {
    wait.buckets[b] -= before.queue_wait.buckets[b];
  }
  r.Set("util.pool_queue_wait_p50_us",
        static_cast<double>(wait.QuantileBound(0.5)) * 1e-3);
  r.Set("util.parallel_eff", phase.wall_cpu_capacity_s > 0
                                 ? phase.cpu_s / phase.wall_cpu_capacity_s
                                 : 0.0);
}

/// Per-query 2-way engine counters over the first kCountPrefix
/// requests (index order), which repeat exactly where no request's
/// counts depend on another's (twoway_cold_l08, where no key repeats).
void TwoWayCounts(Run& run, const Phase<std::vector<ScoredPair>>& phase) {
  int64_t steps = 0, barriers = 0, state_hits = 0, state_misses = 0, n = 0;
  double pruned = 0.0;
  for (const auto& rec : phase.records) {
    if (rec.index >= kCountPrefix || !rec.status.ok()) continue;
    ++n;
    steps += rec.qs.join.walk_steps;
    barriers += rec.qs.join.pool_barriers;
    state_hits += rec.qs.join.state_hits;
    state_misses += rec.qs.join.state_misses;
    if (!rec.qs.join.pruned_fraction_per_iteration.empty()) {
      pruned += rec.qs.join.pruned_fraction_per_iteration.front();
    }
  }
  const double dn = std::max<double>(1.0, static_cast<double>(n));
  run.report.Set("dht.edges_relaxed", static_cast<double>(steps) / dn);
  run.report.Set("util.pool_barriers", static_cast<double>(barriers) / dn);
  run.report.Set("join2.pruned_frac_r1", pruned / dn);
  run.report.Set("join2.incremental_state_hit_rate",
                 state_hits + state_misses > 0
                     ? static_cast<double>(state_hits) /
                           static_cast<double>(state_hits + state_misses)
                     : 0.0);
}

DhtJoinService::Options ServiceOptions(const WorkloadSpec& spec, bool traced) {
  DhtJoinService::Options o;
  o.num_threads = spec.pool_threads;
  if (traced) {
    // Capture every query's span tree (threshold 1 ns) in a ring large
    // enough for a whole phase.
    o.trace_queries = true;
    o.slow_query_nanos = 1;
    o.slow_query_capacity = std::size_t{1} << 16;
  }
  return o;
}

using TwoWayPhase = Phase<std::vector<ScoredPair>>;

/// Issues one 2-way request on the service's async session path.
auto SubmitTwoWayIssue(DhtJoinService& svc, const std::vector<TwoWaySets>& sets,
                       const std::function<std::size_t(int64_t)>& pick,
                       std::size_t k) {
  return [&svc, &sets, pick, k](int, Record<std::vector<ScoredPair>>& r) {
    const TwoWaySets& s = sets[pick(r.index)];
    serve::QueryOptions qopts;
    qopts.stats = &r.qs;
    auto result = svc.SubmitTwoWay(s.P, s.Q, k, qopts).get();
    r.status = result.status();
    if (result.ok()) r.answer = std::move(result).value();
    r.degraded = r.qs.join.partial.degraded;
  };
}

// ------------------------------------------------------------ twoway_zipf_warm

void RunZipfWarm(Run& run) {
  const WorkloadSpec& w = run.spec;
  const int64_t gen0 = NowNanos();
  const auto ds = bench::MakeDblp(w.authors);
  const double generate_s = SecondsSince(gen0);
  const Graph& g = ds.graph;
  const DhtParams p = run.Params();
  const auto templates = MakeTwoWayTemplates(
      g, ds.areas, w.templates, w.set_size, kTemplateSeed);
  const auto stream = DrawZipfStream(templates.size(), kZipfS, kStreamLength,
                                     SubSeed(run.args.seed, 2));

  std::vector<TwoWayAnswer> refs;
  ExtendReferences(g, p, w.d, w.k, templates, templates.size(), &refs);

  // Set-up: warm one service, checkpoint it, restore a fresh one.
  const std::string setup_snap = run.WorkFile("setup.snap");
  std::unique_ptr<DhtJoinService> service;
  std::unique_ptr<DhtJoinService> traced;
  double init_s = 0.0, load_ms = 0.0;
  int64_t restored = 0;
  for (int rep = 0; rep < run.SetupReps(); ++rep) {
    service.reset();
    const int64_t t0 = NowNanos();
    {
      DhtJoinService warm(g, p, w.d, ServiceOptions(w, false));
      // Least popular first, so the popular templates end most recent.
      std::vector<std::future<Result<std::vector<ScoredPair>>>> futures;
      for (std::size_t i = templates.size(); i-- > 0;) {
        futures.push_back(
            warm.SubmitTwoWay(templates[i].P, templates[i].Q, w.k));
      }
      for (auto& f : futures) CheckStatus(f.get().status(), "warm-up query");
      CheckStatus(warm.SaveWarmState(setup_snap), "SaveWarmState");
    }
    service = std::make_unique<DhtJoinService>(g, p, w.d,
                                               ServiceOptions(w, false));
    const int64_t l0 = NowNanos();
    auto loaded = service->LoadWarmState(setup_snap);
    CheckStatus(loaded.status(), "LoadWarmState");
    load_ms = SecondsSince(l0) * 1e3;
    restored = *loaded;
    init_s = SecondsSince(t0);
    run.setup_s.push_back(generate_s + init_s);
  }
  if (run.args.trace) {
    traced = std::make_unique<DhtJoinService>(g, p, w.d,
                                              ServiceOptions(w, true));
    CheckStatus(traced->LoadWarmState(setup_snap).status(), "LoadWarmState");
  }
  std::printf("[setup] restored %lld cache entries in %.1f ms\n",
              static_cast<long long>(restored), load_ms);

  // The window: 3 clients plus a checkpointer that saves after every
  // kCheckpointEvery answers.
  auto phase_on = [&](DhtJoinService& svc, double seconds, int64_t min_answers,
                      const std::string& snap, std::vector<double>* save_ms,
                      std::vector<double>* save_mb) {
    std::mutex mu;
    std::condition_variable cv;
    int64_t answers = 0;
    bool done = false;
    std::thread checkpointer([&] {
      int64_t trigger = kCheckpointEvery;
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        cv.wait(lock, [&] { return done || answers >= trigger; });
        if (done) return;
        lock.unlock();
        const int64_t t0 = NowNanos();
        CheckStatus(svc.SaveWarmState(snap), "SaveWarmState (window)");
        save_ms->push_back(SecondsSince(t0) * 1e3);
        save_mb->push_back(FileMiB(snap));
        lock.lock();
        trigger += kCheckpointEvery;
      }
    });
    auto issue = SubmitTwoWayIssue(
        svc, templates, [&](int64_t i) { return stream[static_cast<std::size_t>(i)]; },
        w.k);
    TwoWayPhase phase = RunClosedLoop<std::vector<ScoredPair>>(
        w.clients, seconds, min_answers, stream.size(), {}, issue, [&] {
          std::lock_guard<std::mutex> lock(mu);
          ++answers;
          cv.notify_one();
        });
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    checkpointer.join();
    run.Check(phase, [&](int64_t i) -> const std::vector<ScoredPair>& {
      return refs[stream[static_cast<std::size_t>(i)]];
    });
    return phase;
  };

  std::vector<double> save_ms, save_mb;
  if (!run.args.trace) {
    TwoWayPhase phase =
        phase_on(*service, run.args.seconds, MinSamplesFor(kP95),
                 run.WorkFile("window.snap"), &save_ms, &save_mb);
    std::printf("[window] %zu checkpoints\n", save_ms.size());
    run.EndToEnd(phase, PeakRssMiB());
    return;
  }
  std::vector<double> unused_ms, unused_mb;
  TwoWayPhase plain =
      phase_on(*service, run.args.seconds / 2, MinSamplesFor(0.5),
               run.WorkFile("window_plain.snap"), &unused_ms, &unused_mb);
  const ServiceMark mark = ServiceMark::Take(*traced);
  TwoWayPhase phase =
      phase_on(*traced, run.args.seconds / 2, MinSamplesFor(kP95),
               run.WorkFile("window.snap"), &save_ms, &save_mb);
  ServiceLayers(run, *traced, mark, phase);
  TwoWayCounts(run, phase);
  run.TracingOverhead(plain, phase);

  LibraryTwoWayTimings(run, g, p, templates, templates.size());
  Report& r = run.report;
  r.Set("persist.save_ms", Median(save_ms));
  r.Set("persist.save_mb", Median(save_mb));
  r.Set("persist.load_ms", load_ms);
  r.Set("persist.restored_entries", static_cast<double>(restored));
  r.Set("datasets.generate_s", generate_s);
  r.Set("serve.init_s", init_s);
}

// ------------------------------------------------------------ twoway_cold_l08

void RunColdL08(Run& run) {
  const WorkloadSpec& w = run.spec;
  const int64_t gen0 = NowNanos();
  const auto ds = bench::MakeDblp(w.authors);
  const double generate_s = SecondsSince(gen0);
  const Graph& g = ds.graph;
  const DhtParams p = run.Params();
  // The first kColdWarmup requests warm the service (allocator, pool
  // threads); the timed stream starts after them and shares no key.
  const auto requests =
      MakeColdRequests(g, ds.areas, kColdWarmup + kColdStreamLength, kColdPool,
                       w.set_size, SubSeed(run.args.seed, 1));
  const std::vector<TwoWaySets> stream(requests.begin() + kColdWarmup,
                                       requests.end());

  auto make_service = [&](bool traced) {
    const int64_t t0 = NowNanos();
    auto svc = std::make_unique<DhtJoinService>(g, p, w.d,
                                                ServiceOptions(w, traced));
    for (std::size_t i = 0; i < kColdWarmup; ++i) {
      CheckStatus(svc->SubmitTwoWay(requests[i].P, requests[i].Q, w.k)
                      .get()
                      .status(),
                  "warm-up query");
    }
    return std::make_pair(std::move(svc), SecondsSince(t0));
  };
  std::unique_ptr<DhtJoinService> service;
  double init_s = 0.0;
  for (int rep = 0; rep < run.SetupReps(); ++rep) {
    service.reset();
    std::tie(service, init_s) = make_service(false);
    run.setup_s.push_back(generate_s + init_s);
  }

  auto phase_on = [&](DhtJoinService& svc, double seconds, int64_t min_answers) {
    auto issue = SubmitTwoWayIssue(
        svc, stream, [](int64_t i) { return static_cast<std::size_t>(i); }, w.k);
    return RunClosedLoop<std::vector<ScoredPair>>(
        w.clients, seconds, min_answers, stream.size(), {}, issue);
  };
  // Reference answers: one cold library run per request, after the
  // window (each request is new, so none can be precomputed cheaply).
  std::vector<TwoWayAnswer> refs;
  auto check = [&](const TwoWayPhase& phase) {
    const auto last = static_cast<std::size_t>(
        phase.records.empty() ? 0 : phase.records.back().index + 1);
    ExtendReferences(g, p, w.d, w.k, stream, last, &refs);
    run.Check(phase, [&](int64_t i) -> const std::vector<ScoredPair>& {
      return refs[static_cast<std::size_t>(i)];
    });
  };

  if (!run.args.trace) {
    TwoWayPhase phase = phase_on(*service, run.args.seconds, MinSamplesFor(kP95));
    const double rss = PeakRssMiB();
    check(phase);
    run.EndToEnd(phase, rss);
    return;
  }
  TwoWayPhase plain = phase_on(*service, run.args.seconds / 2, MinSamplesFor(0.5));
  service.reset();
  auto traced = make_service(true).first;
  const ServiceMark mark = ServiceMark::Take(*traced);
  TwoWayPhase phase = phase_on(*traced, run.args.seconds / 2, MinSamplesFor(kP95));
  ServiceLayers(run, *traced, mark, phase);
  TwoWayCounts(run, phase);
  run.TracingOverhead(plain, phase);
  check(plain);
  check(phase);

  LibraryTwoWayTimings(run, g, p, stream, kLibraryTimedRequests);
  Report& r = run.report;
  r.Set("datasets.generate_s", generate_s);
  r.Set("serve.init_s", init_s);
}

// ------------------------------------------------------------ nway_pji_nl

struct NwayRef {
  std::vector<TupleAnswer> answer;
  double seconds = 0.0;
  PartialJoin::Stats stats;
};

const MinAggregate kMin{};

void RunNwayPjiNl(Run& run) {
  const WorkloadSpec& w = run.spec;
  const int64_t gen0 = NowNanos();
  const auto ds = bench::MakeDblp(w.authors);
  const double generate_s = SecondsSince(gen0);
  const Graph& g = ds.graph;
  const DhtParams p = run.Params();
  std::vector<NodeSet> sets;
  for (const char* name : kNwayAreas) {
    auto area = ds.Area(name);
    CheckStatus(area.status(), "DBLP area");
    sets.push_back(area->TopByDegree(g, w.set_size));
  }
  const auto pji = MakeNwayTemplates(sets, w.templates, {3, 4}, kTemplateSeed);
  const auto nl = MakeNwayTemplates(sets, kNlTemplates, {3}, kTemplateSeed + 1);
  const auto stream = DrawNwayStream(pji.size(), nl.size(), kNlEvery, kZipfS,
                                     kStreamLength, SubSeed(run.args.seed, 2));

  auto run_pj = [&](const QueryGraph& q, UpperBoundKind bound) {
    PartialJoin join(PartialJoin::Options{
        .m = w.k, .incremental = true, .bound = bound});
    const int64_t t0 = NowNanos();
    auto result = join.Run(g, p, w.d, q, kMin, w.k);
    const double secs = SecondsSince(t0);
    CheckStatus(result.status(), "PartialJoin::Run");
    return NwayRef{std::move(result).value(), secs, join.stats()};
  };
  std::vector<NwayRef> pji_refs(pji.size()), nl_refs(nl.size());
  ForEachParallel(pji.size(), kReferenceThreads, [&](std::size_t i) {
    pji_refs[i] = run_pj(pji[i].query, UpperBoundKind::kY);
  });
  ForEachParallel(nl.size(), kReferenceThreads, [&](std::size_t i) {
    NestedLoopJoin join;
    auto result = join.Run(g, p, w.d, nl[i].query, kMin, w.k);
    CheckStatus(result.status(), "NestedLoopJoin::Run");
    nl_refs[i].answer = std::move(result).value();
  });

  auto query_of = [&](const NwayRequest& r) -> const QueryGraph& {
    return r.nested_loop ? nl[r.template_id].query : pji[r.template_id].query;
  };
  auto algo_of = [](const NwayRequest& r) {
    return r.nested_loop ? DhtJoinService::NwayAlgo::kNestedLoop
                         : DhtJoinService::NwayAlgo::kPartialJoinIncremental;
  };

  // Set-up: a service warmed by one pass over every template.
  std::unique_ptr<DhtJoinService> service;
  double init_s = 0.0;
  for (int rep = 0; rep < run.SetupReps(); ++rep) {
    service.reset();
    const int64_t t0 = NowNanos();
    service = std::make_unique<DhtJoinService>(g, p, w.d,
                                               ServiceOptions(w, false));
    for (const NwayTemplate& t : pji) {
      CheckStatus(service->Nway(t.query, kMin, w.k).status(), "warm-up PJ-i");
    }
    for (const NwayTemplate& t : nl) {
      CheckStatus(service
                      ->Nway(t.query, kMin, w.k,
                             DhtJoinService::NwayAlgo::kNestedLoop)
                      .status(),
                  "warm-up NL");
    }
    init_s = SecondsSince(t0);
    run.setup_s.push_back(generate_s + init_s);
  }

  // A traced run has one client: each request's cache lookups are read
  // as the difference of the service-wide counters around it.
  using NwayPhase = Phase<std::vector<TupleAnswer>>;
  auto phase_on = [&](DhtJoinService& svc, double seconds, int64_t min_answers) {
    auto issue = [&](int, Record<std::vector<TupleAnswer>>& r) {
      const NwayRequest& req = stream[static_cast<std::size_t>(r.index)];
      const serve::CacheStats before = svc.cache_stats();
      serve::QueryOptions qopts;
      qopts.stats = &r.qs;
      auto result =
          svc.SubmitNway(query_of(req), kMin, w.k, algo_of(req), qopts).get();
      const serve::CacheStats after = svc.cache_stats();
      r.cache_hits = after.hits - before.hits;
      r.cache_misses = after.misses - before.misses;
      r.status = result.status();
      if (result.ok()) r.answer = std::move(result).value();
    };
    NwayPhase phase = RunClosedLoop<std::vector<TupleAnswer>>(
        ClientsOf(w, run.args.trace), seconds, min_answers, stream.size(), {},
        issue);
    run.Check(phase, [&](int64_t i) -> const std::vector<TupleAnswer>& {
      const NwayRequest& req = stream[static_cast<std::size_t>(i)];
      return req.nested_loop ? nl_refs[req.template_id].answer
                             : pji_refs[req.template_id].answer;
    });
    return phase;
  };

  if (!run.args.trace) {
    NwayPhase phase = phase_on(*service, run.args.seconds, MinSamplesFor(kP95));
    run.EndToEnd(phase, PeakRssMiB());
    return;
  }
  // Traced: the traced service restores the warmed one's checkpoint.
  const std::string snap = run.WorkFile("setup.snap");
  const int64_t s0 = NowNanos();
  CheckStatus(service->SaveWarmState(snap), "SaveWarmState");
  const double save_ms = SecondsSince(s0) * 1e3;
  DhtJoinService traced(g, p, w.d, ServiceOptions(w, true));
  const int64_t l0 = NowNanos();
  auto restored = traced.LoadWarmState(snap);
  CheckStatus(restored.status(), "LoadWarmState");
  const double load_ms = SecondsSince(l0) * 1e3;

  NwayPhase plain = phase_on(*service, run.args.seconds / 2, MinSamplesFor(0.5));
  const ServiceMark mark = ServiceMark::Take(traced);
  NwayPhase phase = phase_on(traced, run.args.seconds / 2, MinSamplesFor(kP95));
  ServiceLayers(run, traced, mark, phase);
  run.TracingOverhead(plain, phase);

  // Per-query counts over the count prefix: cache hit rate of the PJ-i
  // snapshot lookups, NL table hits, and the rank join's work from the
  // library re-run of each template.
  int64_t hits = 0, misses = 0, table_hits = 0, n = 0, n_pji = 0;
  int64_t pulls = 0, beyond = 0, tuples = 0;
  double ybound_ms = 0.0;
  std::vector<double> template_ybound_ms(pji.size(), -1.0);
  for (const auto& rec : phase.records) {
    if (rec.index >= kCountPrefix) continue;
    const NwayRequest& req = stream[static_cast<std::size_t>(rec.index)];
    ++n;
    table_hits += rec.qs.table_hits;
    if (req.nested_loop) continue;
    ++n_pji;
    hits += rec.cache_hits;
    misses += rec.cache_misses;
    const PartialJoin::Stats& s = pji_refs[req.template_id].stats;
    for (int64_t v : s.pulls_per_edge) pulls += v;
    for (int64_t v : s.beyond_m_per_edge) beyond += v;
    tuples += s.rank_join.tuples_generated;
    double& yb = template_ybound_ms[req.template_id];
    if (yb < 0) {
      yb = 0.0;
      const QueryGraph& q = pji[req.template_id].query;
      for (const JoinEdge& e : q.edges()) {
        yb += YBoundMillis(g, p, w.d, q.set(e.left), q.set(e.right));
      }
    }
    ybound_ms += yb;
  }
  const double dn = std::max<double>(1.0, static_cast<double>(n));
  const double dp = std::max<double>(1.0, static_cast<double>(n_pji));
  double y_s = 0.0, x_s = 0.0;
  for (std::size_t i = 0; i < pji.size(); ++i) {
    y_s += run_pj(pji[i].query, UpperBoundKind::kY).seconds;
    x_s += run_pj(pji[i].query, UpperBoundKind::kX).seconds;
  }
  Report& r = run.report;
  r.Set("dht.ybound_standalone_ms", ybound_ms / dp);
  r.Set("join2.y_over_x", y_s / x_s);
  r.Set("join2.incremental_state_hit_rate",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0);
  r.Set("serve.table_hits", static_cast<double>(table_hits) / dn);
  r.Set("core.pulls_per_query", static_cast<double>(pulls) / dp);
  r.Set("core.beyond_m_pulls", static_cast<double>(beyond) / dp);
  r.Set("rankjoin.tuples_generated", static_cast<double>(tuples) / dp);
  r.Set("persist.save_ms", save_ms);
  r.Set("persist.save_mb", FileMiB(snap));
  r.Set("persist.load_ms", load_ms);
  r.Set("persist.restored_entries", static_cast<double>(*restored));
  r.Set("datasets.generate_s", generate_s);
  r.Set("serve.init_s", init_s);
}

// ------------------------------------------------------------ twoway_cluster

/// Worker processes of the run; every one still alive is stopped (and
/// reaped) on destruction, error paths included.
class WorkerFleet {
 public:
  WorkerFleet() = default;
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;
  ~WorkerFleet() {
    for (auto& w : workers_) Stop(w);
  }

  /// Forks `count` workers; returns their indices and the spawn time.
  std::pair<std::vector<std::size_t>, double> Spawn(
      const Graph& g, const DhtParams& p, int d, int count,
      const cluster::WorkerOptions& options) {
    std::vector<std::size_t> ids;
    std::fflush(stdout);  // a forked child must not inherit buffered output
    const int64_t t0 = NowNanos();
    for (int i = 0; i < count; ++i) {
      auto spawned = cluster::SpawnWorkerProcess(g, p, d, options);
      CheckStatus(spawned.status(), "SpawnWorkerProcess");
      ids.push_back(workers_.size());
      workers_.push_back(*spawned);
    }
    return {ids, SecondsSince(t0)};
  }

  std::vector<cluster::WorkerEndpoint> Endpoints(
      const std::vector<std::size_t>& ids) const {
    std::vector<cluster::WorkerEndpoint> out;
    for (std::size_t i : ids) out.push_back({workers_[i].port});
    return out;
  }
  std::vector<int64_t> Pids(const std::vector<std::size_t>& ids) const {
    std::vector<int64_t> out;
    for (std::size_t i : ids) out.push_back(workers_[i].pid);
    return out;
  }
  void StopAll(const std::vector<std::size_t>& ids) {
    for (std::size_t i : ids) Stop(workers_[i]);
  }

 private:
  static void Stop(cluster::SpawnedWorker& w) {
    if (w.pid < 0) return;
    const Status s = cluster::StopWorkerProcess(w, 5000);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: worker %lld: %s\n",
                   static_cast<long long>(w.pid), s.ToString().c_str());
    }
    w.pid = -1;
  }

  std::vector<cluster::SpawnedWorker> workers_;
};

void RunCluster(Run& run) {
  const WorkloadSpec& w = run.spec;
  const int64_t gen0 = NowNanos();
  const auto ds = bench::MakeDblp(w.authors);
  const double generate_s = SecondsSince(gen0);
  const Graph& g = ds.graph;
  const DhtParams p = run.Params();

  // Fork every worker before this process starts a thread (fork copies
  // only the calling thread): one pair per set-up repetition, plus a
  // traced pair in a traced run.
  WorkerFleet fleet;
  cluster::WorkerOptions wopts;
  wopts.service = ServiceOptions(w, false);
  std::vector<std::pair<std::vector<std::size_t>, double>> pairs;
  for (int rep = 0; rep < run.SetupReps(); ++rep) {
    pairs.push_back(fleet.Spawn(g, p, w.d, w.workers, wopts));
  }
  std::pair<std::vector<std::size_t>, double> traced_pair;
  if (run.args.trace) {
    cluster::WorkerOptions topts = wopts;
    topts.service.trace_queries = true;
    traced_pair = fleet.Spawn(g, p, w.d, w.workers, topts);
  }

  const auto templates = MakeTwoWayTemplates(
      g, ds.areas, w.templates, w.set_size, kTemplateSeed);
  const auto stream = DrawZipfStream(templates.size(), kZipfS, kStreamLength,
                                     SubSeed(run.args.seed, 2));
  std::vector<TwoWayAnswer> refs;
  ExtendReferences(g, p, w.d, w.k, templates, templates.size(), &refs);

  auto make_coordinator = [&](const std::vector<std::size_t>& ids) {
    auto coord = std::make_unique<cluster::ClusterCoordinator>(
        g, p, w.d, fleet.Endpoints(ids), cluster::CoordinatorOptions{});
    CheckStatus(coord->PingAll(), "PingAll");
    ForEachParallel(templates.size(), w.clients, [&](std::size_t i) {
      const TwoWaySets& t = templates[templates.size() - 1 - i];
      CheckStatus(coord->TwoWay(t.P, t.Q, w.k).status(), "warm-up query");
    });
    return coord;
  };
  std::unique_ptr<cluster::ClusterCoordinator> coord;
  std::vector<std::size_t> serving;
  double init_s = 0.0, spawn_s = 0.0;
  for (int rep = 0; rep < run.SetupReps(); ++rep) {
    if (coord != nullptr) {
      coord.reset();
      fleet.StopAll(serving);
    }
    serving = pairs[static_cast<std::size_t>(rep)].first;
    spawn_s = pairs[static_cast<std::size_t>(rep)].second;
    const int64_t t0 = NowNanos();
    coord = make_coordinator(serving);
    init_s = SecondsSince(t0);
    run.setup_s.push_back(generate_s + spawn_s + init_s);
  }

  auto phase_on = [&](cluster::ClusterCoordinator& c,
                      const std::vector<std::size_t>& ids, double seconds,
                      int64_t min_answers) {
    auto issue = [&](int, Record<std::vector<ScoredPair>>& r) {
      const TwoWaySets& t = templates[stream[static_cast<std::size_t>(r.index)]];
      auto result = c.TwoWay(t.P, t.Q, w.k, &r.cs);
      r.status = result.status();
      if (result.ok()) r.answer = std::move(result).value();
      r.degraded = r.cs.degraded;
    };
    TwoWayPhase phase = RunClosedLoop<std::vector<ScoredPair>>(
        w.clients, seconds, min_answers, stream.size(), fleet.Pids(ids), issue);
    run.Check(phase, [&](int64_t i) -> const std::vector<ScoredPair>& {
      return refs[stream[static_cast<std::size_t>(i)]];
    });
    return phase;
  };
  auto rss_of = [&](const std::vector<std::size_t>& ids) {
    double mb = PeakRssMiB();
    for (int64_t pid : fleet.Pids(ids)) mb += PeakRssMiB(pid);
    return mb;
  };

  if (!run.args.trace) {
    TwoWayPhase phase =
        phase_on(*coord, serving, run.args.seconds, MinSamplesFor(kP95));
    run.EndToEnd(phase, rss_of(serving));
    return;
  }
  TwoWayPhase plain =
      phase_on(*coord, serving, run.args.seconds / 2, MinSamplesFor(0.5));
  auto traced = make_coordinator(traced_pair.first);
  TwoWayPhase phase = phase_on(*traced, traced_pair.first, run.args.seconds / 2,
                               MinSamplesFor(kP95));
  run.TracingOverhead(plain, phase);

  // Routing counters, and the wire codec applied to the run's own
  // queries and answers.
  int64_t attempts = 0, hedged = 0, failovers = 0, local = 0, warm = 0,
          cold = 0, steps = 0, n = 0, reply_bytes = 0;
  double codec_us = 0.0;
  for (const auto& rec : phase.records) {
    if (!rec.status.ok()) continue;
    ++n;
    attempts += rec.cs.attempts;
    hedged += rec.cs.hedged ? 1 : 0;
    failovers += rec.cs.failover ? 1 : 0;
    local += rec.cs.local_fallback ? 1 : 0;
    warm += rec.cs.warm_targets;
    cold += rec.cs.cold_targets;
    if (rec.index < kCountPrefix) steps += rec.cs.walk_steps;
    const TwoWaySets& t = templates[stream[static_cast<std::size_t>(rec.index)]];
    cluster::TwoWayWireRequest req;
    req.graph_fp = 1;
    req.k = w.k;
    for (ExtNodeId u : t.P) req.p_ids.push_back(u.value());
    for (ExtNodeId u : t.Q) req.q_ids.push_back(u.value());
    cluster::TwoWayWireReply reply;
    reply.pairs = rec.answer;
    const int64_t c0 = NowNanos();
    const auto req_bytes = cluster::EncodeTwoWayRequest(req);
    const auto reply_enc = cluster::EncodeTwoWayReply(reply);
    const bool decoded = cluster::DecodeTwoWayRequest(req_bytes).ok() &&
                         cluster::DecodeTwoWayReply(reply_enc).ok();
    codec_us += static_cast<double>(NowNanos() - c0) * 1e-3;
    if (!decoded) Die("wire codec failed to decode its own encoding");
    reply_bytes += static_cast<int64_t>(reply_enc.size());
  }
  int64_t prefix = 0;
  for (const auto& rec : phase.records) {
    prefix += rec.status.ok() && rec.index < kCountPrefix ? 1 : 0;
  }
  std::vector<double> ping_us;
  for (int i = 0; i < 21; ++i) {
    const int64_t t0 = NowNanos();
    CheckStatus(traced->PingAll(), "PingAll");
    ping_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
  }
  const double dn = std::max<double>(1.0, static_cast<double>(n));
  Report& r = run.report;
  r.Set("cluster.ping_us", Median(ping_us));
  r.Set("cluster.codec_us", codec_us / dn);
  r.Set("cluster.reply_bytes", static_cast<double>(reply_bytes) / dn);
  r.Set("cluster.attempts_per_query", static_cast<double>(attempts) / dn);
  r.Set("cluster.hedged_frac", static_cast<double>(hedged) / dn);
  r.Set("cluster.failovers", static_cast<double>(failovers));
  r.Set("cluster.local_fallbacks", static_cast<double>(local));
  r.Set("cluster.warm_target_frac",
        warm + cold > 0 ? static_cast<double>(warm) /
                              static_cast<double>(warm + cold)
                        : 0.0);
  r.Set("dht.edges_relaxed",
        static_cast<double>(steps) / std::max<double>(1.0, static_cast<double>(prefix)));
  r.Set("util.parallel_eff", phase.wall_cpu_capacity_s > 0
                                 ? phase.cpu_s / phase.wall_cpu_capacity_s
                                 : 0.0);
  r.Set("datasets.generate_s", generate_s);
  r.Set("serve.init_s", init_s);
  r.Set("cluster.spawn_s", spawn_s);
}

// ------------------------------------------------------------ main

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--git-rev") {
      a.git_rev = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

void PrintEnvironment(const Args& a, const WorkloadSpec& w) {
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"build_type\": \"%s\", \"dht_obs_off\": %s, \"git_rev\": \"%s\", "
      "\"authors\": %d, \"set_size\": %zu, \"lambda\": %g, \"d\": %d, "
      "\"k\": %zu, \"templates\": %zu, \"clients\": %d, "
      "\"pool_threads\": %d, \"workers\": %d, \"min_p95_samples\": %lld, "
      "\"malloc_arenas\": 1}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      obs::kEnabled ? "false" : "true", a.git_rev.c_str(), w.authors,
      w.set_size, w.lambda, w.d, w.k, w.templates, ClientsOf(w, a.trace),
      w.pool_threads, w.workers,
      static_cast<long long>(MinSamplesFor(kP95)));
}

int Main(int argc, char** argv) {
  // One malloc arena for the whole process (and the workers it forks).
  // With one arena per pool thread, memory that one thread's queries
  // freed stays resident in that thread's arena while another thread
  // allocates afresh, so peak RSS depended on which pool thread
  // happened to run which query: twoway_cold_l08 read 79 or 112 MiB at
  // random. Set before the first thread starts.
  mallopt(M_ARENA_MAX, 1);
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.trace && !obs::kEnabled) {
    Die("traced run refused: this build has DHT_OBS_OFF, its span rollups "
        "read 0");
  }
  std::filesystem::create_directories(args.work_dir);
  PrintEnvironment(args, *spec);
  Run run(args, *spec);
  if (spec->name == "twoway_zipf_warm") {
    RunZipfWarm(run);
  } else if (spec->name == "twoway_cold_l08") {
    RunColdL08(run);
  } else if (spec->name == "nway_pji_nl") {
    RunNwayPjiNl(run);
  } else {
    RunCluster(run);
  }
  if (!run.account.Balanced()) Die("closed-loop accounting does not balance");
  const bool correct = run.account.failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %lld of %lld answers failed; first: %s\n",
                 static_cast<long long>(run.account.failed),
                 static_cast<long long>(run.account.attempted),
                 run.first_error.c_str());
  }
  run.report.Print(correct, run.account);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
