#include "serve/session.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "dht/backward_batch.h"
#include "obs/trace.h"
#include "serve/warm_state.h"

namespace dhtjoin::serve {

/// BackwardStateCache over the cache: per-(target, P) kBatchState
/// entries, the one walk-state payload. RunTwoWay and PJ-i's
/// incremental streams both go through this adapter, so a 2-way query
/// and a PJ-i query edge that deepen the same target over the same P
/// share one entry (DESIGN.md §6).
class DhtJoinService::StateAdapter final : public BackwardStateCache {
 public:
  explicit StateAdapter(DhtJoinService* service) : service_(service) {}

  std::unique_ptr<Pinned> Pin(std::span<const ExtNodeId> sources) override {
    CacheKey key = service_->BaseKey(CachePayload::kBatchState);
    key.set_a = std::make_shared<const std::vector<ExtNodeId>>(
        sources.begin(), sources.end());
    key.digest_a = DigestNodes(*key.set_a);
    return std::make_unique<View>(service_, std::move(key));
  }

 private:
  class View final : public Pinned {
   public:
    View(DhtJoinService* service, CacheKey key)
        : service_(service), key_(std::move(key)) {}

    std::shared_ptr<const BackwardBatchSnapshot> Fetch(
        ExtNodeId target) override {
      auto entry = service_->cache_.GetAs<CachedBatchState>(Key(target));
      if (entry == nullptr) return nullptr;
      // Aliasing shared_ptr: the snapshot lives exactly as long as the
      // entry.
      return {entry, &entry->snap};
    }

    void Store(ExtNodeId target, BackwardBatchSnapshot snap) override {
      // One cache, one d (CacheKey): nothing ever advances a level-d
      // walk, so its mass is dead weight — keep only the score row.
      if (snap.level >= service_->d_) {
        snap.mass.clear();
        snap.mass.shrink_to_fit();
      }
      const int level = snap.level;
      // Never replace a deeper walk with a shallower one: depth only
      // ever helps the next query, and both are byte-safe to resume.
      // PutIf decides under the shard lock, so racing sessions converge
      // on the deepest walk either of them did (DESIGN.md §6).
      service_->cache_.PutIf(
          Key(target), std::make_shared<CachedBatchState>(std::move(snap)),
          [level](const CacheEntry& existing) {
            return static_cast<const CachedBatchState&>(existing).snap.level >=
                   level;
          });
    }

   private:
    CacheKey Key(ExtNodeId target) const {
      CacheKey key = key_;
      key.seed = target;
      return key;
    }

    DhtJoinService* service_;
    CacheKey key_;  // (kind, P) fixed; the seed is the target
  };

  DhtJoinService* service_;
};

/// EdgeScoreTableProvider over the cache: NL's per-edge |L| x |R| score
/// tables, keyed by both operand sets and d.
class DhtJoinService::TableAdapter final : public EdgeScoreTableProvider {
 public:
  explicit TableAdapter(DhtJoinService* service) : service_(service) {}

  std::shared_ptr<const std::vector<double>> Fetch(
      const NodeSet& L, const NodeSet& R) override {
    auto entry = service_->cache_.GetAs<CachedTable>(Key(L, R));
    return entry == nullptr ? nullptr : entry->table;
  }

  void Store(const NodeSet& L, const NodeSet& R,
             std::shared_ptr<const std::vector<double>> table) override {
    service_->cache_.Put(Key(L, R),
                         std::make_shared<CachedTable>(std::move(table)));
  }

 private:
  CacheKey Key(const NodeSet& L, const NodeSet& R) const {
    CacheKey key = service_->BaseKey(CachePayload::kEdgeTable);
    key.d = service_->d_;
    key.set_a = std::make_shared<const std::vector<ExtNodeId>>(L.nodes());
    key.set_b = std::make_shared<const std::vector<ExtNodeId>>(R.nodes());
    key.digest_a = DigestNodes(*key.set_a);
    key.digest_b = DigestNodes(*key.set_b);
    return key;
  }

  DhtJoinService* service_;
};

DhtJoinService::DhtJoinService(const Graph& g, const DhtParams& params, int d,
                               Options options)
    : g_(g),
      params_(params),
      d_(d),
      options_(options),
      graph_fp_(GraphFingerprint(g)),
      per_query_state_budget_(AutotuneStateBudgetBytes(g.num_nodes())),
      cache_(ScoreCache::Options{
          .max_bytes = options.cache_budget_bytes == kAutotuneBudget
                           ? AutotuneStateBudgetBytes(g.num_nodes())
                           : options.cache_budget_bytes,
          .num_shards = options.cache_shards,
          .admission_bypass_bytes = options.cache_admission_bypass_bytes}),
      pool_(options.num_threads > 0 ? options.num_threads
                                    : ThreadPool::DefaultThreadCount()),
      admission_(options.admission),
      states_(std::make_unique<StateAdapter>(this)),
      tables_(std::make_unique<TableAdapter>(this)),
      clock_(options.clock != nullptr ? options.clock
                                      : obs::SystemClock::Get()),
      slow_log_(options.slow_query_capacity),
      m_queries_twoway_(metrics_.GetCounter("serve.query.twoway")),
      m_queries_nway_(metrics_.GetCounter("serve.query.nway")),
      m_query_errors_(metrics_.GetCounter("serve.query.errors")),
      m_query_degraded_(metrics_.GetCounter("serve.query.degraded")),
      m_query_cancelled_(metrics_.GetCounter("serve.query.cancelled")),
      m_targets_warm_(metrics_.GetCounter("serve.targets.warm")),
      m_targets_cold_(metrics_.GetCounter("serve.targets.cold")),
      m_state_hits_(metrics_.GetCounter("serve.state.hits")),
      m_state_misses_(metrics_.GetCounter("serve.state.misses")),
      m_walk_steps_(metrics_.GetCounter("serve.walk_steps")),
      m_deepen_rounds_(metrics_.GetCounter("serve.deepen.rounds")),
      h_query_latency_(metrics_.GetHistogram("serve.query.latency_ns")),
      h_deepen_frontier_(metrics_.GetHistogram("serve.deepen.frontier")) {
  pool_.EnableMetrics(&metrics_, clock_, "serve.pool");
}

DhtJoinService::DhtJoinService(const Graph& g, const DhtParams& params, int d)
    : DhtJoinService(g, params, d, Options()) {}

DhtJoinService::~DhtJoinService() { Drain(); }

void DhtJoinService::Drain() { pool_.Wait(); }

CacheKey DhtJoinService::BaseKey(CachePayload kind) const {
  CacheKey key;
  key.graph_fp = graph_fp_;
  key.kind = kind;
  key.params = params_;
  return key;
}

Result<std::vector<ScoredPair>> DhtJoinService::TwoWay(const NodeSet& P,
                                                       const NodeSet& Q,
                                                       std::size_t k,
                                                       QueryStats* stats,
                                                       const ExecContext* exec) {
  QueryStats local;
  QueryStats* qs = stats != nullptr ? stats : &local;
  const int64_t start_ns = clock_->NowNanos();
  // Tracing rides on the ExecContext so the engines need no extra
  // parameter; a caller without one gets a service-local context for
  // the duration of the run (its checks always pass — no deadline, no
  // token — so answers are unchanged). The trace pointer is detached
  // before the trace goes out of scope.
  obs::Trace trace_storage(clock_);
  obs::Trace* trace = nullptr;
  ExecContext local_exec;
  const ExecContext* run_exec = exec;
  if (obs::kEnabled && options_.trace_queries) {
    trace = &trace_storage;
    if (run_exec == nullptr) run_exec = &local_exec;
    run_exec->set_trace(trace);
  }
  Result<std::vector<ScoredPair>> result =
      Status::Internal("serve: unreachable");
  {
    obs::ScopedSpan root(trace, "query.twoway");
    root.SetAttr("p", static_cast<int64_t>(P.size()));
    root.SetAttr("q", static_cast<int64_t>(Q.size()));
    root.SetAttr("k", static_cast<int64_t>(k));
    result = RunTwoWay(P, Q, k, qs, run_exec);
  }
  if (run_exec != nullptr) run_exec->set_trace(nullptr);
  RecordOutcome(result.status(), *qs, run_exec);
  m_queries_twoway_->Increment();
  FinishQuery("twoway", start_ns, result.status(), *qs, trace);
  return result;
}

void DhtJoinService::RecordOutcome(const Status& status, const QueryStats& qs,
                                   const ExecContext* exec) {
  if (status.code() == StatusCode::kCancelled) {
    stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (status.ok() && qs.join.partial.degraded) {
    stat_degraded_.fetch_add(1, std::memory_order_relaxed);
    if (exec != nullptr &&
        exec->stop_code() == StatusCode::kResourceExhausted) {
      stat_effort_.fetch_add(1, std::memory_order_relaxed);
    } else {
      stat_deadline_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

ServiceStats DhtJoinService::service_stats() const {
  ServiceStats s;
  s.admission = admission_.stats();
  s.degraded = stat_degraded_.load(std::memory_order_relaxed);
  s.cancelled = stat_cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = stat_deadline_.load(std::memory_order_relaxed);
  s.effort_exhausted = stat_effort_.load(std::memory_order_relaxed);
  s.exceptions = stat_exceptions_.load(std::memory_order_relaxed);
  return s;
}

void DhtJoinService::FinishQuery(const char* kind, int64_t start_ns,
                                 const Status& status, QueryStats& qs,
                                 obs::Trace* trace) {
  const int64_t latency_ns = clock_->NowNanos() - start_ns;
  qs.seconds = static_cast<double>(latency_ns) * 1e-9;
  h_query_latency_->Record(latency_ns);
  if (!status.ok()) m_query_errors_->Increment();
  if (status.code() == StatusCode::kCancelled) m_query_cancelled_->Increment();
  if (status.ok() && qs.join.partial.degraded) m_query_degraded_->Increment();
  m_targets_warm_->Add(qs.warm_targets);
  m_targets_cold_->Add(qs.cold_targets);
  m_state_hits_->Add(qs.join.state_hits);
  m_state_misses_->Add(qs.join.state_misses);
  m_walk_steps_->Add(qs.join.walk_steps);
  // One live_per_iteration entry per completed deepening round (the
  // initial entry is the admission frontier): per-level visibility
  // without touching the engines' hot loops.
  m_deepen_rounds_->Add(
      static_cast<int64_t>(qs.join.live_per_iteration.size()));
  for (const int64_t frontier : qs.join.live_per_iteration) {
    h_deepen_frontier_->Record(frontier);
  }
  if (trace != nullptr) {
    qs.trace_spans = trace->num_spans();
    qs.trace_rounds = trace->CountSpans("round");
    qs.trace_blocks_run = trace->SumAttr("blocks");
    qs.trace_lanes_packed = trace->SumAttr("lanes");
    qs.trace_bytes_touched = trace->SumAttr("bytes");
    if (options_.slow_query_nanos > 0 &&
        latency_ns >= options_.slow_query_nanos) {
      slow_log_.Record(kind, latency_ns, trace->ToJson());
    }
  }
}

obs::MetricsSnapshot DhtJoinService::SnapshotMetrics() {
  // Gauges mirror state owned elsewhere (cache shards, admission
  // controller, service atomics); refresh them at snapshot time
  // instead of double-counting on the query path.
  const CacheStats cs = cache_stats();
  metrics_.GetGauge("serve.cache.hits")->Set(static_cast<double>(cs.hits));
  metrics_.GetGauge("serve.cache.misses")->Set(static_cast<double>(cs.misses));
  metrics_.GetGauge("serve.cache.insertions")
      ->Set(static_cast<double>(cs.insertions));
  metrics_.GetGauge("serve.cache.evictions")
      ->Set(static_cast<double>(cs.evictions));
  metrics_.GetGauge("serve.cache.admission_rejects")
      ->Set(static_cast<double>(cs.admission_rejects));
  metrics_.GetGauge("serve.cache.resident_bytes")
      ->Set(static_cast<double>(cs.resident_bytes));
  metrics_.GetGauge("serve.cache.entries")
      ->Set(static_cast<double>(cs.entries));
  const ServiceStats ss = service_stats();
  metrics_.GetGauge("serve.admission.admitted")
      ->Set(static_cast<double>(ss.admission.admitted));
  metrics_.GetGauge("serve.admission.shed_capacity")
      ->Set(static_cast<double>(ss.admission.shed_capacity));
  metrics_.GetGauge("serve.admission.shed_cost")
      ->Set(static_cast<double>(ss.admission.shed_cost));
  metrics_.GetGauge("serve.admission.shed_expired")
      ->Set(static_cast<double>(ss.admission.shed_expired));
  metrics_.GetGauge("serve.lifecycle.degraded")
      ->Set(static_cast<double>(ss.degraded));
  metrics_.GetGauge("serve.lifecycle.cancelled")
      ->Set(static_cast<double>(ss.cancelled));
  metrics_.GetGauge("serve.lifecycle.deadline_exceeded")
      ->Set(static_cast<double>(ss.deadline_exceeded));
  metrics_.GetGauge("serve.lifecycle.effort_exhausted")
      ->Set(static_cast<double>(ss.effort_exhausted));
  metrics_.GetGauge("serve.lifecycle.exceptions")
      ->Set(static_cast<double>(ss.exceptions));
  metrics_.GetGauge("serve.slow_queries.total")
      ->Set(static_cast<double>(slow_log_.total_recorded()));
  return metrics_.Snapshot();
}

Status DhtJoinService::SaveWarmState(const std::string& path,
                                     const persist::CheckpointHook& hook) {
  persist::SnapshotWriter writer(path, graph_fp_,
                                 ParamsFingerprint(params_, d_), hook);
  ByteWriter record;
  Status status;
  for (const ScoreCache::ExportedEntry& e : cache_.Export()) {
    // false = not snapshotable (e.g. an abandoned Y-bound sweep).
    if (!EncodeCacheRecord(e.key, *e.entry, record)) continue;
    status = writer.Append(SectionKindFor(e.key.kind), record.bytes());
    if (!status.ok()) break;
  }
  if (status.ok()) status = writer.Commit();
  persist_metrics_.checkpoint_staging_bytes->Set(
      static_cast<double>(writer.staging_peak()));
  if (!status.ok()) {
    persist_metrics_.checkpoint_failures->Increment();
    return status;
  }
  persist_metrics_.checkpoint_writes->Increment();
  persist_metrics_.checkpoint_bytes->Add(static_cast<int64_t>(writer.bytes()));
  return Status::OK();
}

Result<int64_t> DhtJoinService::LoadWarmState(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = persist::ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();  // kNotFound = ordinary cold start
  Result<persist::SnapshotView> decoded = persist::DecodeSnapshotView(*bytes);
  if (!decoded.ok()) {
    persist_metrics_.restore_rejects->Increment();
    return decoded.status();
  }
  if (decoded->graph_fp != graph_fp_ ||
      decoded->params_fp != ParamsFingerprint(params_, d_)) {
    // Someone else's snapshot (different graph, layout epoch, or
    // measure): silently cold — restoring it could only break the
    // byte-identity invariant the cache keying protects.
    persist_metrics_.restore_rejects->Increment();
    return int64_t{0};
  }
  // Decode every section before inserting any: a checkpoint is restored
  // whole or not at all, so a refused file leaves the cache as it was.
  std::vector<DecodedCacheRecord> records;
  records.reserve(decoded->sections.size());
  for (const persist::SnapshotSectionView& section : decoded->sections) {
    Result<DecodedCacheRecord> record =
        DecodeCacheRecord(section.kind, section.payload, graph_fp_, params_);
    if (!record.ok()) {
      // Section checksums passed but the record is unusable: a retired
      // payload kind or an encoder/decoder version skew. Fail closed.
      persist_metrics_.restore_rejects->Increment();
      return record.status();
    }
    records.push_back(std::move(record).value());
  }
  for (DecodedCacheRecord& record : records) {
    // Same arbitration as live write-backs: deepest-wins for walk
    // states, resident-wins for whole tables (a live entry is never
    // staler than a checkpointed one).
    const bool walk_state = record.key.kind == CachePayload::kBatchState;
    const int level =
        walk_state
            ? static_cast<const CachedBatchState&>(*record.entry).snap.level
            : 0;
    cache_.PutIf(record.key, std::move(record.entry),
                 [walk_state, level](const CacheEntry& existing) {
                   return !walk_state ||
                          static_cast<const CachedBatchState&>(existing)
                                  .snap.level >= level;
                 });
  }
  const auto restored = static_cast<int64_t>(records.size());
  persist_metrics_.restore_hits->Add(restored);
  return restored;
}

/// The cache-aware B-IDJ (see the file comment of session.h and
/// DESIGN.md §6 for why the warm path is byte-identical to cold):
/// targets deepen through the usual l = 1, 2, 4, ..., d schedule, but a
/// target whose imported state already sits at level >= l just reads
/// its stored row — the prune test uses the remainder bound of the
/// ACTUAL level, which is valid (tighter) by monotonicity (§1).
///
/// MAINTENANCE: this is a second copy of join2/b_idj.cc's Algorithm-2
/// schedule (same offer guard `s > beta`, same `q_upper >= tk` prune,
/// same FinalizePairs), deliberately diverging only in the cache
/// import/export, the mixed-level scoring, keeping pruned targets'
/// states, and saving the final pass. Any change to B-IDJ's schedule
/// must be mirrored here — including the lifecycle logic (level-
/// boundary checks, anytime snapshot, level-cut degradation); the
/// `warm == cold == BIdjJoin::Run` byte-identity gates in
/// tests/serve_test.cc and bench_serving (CI) fail loudly on drift.
/// Folding both into one parameterized schedule is a ROADMAP item.
Result<std::vector<ScoredPair>> DhtJoinService::RunTwoWay(
    const NodeSet& P, const NodeSet& Q, std::size_t k, QueryStats* out,
    const ExecContext* exec) {
  DHTJOIN_RETURN_NOT_OK(ValidateJoinInputs(g_, params_, d_, P, Q, k));
  obs::Trace* const trace = obs::TraceOf(exec);
  QueryStats qs;

  auto p_nodes = std::make_shared<const std::vector<ExtNodeId>>(P.nodes());
  auto q_nodes = std::make_shared<const std::vector<ExtNodeId>>(Q.nodes());

  // Y-bound table: cached whole per (P, Q, d). A construction abandoned
  // by a cooperative stop is NEVER cached (the table would be invalid
  // for every later query); the run then degrades with the X fallback.
  std::shared_ptr<const CachedYBound> ybound;
  if (options_.bound == UpperBoundKind::kY) {
    obs::ScopedSpan ybound_span(trace, "ybound");
    CacheKey ykey = BaseKey(CachePayload::kYBound);
    ykey.d = d_;
    ykey.set_a = p_nodes;
    ykey.set_b = q_nodes;
    ykey.digest_a = DigestNodes(*p_nodes);
    ykey.digest_b = DigestNodes(*q_nodes);
    ybound = cache_.GetAs<CachedYBound>(ykey);
    if (ybound == nullptr) {
      auto fresh = std::make_shared<CachedYBound>(
          YBoundTable(g_, params_, d_, P, Q, exec));
      fresh->num_targets_hint = Q.size();
      qs.join.walk_steps += fresh->table.edges_relaxed();
      if (fresh->table.complete()) cache_.Put(ykey, fresh);
      ybound = std::move(fresh);
    } else {
      qs.ybound_cached = true;
    }
    ybound_span.SetAttr("cached", int64_t{qs.ybound_cached ? 1 : 0});
  }
  const bool y_usable = ybound != nullptr && ybound->table.complete();
  auto remainder = [&](int l, std::size_t qi) {
    return y_usable ? ybound->table.Bound(l, qi) : params_.XBound(l);
  };

  // Import each target's deepest cached walk state (level <= d, row
  // pinned to exactly this P — the key guarantees both).
  const std::unique_ptr<BackwardStateCache::Pinned> cached_states =
      states_->Pin(P.nodes());
  BackwardWalkerBatch batch(g_, {.num_threads = 1});
  BackwardBatchStates states(Q.size(), per_query_state_budget_);
  if (exec != nullptr && exec->commit_fault) {
    states.set_commit_fault(exec->commit_fault);
  }
  std::vector<int> imported_level(Q.size(), 0);
  {
    obs::ScopedSpan import_span(trace, "import");
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      auto snap = cached_states->Fetch(Q[qi]);
      if (snap != nullptr && snap->level <= d_ &&
          snap->row.size() == P.size() && states.Import(qi, *snap)) {
        imported_level[qi] = snap->level;
        ++qs.warm_targets;
      }
    }
    qs.cold_targets = static_cast<int64_t>(Q.size()) - qs.warm_targets;
    import_span.SetAttr("warm", qs.warm_targets);
    import_span.SetAttr("cold", qs.cold_targets);
  }

  int64_t batch_edges_seen = 0;
  int64_t batch_barriers_seen = 0;
  // Advances the subset of live targets still below level l, then hands
  // EVERY live target's row to score_row(live_pos, row, row_level):
  // advanced targets through the batch consume callback (at exactly l),
  // already-deep targets straight from their stored rows (at their own
  // level >= l — the valid, tighter bound).
  // Returns false when a cooperative stop interrupted the round — the
  // round's partial output must then be DISCARDED (mirrors BIdjJoin).
  auto walk_live = [&](const std::vector<std::size_t>& live, int l, bool save,
                       auto&& score_row) {
    std::vector<char> advanced(live.size(), 0);
    std::vector<std::size_t> need_pos;
    std::vector<ExtNodeId> need_nodes;
    std::vector<std::size_t> need_slots;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (states.level(live[i]) < l) {
        advanced[i] = 1;
        need_pos.push_back(i);
        need_nodes.push_back(Q[live[i]]);
        need_slots.push_back(live[i]);
      }
    }
    bool interrupted = false;
    if (!need_nodes.empty()) {
      qs.join.walks_started += batch.AdvanceChunked(
          params_, l, need_nodes, need_slots, *p_nodes, states,
          [&](std::size_t i, const double* row) {
            score_row(need_pos[i], row, l);
          },
          save, /*max_targets_per_run=*/0, exec, &interrupted);
    }
    if (!interrupted) {
      std::vector<double> warm_row;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (!advanced[i]) {
          // Stored rows are beta-exclusive deltas (BackwardBatchSnapshot
          // semantics); add the floor back exactly as the engine does at
          // output, so a warm row is bit-identical to the advanced one.
          std::span<const double> delta = states.Row(live[i]);
          warm_row.assign(delta.begin(), delta.end());
          for (double& cell : warm_row) cell += params_.beta;
          score_row(i, warm_row.data(), states.level(live[i]));
        }
      }
    }
    qs.join.walk_steps += batch.edges_relaxed() - batch_edges_seen;
    batch_edges_seen = batch.edges_relaxed();
    qs.join.barriers_per_iteration.push_back(batch.scheduler_barriers() -
                                             batch_barriers_seen);
    batch_barriers_seen = batch.scheduler_barriers();
    return !interrupted;
  };

  std::vector<std::size_t> live(Q.size());
  for (std::size_t qi = 0; qi < Q.size(); ++qi) live[qi] = qi;
  qs.join.live_per_iteration.push_back(static_cast<int64_t>(live.size()));

  // Anytime state, mirroring BIdjJoin (DESIGN.md §9): the top-k
  // snapshot of the last COMPLETED deepening level, its level, and its
  // eps bound (max U_l^+ over the targets live in that level).
  std::vector<ScoredPair> anytime;
  int cut_level = 0;
  double cut_eps = 0.0;
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    cut_eps = std::max(cut_eps, remainder(0, qi));
  }
  // Write back every state that got deeper than what the cache gave
  // us — including on a degraded run: every written snapshot is a
  // COMPLETED level (interrupted blocks keep their previous one), so
  // it is bit-safe for any later query. PutIf keeps the deepest walk
  // under the shard lock when concurrent sessions race on one target
  // (DESIGN.md §6).
  auto write_back = [&] {
    obs::ScopedSpan wb_span(trace, "write_back");
    int64_t exported = 0;
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      if (states.level(qi) <= imported_level[qi]) continue;
      BackwardBatchSnapshot snap;
      if (states.Take(qi, &snap)) {
        cached_states->Store(Q[qi], std::move(snap));
        ++exported;
      }
    }
    wb_span.SetAttr("exported", exported);
  };
  auto finish_stats = [&] {
    qs.join.state_hits = states.hits();
    qs.join.state_misses = qs.join.walks_started;
    qs.join.state_evictions = states.evictions();
    qs.join.state_resident_bytes = static_cast<int64_t>(states.bytes());
    qs.join.pool_barriers = batch.scheduler_barriers();
    if (exec != nullptr) qs.join.lifecycle_checks = exec->blocks_checked();
  };
  auto degrade = [&](StatusCode code) -> Result<std::vector<ScoredPair>> {
    write_back();
    finish_stats();
    if (code == StatusCode::kCancelled) {
      if (out != nullptr) *out = std::move(qs);
      return Status::Cancelled("serve: query cancelled");
    }
    qs.join.partial = PartialInfo{true, cut_level, cut_eps};
    std::vector<ScoredPair> result = anytime;
    FinalizePairs(result, k);
    if (out != nullptr) *out = std::move(qs);
    return result;
  };
  // An interrupted Y sweep leaves nothing to return: degrade at level 0.
  if (ybound != nullptr && !ybound->table.complete()) {
    return degrade(exec->stop_code());
  }

  for (int l = 1; l < d_; l *= 2) {
    if (exec != nullptr) {
      StatusCode code = exec->Check();
      if (code != StatusCode::kOk) return degrade(code);
    }
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    PairTopK bounds(k);
    std::vector<double> q_upper(live.size());
    bool completed =
        walk_live(live, l, /*save=*/true,
                  [&](std::size_t i, const double* row, int row_level) {
                    ExtNodeId q = Q[live[i]];
                    double pmax = params_.beta;
                    for (std::size_t pi = 0; pi < P.size(); ++pi) {
                      ExtNodeId p = P[pi];
                      if (p == q) continue;
                      double s = row[pi];
                      if (s > params_.beta) {
                        bounds.Offer(s, ScoredPair{p.value(), q.value(), s});
                        if (s > pmax) pmax = s;
                      }
                    }
                    q_upper[i] = pmax + remainder(row_level, live[i]);
                  });
    if (!completed) return degrade(exec->stop_code());
    // Round l completed: refresh the anytime snapshot before pruning.
    // Warm rows scored at deeper levels only tighten (U is monotone
    // decreasing in l), so max U_l^+ over the round's live targets
    // bounds every snapshot pair.
    cut_level = l;
    cut_eps = 0.0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      cut_eps = std::max(cut_eps, remainder(l, live[i]));
    }
    {
      PairTopK snapshot = bounds;
      anytime.clear();
      for (auto& entry : snapshot.TakeSortedDescending()) {
        anytime.push_back(entry.item);
      }
    }
    if (exec != nullptr && exec->on_level) exec->on_level(l);
    double tk = bounds.Threshold();
    std::vector<std::size_t> survivors;
    survivors.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      // Pruned targets KEEP their states — they are this query's gift
      // to the cache, not dead weight (contrast BIdjJoin, which drops
      // them because its states die with the run).
      if (q_upper[i] >= tk) survivors.push_back(live[i]);
    }
    qs.join.pruned_fraction_per_iteration.push_back(
        1.0 - static_cast<double>(survivors.size()) /
                  static_cast<double>(Q.size()));
    live.swap(survivors);
    qs.join.live_per_iteration.push_back(static_cast<int64_t>(live.size()));
    round_span.SetAttr("survivors", static_cast<int64_t>(live.size()));
    // Feedback autotuning between rounds: the per-query budget came
    // from AutotuneStateBudgetBytes, so fold the observed hit/eviction
    // counters back into it (evicted states restart bit-identically —
    // the warm == cold byte-identity gates are unaffected).
    states.Retune();
  }

  // Final exact-d pass. States are saved (unlike BIdjJoin's final pass)
  // because a level-d row is the best possible warm start: an exactly
  // repeated query reads every row with zero walk steps.
  if (exec != nullptr) {
    StatusCode code = exec->Check();
    if (code != StatusCode::kOk) return degrade(code);
  }
  PairTopK best(k);
  if (!live.empty()) {
    obs::ScopedSpan final_span(trace, "final");
    final_span.SetAttr("level", int64_t{d_});
    final_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    bool completed =
        walk_live(live, d_, /*save=*/true,
                  [&](std::size_t i, const double* row, int /*row_level*/) {
                    ExtNodeId q = Q[live[i]];
                    for (std::size_t pi = 0; pi < P.size(); ++pi) {
                      ExtNodeId p = P[pi];
                      if (p == q) continue;
                      double s = row[pi];
                      if (s > params_.beta) {
                        best.Offer(s, ScoredPair{p.value(), q.value(), s});
                      }
                    }
                  });
    if (!completed) return degrade(exec->stop_code());
  }

  write_back();
  finish_stats();
  qs.join.partial = PartialInfo{false, d_, 0.0};

  std::vector<ScoredPair> result;
  for (auto& entry : best.TakeSortedDescending()) {
    result.push_back(entry.item);
  }
  FinalizePairs(result, k);
  if (out != nullptr) *out = std::move(qs);
  return result;
}

Result<std::vector<TupleAnswer>> DhtJoinService::Nway(const QueryGraph& query,
                                                      const Aggregate& f,
                                                      std::size_t k,
                                                      NwayAlgo algo,
                                                      QueryStats* out) {
  QueryStats local;
  QueryStats* qs = out != nullptr ? out : &local;
  *qs = QueryStats{};
  const int64_t start_ns = clock_->NowNanos();
  // N-way tracing: the root span, plus PJ-i's per-stream spans (Y-bound
  // construction, deepening schedule) through a trace-only ExecContext.
  // Nothing polls its deadline or cancel — the n-way executors have no
  // degrade path yet (DESIGN.md §9).
  obs::Trace trace_storage(clock_);
  obs::Trace* trace = nullptr;
  if (obs::kEnabled && options_.trace_queries) trace = &trace_storage;
  ExecContext trace_exec;
  trace_exec.set_trace(trace);
  Result<std::vector<TupleAnswer>> result =
      Status::Internal("nway: unreachable");
  {
    obs::ScopedSpan root(trace, "query.nway");
    root.SetAttr("k", static_cast<int64_t>(k));
    if (algo == NwayAlgo::kNestedLoop) {
      NestedLoopJoin join(NestedLoopJoin::Options{.tables = tables_.get()});
      result = join.Run(g_, params_, d_, query, f, k);
      qs->table_hits = join.stats().table_hits;
    } else {
      PartialJoin join(PartialJoin::Options{.incremental = true,
                                            .bound = options_.bound,
                                            .state_cache = states_.get(),
                                            .exec = &trace_exec});
      result = join.Run(g_, params_, d_, query, f, k);
    }
  }
  m_queries_nway_->Increment();
  FinishQuery("nway", start_ns, result.status(), *qs, trace);
  return result;
}

std::future<Result<std::vector<ScoredPair>>> DhtJoinService::SubmitTwoWay(
    NodeSet P, NodeSet Q, std::size_t k, QueryOptions qopts) {
  auto promise =
      std::make_shared<std::promise<Result<std::vector<ScoredPair>>>>();
  auto future = promise->get_future();
  // Admission runs on the SUBMITTING thread, before enqueue: a shed
  // query never occupies a pool slot, and the caller learns
  // immediately (the future is already resolved when Submit returns).
  const int64_t est =
      EstimateTwoWayCost(g_, P, Q, d_, admission_.options().sample_size);
  Status admitted = admission_.Admit(est);
  if (!admitted.ok()) {
    promise->set_value(std::move(admitted));
    return future;
  }
  pool_.Submit([this, promise, P = std::move(P), Q = std::move(Q), k,
                qopts = std::move(qopts)] {
    const int64_t start_ns = clock_->NowNanos();
    const ExecContext* exec = qopts.exec.get();
    // Deadline already expired while queued: count the shed; the run
    // below observes the sticky stop at its first check and degrades
    // at level 0 without walking anything.
    if (exec != nullptr && exec->Check() == StatusCode::kDeadlineExceeded) {
      admission_.RecordExpired();
    }
    Result<std::vector<ScoredPair>> result =
        Status::Internal("serve: unreachable");
    try {
      result = TwoWay(P, Q, k, qopts.stats, exec);
    } catch (const std::exception& e) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal(std::string("serve: worker exception: ") +
                                e.what());
    } catch (...) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal("serve: worker exception (non-std type)");
    }
    admission_.Finish((clock_->NowNanos() - start_ns) / 1000);
    promise->set_value(std::move(result));
  });
  return future;
}

std::future<Result<std::vector<TupleAnswer>>> DhtJoinService::SubmitNway(
    QueryGraph query, const Aggregate& f, std::size_t k, NwayAlgo algo,
    QueryOptions qopts) {
  auto promise =
      std::make_shared<std::promise<Result<std::vector<TupleAnswer>>>>();
  auto future = promise->get_future();
  // No cheap cost estimate exists for an arbitrary query graph yet, so
  // n-way admission uses the in-flight cap only.
  Status admitted = admission_.Admit(/*estimated_cost=*/0);
  if (!admitted.ok()) {
    promise->set_value(std::move(admitted));
    return future;
  }
  pool_.Submit([this, promise, query = std::move(query), &f, k, algo,
                qopts = std::move(qopts)] {
    const int64_t start_ns = clock_->NowNanos();
    const ExecContext* exec = qopts.exec.get();
    // The n-way executors have no degrade path yet, so an expired or
    // cancelled queued query is shed whole at dequeue.
    if (exec != nullptr) {
      StatusCode code = exec->Check();
      if (code != StatusCode::kOk) {
        if (code == StatusCode::kDeadlineExceeded) {
          admission_.RecordExpired();
          stat_deadline_.fetch_add(1, std::memory_order_relaxed);
        } else if (code == StatusCode::kCancelled) {
          stat_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
        admission_.Finish(0);
        promise->set_value(
            code == StatusCode::kCancelled
                ? Status::Cancelled("nway: cancelled while queued")
                : Status::DeadlineExceeded(
                      "nway: deadline expired while queued"));
        return;
      }
    }
    Result<std::vector<TupleAnswer>> result =
        Status::Internal("nway: unreachable");
    try {
      result = Nway(query, f, k, algo, qopts.stats);
    } catch (const std::exception& e) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal(std::string("nway: worker exception: ") +
                                e.what());
    } catch (...) {
      stat_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = Status::Internal("nway: worker exception (non-std type)");
    }
    admission_.Finish((clock_->NowNanos() - start_ns) / 1000);
    promise->set_value(std::move(result));
  });
  return future;
}

}  // namespace dhtjoin::serve
