#include "join2/incremental.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "util/top_k.h"

namespace dhtjoin {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

IncrementalTwoWayJoin::IncrementalTwoWayJoin(const Graph& g,
                                             const DhtParams& params, int d,
                                             const NodeSet& P,
                                             const NodeSet& Q,
                                             Options options)
    : g_(g),
      params_(params),
      d_(d),
      P_(P),
      Q_(Q),
      options_(options),
      batch_(g, {.num_threads = options.state_cache != nullptr ? 1 : 0}),
      states_(Q.size(), options.state_budget_bytes > 0
                            ? options.state_budget_bytes
                            : AutotuneStateBudgetBytes(g.num_nodes())),
      imported_level_(Q.size(), 0),
      autotune_budget_(options.state_budget_bytes == 0) {
  if (options_.state_cache != nullptr) {
    cache_ = options_.state_cache->Pin(P_.nodes());
  }
  if (options_.bound == UpperBoundKind::kY) {
    // Same span as the 2-way path's; PJ-i never reuses a table.
    obs::ScopedSpan ybound_span(obs::TraceOf(options_.exec), "ybound");
    ybound_span.SetAttr("cached", int64_t{0});
    ybound_ = std::make_unique<YBoundTable>(g, params, d, P, Q);
    // Charge what the S_i(P, q) sweep actually relaxed (it runs
    // frontier-adaptive steps, so a flat d * |E| would overcount).
    stats_.walk_steps += ybound_->edges_relaxed();
  }
  q_level_.assign(Q_.size(), 0);
  residual_handle_.resize(Q_.size());
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) {
    residual_handle_[qi] =
        residual_.Push(params_.beta + Remainder(0, qi), qi);
  }
}

IncrementalTwoWayJoin::~IncrementalTwoWayJoin() {
  if (cache_ == nullptr) return;
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) Release(qi);
}

Result<std::unique_ptr<IncrementalTwoWayJoin>> IncrementalTwoWayJoin::Create(
    const Graph& g, const DhtParams& params, int d, const NodeSet& P,
    const NodeSet& Q, std::size_t m, Options options) {
  DHTJOIN_RETURN_NOT_OK(
      ValidateJoinInputs(g, params, d, P, Q, std::max<std::size_t>(m, 1)));
  auto join = std::unique_ptr<IncrementalTwoWayJoin>(
      new IncrementalTwoWayJoin(g, params, d, P, Q, options));
  join->RunInitialSchedule(m);
  return join;
}

Result<std::unique_ptr<IncrementalTwoWayJoin>> IncrementalTwoWayJoin::Create(
    const Graph& g, const DhtParams& params, int d, const NodeSet& P,
    const NodeSet& Q, std::size_t m) {
  return Create(g, params, d, P, Q, m, Options{});
}

double IncrementalTwoWayJoin::Remainder(int l, std::size_t qi) const {
  // The enumerator ranks TRUNCATED scores h_d, which are final once the
  // walk reaches depth d — unlike X_l^+, which bounds the infinite
  // series and stays positive at l == d.
  if (l >= d_) return 0.0;
  return options_.bound == UpperBoundKind::kY ? ybound_->Bound(l, qi)
                                              : params_.XBound(l);
}

void IncrementalTwoWayJoin::Release(std::size_t qi) {
  BackwardBatchSnapshot snap;
  if (cache_ != nullptr && states_.level(qi) > imported_level_[qi] &&
      states_.Take(qi, &snap)) {
    cache_->Store(Q_[qi], std::move(snap));
  } else {
    states_.Drop(qi);
  }
}

int64_t IncrementalTwoWayJoin::FoldEngineCounters() {
  stats_.walk_steps += batch_.edges_relaxed() - edges_seen_;
  edges_seen_ = batch_.edges_relaxed();
  const int64_t barriers = batch_.scheduler_barriers() - barriers_seen_;
  barriers_seen_ = batch_.scheduler_barriers();
  stats_.pool_barriers += barriers;
  stats_.state_hits += states_.hits() - hits_seen_;
  hits_seen_ = states_.hits();
  stats_.state_misses += states_.misses() - misses_seen_;
  misses_seen_ = states_.misses();
  stats_.state_evictions = states_.evictions();
  stats_.state_resident_bytes = static_cast<int64_t>(states_.bytes());
  return barriers;
}

template <typename OnRow>
void IncrementalTwoWayJoin::Deepen(std::span<const std::size_t> qis,
                                   int new_level, OnRow&& on_row) {
  DHTJOIN_CHECK_LE(new_level, d_);
  std::vector<ExtNodeId> nodes(qis.size());
  for (std::size_t i = 0; i < qis.size(); ++i) {
    const std::size_t qi = qis[i];
    DHTJOIN_CHECK_GT(new_level, q_level_[qi]);
    nodes[i] = Q_[qi];
    if (cache_ == nullptr || states_.level(qi) > 0) continue;
    auto snap = cache_->Fetch(nodes[i]);
    if (snap != nullptr && snap->level <= new_level &&
        snap->row.size() == P_.size() && states_.Import(qi, *snap)) {
      imported_level_[qi] = snap->level;
    }
  }
  // Depth d is final for the truncated measure, so a level-d state is
  // only worth saving when a cache will keep it for later queries.
  const bool final = new_level >= d_;
  stats_.walks_started += batch_.AdvanceChunked(
      params_, new_level, nodes, qis, P_.nodes(), states_,
      [&](std::size_t i, const double* row) {
        ApplyRow(qis[i], new_level, row);
        on_row(i, row);
      },
      /*save_states=*/!final || cache_ != nullptr);
  if (final) {
    for (std::size_t qi : qis) Release(qi);
  }
}

void IncrementalTwoWayJoin::DeepenTarget(std::size_t qi, int new_level) {
  // Feedback autotune: every so many walks, fold the states' OBSERVED
  // hit/eviction behaviour back into their byte budget (grow on thrash,
  // shrink on idle). Explicit budgets are left alone. Shrink-evicted
  // states restart bit-identically, so this never changes a result.
  constexpr int64_t kRetunePeriod = 64;
  if (autotune_budget_ && ++deepen_calls_ % kRetunePeriod == 0) {
    states_.Retune();
  }
  Deepen({&qi, 1}, new_level, [](std::size_t, const double*) {});
  FoldEngineCounters();
}

void IncrementalTwoWayJoin::ApplyRow(std::size_t qi, int new_level,
                                     const double* row) {
  DHTJOIN_CHECK_GT(new_level, q_level_[qi]);
  DHTJOIN_CHECK_LE(new_level, d_);
  ExtNodeId q = Q_[qi];
  const double remainder = Remainder(new_level, qi);
  for (std::size_t pi = 0; pi < P_.size(); ++pi) {
    ExtNodeId p = P_[pi];
    if (p == q) continue;
    double s = row[pi];
    if (s <= params_.beta) continue;
    uint64_t key = PairKey(p.value(), q.value());
    if (returned_.contains(key)) continue;
    double upper = s + remainder;
    auto it = index_.find(key);
    if (it == index_.end()) {
      PairEntry entry{p.value(), qi, s, new_level};
      index_.emplace(key, f_.Push(upper, entry));
    } else {
      PairEntry& entry = f_.GetMutable(it->second);
      // Deeper walks only tighten: lower grows, upper shrinks
      // (monotonicity of h_l and of h_l + U_l^+; see DESIGN.md).
      entry.lower = s;
      entry.level = new_level;
      f_.Update(it->second, upper);
    }
  }

  q_level_[qi] = new_level;
  if (new_level >= d_) {
    residual_.Erase(residual_handle_[qi]);
  } else {
    residual_.Update(residual_handle_[qi],
                     params_.beta + Remainder(new_level, qi));
  }
}

double IncrementalTwoWayJoin::LowerThreshold(std::size_t m) const {
  if (m == 0) return kNegInf;
  TopK<char> lowers(m);
  f_.ForEach([&lowers](const PairEntry& e, double /*priority*/) {
    lowers.Offer(e.lower, 0);
  });
  return lowers.size() < m ? kNegInf : lowers.MinKey();
}

void IncrementalTwoWayJoin::RunInitialSchedule(std::size_t m) {
  if (m == 0) return;  // fully lazy; Next() drives everything
  obs::Trace* const trace = obs::TraceOf(options_.exec);
  obs::ScopedSpan sched_span(trace, "schedule");
  std::vector<std::size_t> live(Q_.size());
  for (std::size_t qi = 0; qi < Q_.size(); ++qi) live[qi] = qi;
  stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));

  // The whole live set deepens through the fused core — one fork/join
  // barrier per round instead of one walk per target per level. A
  // target pruned here keeps its state, so a later Next() refinement
  // resumes it rather than restarting (DESIGN.md §3, §8).
  for (int l = 1; l < d_; l *= 2) {
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    std::vector<double> q_upper(live.size(), kNegInf);
    Deepen(live, l, [&](std::size_t i, const double* row) {
      const std::size_t qi = live[i];
      double pmax = params_.beta;
      for (std::size_t pi = 0; pi < P_.size(); ++pi) {
        if (P_[pi] == Q_[qi]) continue;
        pmax = std::max(pmax, row[pi]);
      }
      q_upper[i] = pmax + Remainder(l, qi);
    });
    stats_.barriers_per_iteration.push_back(FoldEngineCounters());
    double tm = LowerThreshold(m);
    std::vector<std::size_t> survivors;
    survivors.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (q_upper[i] >= tm) survivors.push_back(live[i]);
    }
    stats_.pruned_fraction_per_iteration.push_back(
        1.0 - static_cast<double>(survivors.size()) /
                  static_cast<double>(Q_.size()));
    live.swap(survivors);
    stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));
    round_span.SetAttr("survivors", static_cast<int64_t>(live.size()));
    if (autotune_budget_) states_.Retune();
  }
  // Final exact-d pass for survivors.
  std::vector<std::size_t> need;
  for (std::size_t qi : live) {
    if (q_level_[qi] < d_) need.push_back(qi);
  }
  if (!need.empty()) {
    obs::ScopedSpan final_span(trace, "final");
    final_span.SetAttr("level", int64_t{d_});
    final_span.SetAttr("frontier", static_cast<int64_t>(need.size()));
    Deepen(need, d_, [](std::size_t, const double*) {});
    stats_.barriers_per_iteration.push_back(FoldEngineCounters());
  }
}

std::optional<ScoredPair> IncrementalTwoWayJoin::Next() {
  auto next_level = [this](int l) {
    return l == 0 ? 1 : std::min(2 * l, d_);
  };
  while (true) {
    const double unseen =
        residual_.empty() ? kNegInf : residual_.TopPriority();
    if (f_.empty()) {
      if (residual_.empty()) return std::nullopt;
      // Only unmaterialized pairs remain possible; a residual bound at
      // the floor means every remaining pair is unreachable.
      if (unseen <= params_.beta) return std::nullopt;
      std::size_t qi = residual_.Get(residual_.TopHandle());
      DeepenTarget(qi, next_level(q_level_[qi]));
      continue;
    }

    auto top_handle = f_.TopHandle();
    const PairEntry e1 = f_.Get(top_handle);
    const double second = f_.SecondPriority();
    const double blocker = std::max(second, unseen);

    if (e1.lower >= blocker) {
      if (e1.level < d_) {
        // Order is decided but the exact score is not known yet; the
        // paper exactifies with a d-step walk before emitting.
        DeepenTarget(e1.qi, d_);
        continue;
      }
      f_.Pop();
      uint64_t key = PairKey(e1.p, Q_[e1.qi].value());
      index_.erase(key);
      returned_.insert(key);
      ++num_returned_;
      return ScoredPair{e1.p, Q_[e1.qi].value(), e1.lower};
    }

    // Blocked. When the top entry is exact, the heap property makes
    // second <= e1.lower, so the blocker must be a residual target.
    if (unseen >= second && unseen > e1.lower) {
      std::size_t qi = residual_.Get(residual_.TopHandle());
      DeepenTarget(qi, next_level(q_level_[qi]));
    } else {
      // Refine the top pair's target (paper rule: min(2 l, d) steps).
      // q_level_[e1.qi] == e1.level by construction (every walk of a
      // target refreshes all of its entries); read the authoritative one.
      DeepenTarget(e1.qi, next_level(q_level_[e1.qi]));
    }
  }
}

}  // namespace dhtjoin
