#include "join2/b_idj.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "dht/bounds.h"
#include "obs/trace.h"
#include "util/top_k.h"

namespace dhtjoin {

// NOTE: serve/session.cc's RunTwoWay carries a cache-aware copy of
// this schedule (byte-identity between the two is CI-gated); schedule
// changes here must be mirrored there.
Result<std::vector<ScoredPair>> BIdjJoin::Run(const Graph& g,
                                              const DhtParams& params, int d,
                                              const NodeSet& P,
                                              const NodeSet& Q,
                                              std::size_t k) {
  DHTJOIN_RETURN_NOT_OK(ValidateJoinInputs(g, params, d, P, Q, k));
  stats_.Reset();
  const ExecContext* exec = options_.exec;
  obs::Trace* const trace = obs::TraceOf(exec);

  std::unique_ptr<YBoundTable> ybound;
  if (options_.bound == UpperBoundKind::kY) {
    obs::ScopedSpan ybound_span(trace, "ybound");
    ybound = std::make_unique<YBoundTable>(g, params, d, P, Q, exec);
    // Charge what the S_i(P, q) sweep actually relaxed (it runs on the
    // shared adaptive engine now, so a flat d * |E| would overcount).
    stats_.walk_steps += ybound->edges_relaxed();
  }
  const bool y_usable = ybound != nullptr && ybound->complete();
  auto remainder = [&](int l, std::size_t qi) {
    return y_usable ? ybound->Bound(l, qi) : params.XBound(l);
  };

  BackwardWalkerBatch batch(g);
  const bool autotuned_budget = options_.state_budget_bytes == 0;
  const std::size_t budget = autotuned_budget
                                 ? AutotuneStateBudgetBytes(g.num_nodes())
                                 : options_.state_budget_bytes;
  BackwardBatchStates states(options_.resume ? Q.size() : 0, budget);
  if (exec != nullptr && exec->commit_fault) {
    states.set_commit_fault(exec->commit_fault);
  }
  int64_t batch_edges_seen = 0;
  int64_t batch_barriers_seen = 0;
  // Batched l-step walks for the live targets; consume(i, row) receives
  // the |P|-wide score row of live[i]. With resume on, each target
  // continues from its previous level's saved state; otherwise it
  // restarts from scratch — same rows either way (sorted-support
  // determinism), different step counts. `save` is off for the final
  // exact-d pass, whose states would never be read again. Returns false
  // when a cooperative stop interrupted the round (resume schedule
  // only; the restart schedule polls at level boundaries instead) —
  // the round's partial output must then be DISCARDED.
  auto walk_live = [&](const std::vector<std::size_t>& live, int l, bool save,
                       auto&& consume) {
    std::vector<ExtNodeId> nodes(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) nodes[i] = Q[live[i]];
    bool interrupted = false;
    if (options_.resume) {
      stats_.walks_started +=
          batch.AdvanceChunked(params, l, nodes, live, P.nodes(), states,
                               consume, save, /*max_targets_per_run=*/0, exec,
                               &interrupted);
    } else {
      batch.RunChunked(params, l, nodes, P.nodes(), consume);
      stats_.walks_started += static_cast<int64_t>(live.size());
    }
    stats_.walk_steps += batch.edges_relaxed() - batch_edges_seen;
    batch_edges_seen = batch.edges_relaxed();
    stats_.barriers_per_iteration.push_back(batch.scheduler_barriers() -
                                            batch_barriers_seen);
    batch_barriers_seen = batch.scheduler_barriers();
    return !interrupted;
  };

  std::vector<std::size_t> live(Q.size());
  for (std::size_t qi = 0; qi < Q.size(); ++qi) live[qi] = qi;
  stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));

  // Anytime state (DESIGN.md §9): the top-k snapshot of the last
  // COMPLETED deepening level, its level, and the matching eps bound
  // (max U_l^+ over the targets live in that level). A soft stop
  // returns `anytime` + PartialInfo; a hard stop (cancel) errors.
  std::vector<ScoredPair> anytime;
  int cut_level = 0;
  double cut_eps = 0.0;
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    cut_eps = std::max(cut_eps, remainder(0, qi));
  }
  auto finish_stats = [&] {
    stats_.state_hits = states.hits();
    stats_.state_misses = options_.resume ? stats_.walks_started : 0;
    stats_.state_evictions = states.evictions();
    stats_.state_resident_bytes = static_cast<int64_t>(states.bytes());
    stats_.pool_barriers = batch.scheduler_barriers();
    if (exec != nullptr) stats_.lifecycle_checks = exec->blocks_checked();
  };
  auto degrade = [&](StatusCode code) -> Result<std::vector<ScoredPair>> {
    finish_stats();
    if (code == StatusCode::kCancelled) {
      return Status::Cancelled(Name() + ": query cancelled");
    }
    stats_.partial = PartialInfo{true, cut_level, cut_eps};
    std::vector<ScoredPair> out = anytime;
    FinalizePairs(out, k);
    return out;
  };
  // An interrupted Y sweep leaves nothing to return: degrade at level 0.
  if (ybound != nullptr && !ybound->complete()) {
    return degrade(exec->stop_code());
  }

  for (int l = 1; l < d; l *= 2) {
    if (exec != nullptr) {
      StatusCode code = exec->Check();
      if (code != StatusCode::kOk) return degrade(code);
    }
    obs::ScopedSpan round_span(trace, "round");
    round_span.SetAttr("level", int64_t{l});
    round_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    PairTopK bounds(k);  // B is reset every iteration (Alg. 2 Step 3)
    std::vector<double> q_upper(live.size());
    bool completed =
        walk_live(live, l, /*save=*/true, [&](std::size_t i,
                                              const double* row) {
          ExtNodeId q = Q[live[i]];
          double pmax = params.beta;  // floor of h_l over p
          for (std::size_t pi = 0; pi < P.size(); ++pi) {
            ExtNodeId p = P[pi];
            if (p == q) continue;
            double s = row[pi];
            if (s > params.beta) {
              bounds.Offer(s, ScoredPair{p.value(), q.value(), s});
              if (s > pmax) pmax = s;
            }
          }
          q_upper[i] = pmax + remainder(l, live[i]);
        });
    if (!completed) return degrade(exec->stop_code());
    // Round l completed: refresh the anytime snapshot before pruning.
    // The snapshot's scores are h_l values; every pair's target was
    // live entering this round, so max U_l^+ over `live` bounds them
    // all (exact = score + at most cut_eps).
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
      if (q_upper[i] >= tk) {
        survivors.push_back(live[i]);
      } else if (options_.resume) {
        // A pruned target never walks again; free its state now.
        states.Drop(live[i]);
      }
    }
    stats_.pruned_fraction_per_iteration.push_back(
        1.0 - static_cast<double>(survivors.size()) /
                  static_cast<double>(Q.size()));
    live.swap(survivors);
    round_span.SetAttr("survivors", static_cast<int64_t>(live.size()));
    stats_.live_per_iteration.push_back(static_cast<int64_t>(live.size()));
    // Feedback autotuning between rounds (batch_core::BatchStateBudget):
    // grow the pool on thrash, shrink on idle. Explicit budgets are the
    // caller's contract; evicted states restart bit-identically, so
    // retuning never changes a result.
    if (options_.resume && autotuned_budget) states.Retune();
  }

  // Final pass (Alg. 2 Steps 16-17): exact d-step walks for survivors.
  if (exec != nullptr) {
    StatusCode code = exec->Check();
    if (code != StatusCode::kOk) return degrade(code);
  }
  PairTopK best(k);
  if (!live.empty()) {
    obs::ScopedSpan final_span(trace, "final");
    final_span.SetAttr("level", int64_t{d});
    final_span.SetAttr("frontier", static_cast<int64_t>(live.size()));
    bool completed =
        walk_live(live, d, /*save=*/false, [&](std::size_t i,
                                               const double* row) {
          ExtNodeId q = Q[live[i]];
          for (std::size_t pi = 0; pi < P.size(); ++pi) {
            ExtNodeId p = P[pi];
            if (p == q) continue;
            double s = row[pi];
            if (s > params.beta) best.Offer(s, ScoredPair{p.value(), q.value(), s});
          }
        });
    if (!completed) return degrade(exec->stop_code());
  }

  finish_stats();
  stats_.partial = PartialInfo{false, d, 0.0};

  std::vector<ScoredPair> out;
  for (auto& entry : best.TakeSortedDescending()) {
    out.push_back(entry.item);
  }
  FinalizePairs(out, k);
  return out;
}

}  // namespace dhtjoin
