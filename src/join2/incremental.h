/// \file join2/incremental.h
/// \brief Resumable 2-way join — the `F` structure of PJ-i (paper Sec VI-D).
///
/// PJ-i needs getNextNodePair to be cheap: after a top-m join, the
/// (m+1)-th, (m+2)-th, ... pairs must be derivable from information the
/// top-m computation already produced, instead of re-running a top-(m+1)
/// join from scratch.
///
/// IncrementalTwoWayJoin runs a B-IDJ-style deepening schedule once, but
/// records every bound it computes in a mutable priority queue F of
/// entries  <(p, q), h-, h+, l>  ordered by the upper bound h+, paired
/// with a hash index from (p, q) to its heap handle — exactly the
/// structure the paper describes. Next() then repeatedly resolves the
/// top of F:
///   * if the top entry's lower bound dominates both the runner-up's
///     upper bound and every not-yet-materialized pair, it is the next
///     result (exactified by a d-step walk from its q first if needed);
///   * otherwise the blocking target q is walked deeper
///     (l -> min(2l, d), the paper's refinement rule) and its entries
///     are tightened in place.
///
/// Pairs invisible to F (their q was pruned early, or they were not
/// reachable within the walked depth) are covered by a per-target
/// *residual* bound beta + U_l^+(q), kept in a second heap; when such a
/// bound tops the candidate upper bounds, that q is re-activated and
/// walked deeper. This closes the gap the paper leaves open (pairs of
/// pruned targets are absent from F) and makes the enumerator exact over
/// the full valid pair space — see DESIGN.md §2.

#ifndef DHTJOIN_JOIN2_INCREMENTAL_H_
#define DHTJOIN_JOIN2_INCREMENTAL_H_

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "join2/two_way_join.h"
#include "util/deadline.h"
#include "util/mutable_heap.h"

namespace dhtjoin {

/// Produces the 2-way join results of (P, Q) one at a time, in
/// descending h_d order, resuming cheaply between calls.
class IncrementalTwoWayJoin {
 public:
  struct Options {
    UpperBoundKind bound = UpperBoundKind::kY;
    /// Byte budget for the per-target resume states; 0 means autotune
    /// from graph size (AutotuneStateBudgetBytes).
    std::size_t state_budget_bytes = 0;
    /// Optional cross-query walk-state cache (the serving cache). A
    /// target with no local state resumes from the cache's walk over
    /// this join's P when that walk is no deeper than the level asked
    /// for, and the join's own walks are offered back — bit-identical
    /// either way (DESIGN.md §3, §6). Attaching a cache also pins the
    /// engine to one thread: the serving layer parallelizes across
    /// sessions, not inside one. Must outlive the join.
    BackwardStateCache* state_cache = nullptr;
    /// Used for TRACING only (obs::TraceOf): the Y-bound construction
    /// records a `ybound` span and the initial schedule per-round spans
    /// (level, frontier, survivors) on the attached trace.
    /// Deadline/cancel are deliberately NOT polled in this engine —
    /// PJ-i has no anytime-degradation story yet, so a mid-schedule
    /// stop would leave F half-built (DESIGN.md §9).
    const ExecContext* exec = nullptr;
  };

  /// Prepares the enumerator and runs the top-m deepening schedule.
  /// `m` tunes how much work is done eagerly (the paper's top-m join);
  /// m = 0 defers everything to Next(). Fails on invalid inputs.
  static Result<std::unique_ptr<IncrementalTwoWayJoin>> Create(
      const Graph& g, const DhtParams& params, int d, const NodeSet& P,
      const NodeSet& Q, std::size_t m, Options options);

  /// Create() with default options (B-IDJ-Y bound).
  static Result<std::unique_ptr<IncrementalTwoWayJoin>> Create(
      const Graph& g, const DhtParams& params, int d, const NodeSet& P,
      const NodeSet& Q, std::size_t m);

  /// Offers every local walk state deeper than what the cache supplied
  /// to the attached cache (if any).
  ~IncrementalTwoWayJoin();

  /// Next pair in descending score order; nullopt when every valid pair
  /// has been returned.
  std::optional<ScoredPair> Next();

  /// Number of pairs returned so far.
  std::size_t num_returned() const { return num_returned_; }

  const TwoWayJoinStats& stats() const { return stats_; }

 private:
  struct PairEntry {
    NodeId p;
    std::size_t qi;    // index into Q
    double lower;      // h_l(p, q)
    int level;         // l at which `lower` was computed
  };

  IncrementalTwoWayJoin(const Graph& g, const DhtParams& params, int d,
                        const NodeSet& P, const NodeSet& Q, Options options);

  /// Remainder bound U_l^+ for target index qi at depth l.
  double Remainder(int l, std::size_t qi) const;

  /// Walks the targets Q[qis[i]] to depth `new_level` (each above its
  /// current level) in one fused engine call, inserting / tightening
  /// their F entries and refreshing their residual bounds. Each row is
  /// also handed to on_row(i, row) after ApplyRow. A target with no
  /// local state first loads the attached cache's walk when that walk
  /// is at or below `new_level` — the rule that keeps F, and so every
  /// answer, independent of the cache.
  template <typename OnRow>
  void Deepen(std::span<const std::size_t> qis, int new_level,
              OnRow&& on_row);

  /// Single-target Deepen (one live lane), the refinement step of Next().
  void DeepenTarget(std::size_t qi, int new_level);

  /// Hands target qi's local state to the cache (when one is attached
  /// and the state is deeper than what the cache supplied), else drops
  /// it.
  void Release(std::size_t qi);

  /// Folds the engine's cumulative counters into stats_ as deltas —
  /// one fold per engine call, so no event is counted twice. Returns
  /// the fork/join barriers dispatched since the previous fold.
  int64_t FoldEngineCounters();

  /// The F-maintenance half of a deepening: folds target qi's score row
  /// over P (h_{new_level}(P[pi], Q[qi]) at row[pi]) into the candidate
  /// heap and residual bound, and records the new level.
  void ApplyRow(std::size_t qi, int new_level, const double* row);

  /// Runs the B-IDJ deepening schedule with pruning threshold from the
  /// m-th best lower bound, on the fused batch engine — one fork/join
  /// per deepening round over the whole live set.
  void RunInitialSchedule(std::size_t m);

  /// m-th largest lower bound currently in F (-inf when |F| < m).
  double LowerThreshold(std::size_t m) const;

  const Graph& g_;
  DhtParams params_;
  int d_;
  const NodeSet P_;  // copies: the enumerator outlives caller temporaries
  const NodeSet Q_;
  Options options_;
  std::unique_ptr<YBoundTable> ybound_;
  // One engine and one per-target state slot (slot = index in Q) for
  // the join's whole lifetime: the top-m schedule and every Next()
  // refinement resume from a target's current level instead of
  // replaying it (the paper's min(2l, d) rule revisits the same targets
  // over and over). Slots live under a byte budget; an evicted target
  // restarts with bit-identical results (DESIGN.md §3). When the budget
  // came from the autotuner (Options::state_budget_bytes == 0), the
  // observed hit/eviction counters feed back into it periodically
  // (BatchStateBudget::Retune): grow on thrash, shrink on idle.
  BackwardWalkerBatch batch_;
  BackwardBatchStates states_;
  std::unique_ptr<BackwardStateCache::Pinned> cache_;
  std::vector<int> imported_level_;  // cache-supplied level per target
  bool autotune_budget_ = false;
  int64_t deepen_calls_ = 0;
  // Engine counters already folded into stats_ (FoldEngineCounters).
  int64_t edges_seen_ = 0;
  int64_t barriers_seen_ = 0;
  int64_t hits_seen_ = 0;
  int64_t misses_seen_ = 0;

  MutableHeap<PairEntry> f_;  // keyed by upper bound h+
  std::unordered_map<uint64_t, MutableHeap<PairEntry>::Handle> index_;
  std::unordered_set<uint64_t> returned_;

  // Residual heap over target indices, keyed by beta + U_l^+(q): the
  // bound on any pair of that target not represented in F.
  MutableHeap<std::size_t> residual_;
  std::vector<MutableHeap<std::size_t>::Handle> residual_handle_;
  std::vector<int> q_level_;  // walked depth per target (0 = never)

  std::size_t num_returned_ = 0;
  TwoWayJoinStats stats_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_JOIN2_INCREMENTAL_H_
