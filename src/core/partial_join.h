/// \file core/partial_join.h
/// \brief PJ and PJ-i — the paper's contribution (Sec IV and VI-D).
///
/// PJ (Algorithm 1) evaluates only a TOP-m 2-way join per query edge
/// (B-IDJ under the hood) and rank-joins the short lists with PBRJ;
/// when the rank join needs a pair beyond the m-th, getNextNodePair
/// supplies it. The two variants differ exactly there:
///
///   * PJ   — re-runs a top-(m+1) 2-way join from scratch
///            (RerunPairStream);
///   * PJ-i — resumes the incremental F structure that the top-m join
///            already built (IncrementalPairStream), which is what makes
///            it up to ~50x faster and insensitive to m.
///
/// Both support any monotone aggregate and both DHT variants.

#ifndef DHTJOIN_CORE_PARTIAL_JOIN_H_
#define DHTJOIN_CORE_PARTIAL_JOIN_H_

#include "core/nway_join.h"
#include "join2/two_way_join.h"
#include "util/deadline.h"

namespace dhtjoin {

class BackwardStateCache;

class PartialJoin final : public NwayJoin {
 public:
  struct Options {
    /// Initial 2-way join depth per query edge (paper default m = 50).
    std::size_t m = 50;
    /// False = PJ (re-run from scratch); true = PJ-i (incremental).
    bool incremental = false;
    /// Remainder bound of the underlying B-IDJ (paper uses Y).
    UpperBoundKind bound = UpperBoundKind::kY;
    /// Rank-join pulling strategy (paper uses HRJN round-robin; the
    /// HRJN*-style adaptive strategy is an extension, see the ablation
    /// bench).
    PullStrategy pull_strategy = PullStrategy::kRoundRobin;
    /// Cross-query walk-state cache for the incremental streams (the
    /// serving cache; see dht/backward_batch.h). PJ-i only.
    BackwardStateCache* state_cache = nullptr;
    /// Used for TRACING only, forwarded to each PJ-i stream
    /// (IncrementalTwoWayJoin::Options::exec). PJ-i only: the
    /// non-incremental path ignores it.
    const ExecContext* exec = nullptr;
  };

  struct Stats {
    /// Pairs the rank join actually consumed, per query edge.
    std::vector<int64_t> pulls_per_edge;
    /// Pairs requested beyond the initial top-m, per query edge
    /// (getNextNodePair traffic).
    std::vector<int64_t> beyond_m_per_edge;
    PbrjStats rank_join;
  };

  PartialJoin() = default;
  explicit PartialJoin(Options options) : options_(options) {}

  std::string Name() const override {
    return options_.incremental ? "PJ-i" : "PJ";
  }

  Result<std::vector<TupleAnswer>> Run(const Graph& g,
                                       const DhtParams& params, int d,
                                       const QueryGraph& query,
                                       const Aggregate& f,
                                       std::size_t k) override;

  const Stats& stats() const { return stats_; }

 private:
  Options options_;
  Stats stats_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_CORE_PARTIAL_JOIN_H_
