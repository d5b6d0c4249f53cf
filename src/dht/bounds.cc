#include "dht/bounds.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "dht/batch_core.h"

namespace dhtjoin {

double XUpperBound(const DhtParams& params, int l) {
  return params.XBound(l);
}

YBoundTable::YBoundTable(const Graph& g, const DhtParams& params, int d,
                         const NodeSet& P, const NodeSet& Q,
                         const ExecContext* exec)
    : d_(d) {
  DHTJOIN_CHECK_GE(d, 1);
  // Non-absorbing forward sweep from all of P at once: the visiting
  // probability S_i(P, q) is the step-i mass at q. Frontier-adaptive
  // steps (the shared policy of dht/batch_core.h) keep the cost
  // output-sensitive, and edges_relaxed_ bills what the sweep actually
  // paid: a sparse step its frontier's out-degrees, a dense one its
  // weak-component plan's edges. All ids below are INTERNAL (layout)
  // ids; the external seed / probe ids are translated once.
  const NodeId n = g.num_nodes();
  std::vector<double> mass(static_cast<std::size_t>(n), 0.0);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  std::vector<NodeId> support, next_support;
  std::vector<NodeId> seed_storage, probe_storage;
  // A duplicate seed still carries mass 1.0, not 2.0.
  for (NodeId u : g.MapToInternal(P.nodes(), seed_storage)) {
    double& slot = mass[static_cast<std::size_t>(u)];
    if (slot == 0.0) support.push_back(u);
    slot = 1.0;
  }
  const SweepPlan plan = g.PlanDenseSweep(support);
  std::span<const NodeId> probes = g.MapToInternal(Q.nodes(), probe_storage);

  // s[qi][i-1] = S_i(P, q) for i = 1..d.
  std::vector<std::vector<double>> s(
      Q.size(), std::vector<double>(static_cast<std::size_t>(d), 0.0));

  for (int i = 1; i <= d; ++i) {
    if (exec != nullptr && exec->Check() != StatusCode::kOk) {
      complete_ = false;
      break;
    }
    bool dense = SupportSizeForcesDense(support.size(), plan.cost);
    if (!dense) {
      int64_t frontier_edges = 0;
      for (NodeId u : support) {
        if (mass[static_cast<std::size_t>(u)] != 0.0) {
          frontier_edges += g.OutDegree(IntNodeId(u));
        }
      }
      dense = FrontierPrefersDense(support.size(), frontier_edges, plan.cost);
    }
    // The push accumulates destinations in support order, so it runs in
    // canonical order — the dense sweep's summation order in every
    // layout (DESIGN.md §3). A forward "dense" step is this same push
    // (it already visits exactly the nonzero rows); only the billing
    // differs.
    g.SortCanonical(support);
    int64_t relaxed = 0;
    for (NodeId u : support) {
      const double m = mass[static_cast<std::size_t>(u)];
      mass[static_cast<std::size_t>(u)] = 0.0;
      if (m == 0.0) continue;
      relaxed += g.OutDegree(IntNodeId(u));
      for (const OutEdge& e : g.OutEdges(IntNodeId(u))) {
        const double add = m * e.prob;
        // Underflow guard: a zero contribution must not register the
        // node in the support (the first-touch test below relies on
        // nonzero slots staying nonzero).
        if (add == 0.0) continue;
        double& slot = next[static_cast<std::size_t>(e.to)];
        if (slot == 0.0) next_support.push_back(e.to);
        slot += add;
      }
    }
    edges_relaxed_ += dense ? plan.edges : relaxed;
    mass.swap(next);
    support.swap(next_support);
    next_support.clear();
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      s[qi][static_cast<std::size_t>(i) - 1] =
          mass[static_cast<std::size_t>(probes[qi])];
    }
  }
  if (!complete_) {
    // Abandoned sweep: leave an all-zero (INVALID) table; callers must
    // consult complete() before Bound().
    per_q_suffix_.assign(Q.size(),
                         std::vector<double>(static_cast<std::size_t>(d) + 1,
                                             0.0));
    return;
  }

  // Suffix sums: Y_l = alpha * sum_{i=l+1..d} lambda^i min(S_i, 1).
  per_q_suffix_.assign(Q.size(),
                       std::vector<double>(static_cast<std::size_t>(d) + 1,
                                           0.0));
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    double acc = 0.0;
    for (int l = d - 1; l >= 0; --l) {
      double li = std::pow(params.lambda, l + 1);
      acc += params.alpha * li *
             std::min(s[qi][static_cast<std::size_t>(l)], 1.0);
      per_q_suffix_[qi][static_cast<std::size_t>(l)] = acc;
    }
  }
}

}  // namespace dhtjoin
