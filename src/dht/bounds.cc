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
  // probability S_i(P, q) is the step-i mass at q. The sweep runs on
  // the batch core (dht/batch_core.h) at one lane, so its steps are
  // the engines' own: a frontier push or a dense in-row gather by the
  // shared adaptive policy, summing in canonical order in every layout,
  // and edges_relaxed_ bills what the sweep actually paid — a sparse
  // step its frontier's out-degrees, a dense one its weak-component
  // plan's edges. All ids below are INTERNAL (layout) ids; the external
  // seed / probe ids are translated once.
  batch_core::BlockWorkspace<1> st(g.num_nodes());
  std::vector<NodeId> seed_storage, probe_storage;
  // A duplicate seed still carries mass 1.0, not 2.0.
  for (NodeId u : g.MapToInternal(P.nodes(), seed_storage)) {
    double& slot = st.mass[static_cast<std::size_t>(u)];
    if (slot == 0.0) st.support.push_back(u);
    slot = 1.0;
  }
  st.support_canonical = false;
  st.plan = g.PlanDenseSweep(st.support);
  std::span<const NodeId> probes = g.MapToInternal(Q.nodes(), probe_storage);

  // s[qi][i-1] = S_i(P, q) for i = 1..d.
  std::vector<std::vector<double>> s(
      Q.size(), std::vector<double>(static_cast<std::size_t>(d), 0.0));

  for (int i = 1; i <= d; ++i) {
    if (exec != nullptr && exec->Check() != StatusCode::kOk) {
      complete_ = false;
      break;
    }
    batch_core::StepLanes<batch_core::ForwardStepPolicy, 1>(
        g, PropagationMode::kAdaptive, st, 1);
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      s[qi][static_cast<std::size_t>(i) - 1] =
          st.mass[static_cast<std::size_t>(probes[qi])];
    }
  }
  edges_relaxed_ = st.edges_relaxed;
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
