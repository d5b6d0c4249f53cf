/// \file tests/testing/reference.h
/// \brief Independent ground-truth oracles and graph fixtures for tests.
///
/// RefFirstHitProb enumerates every walk explicitly (exponential in d;
/// only for tiny graphs) — a genuinely independent check of the walk
/// engines. RefBackwardScores and RefForwardScore are plain dense loops
/// over the CSR rows, validated against that oracle and sharing no code
/// with the engines; because they sum in the order DESIGN.md §3
/// guarantees for every engine path, engine output must equal them BIT
/// for bit; RefYBound is the same kind of loop for the Y-bound sweep.
/// RefTwoWayJoin and RefNwayJoin are brute-force joins built
/// on top of the dense backward loop.

#ifndef DHTJOIN_TESTS_TESTING_REFERENCE_H_
#define DHTJOIN_TESTS_TESTING_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <vector>

#include "dht/params.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/node_set.h"
#include "join2/two_way_join.h"
#include "rankjoin/aggregate.h"
#include "rankjoin/pbrj.h"
#include "util/check.h"
#include "util/rng.h"

namespace dhtjoin::testing {

/// Probability that a walk from `u` FIRST hits `v` at exactly step `i`,
/// by explicit enumeration of all walks (exponential; tiny graphs only).
inline double RefFirstHitProb(const Graph& g, NodeId u, NodeId v, int i) {
  DHTJOIN_CHECK_GE(i, 1);
  // u and v are EXTERNAL ids; rows are layout-addressed, so translate
  // on the way in and out — the oracle is layout-independent.
  // When u == v the result is the first-RETURN probability; the start
  // node does not count as a hit, so the recursion below covers it.
  double total = 0.0;
  for (const OutEdge& e : g.OutEdges(g.ToInternal(ExtNodeId(u)))) {
    const NodeId to = g.ToExternal(IntNodeId(e.to)).value();
    if (i == 1) {
      if (to == v) total += e.prob;
    } else if (to != v) {
      total += e.prob * RefFirstHitProb(g, to, v, i - 1);
    }
  }
  return total;
}

/// Truncated DHT h_d(u, v) from the path oracle.
inline double RefHd(const Graph& g, const DhtParams& params, int d, NodeId u,
                    NodeId v) {
  double score = params.beta;
  double lp = 1.0;
  for (int i = 1; i <= d; ++i) {
    lp *= params.lambda;
    score += params.alpha * lp * RefFirstHitProb(g, u, v, i);
  }
  return score;
}

/// Dense reference backward walk (the paper's backWalk, Eq. 5):
/// h_d(u, q) for EVERY node u, indexed by EXTERNAL id (entry q is the
/// meaningless self score). Each step gathers every node's out-row in
/// storage order — rows are sorted by canonical target, the summation
/// order every engine path keeps (DESIGN.md §3) — and the score sum
/// runs beta-exclusive, beta joining once at the end exactly as the
/// engine adds it at output. O(d * (n + m)); no frontier, no lanes.
inline std::vector<double> RefBackwardScores(const Graph& g,
                                             const DhtParams& params, int d,
                                             ExtNodeId q) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> mass(n, 0.0), next(n, 0.0), delta(n, 0.0);
  const auto target = static_cast<std::size_t>(g.ToInternal(q).value());
  mass[target] = 1.0;
  double lambda_pow = 1.0;
  for (int i = 1; i <= d; ++i) {
    for (std::size_t u = 0; u < n; ++u) {
      double acc = 0.0;
      for (const OutEdge& e : g.OutEdges(IntNodeId(static_cast<NodeId>(u)))) {
        acc += e.prob * mass[static_cast<std::size_t>(e.to)];
      }
      next[u] = acc;
    }
    mass.swap(next);
    lambda_pow *= params.lambda;
    const double coeff = params.alpha * lambda_pow;
    for (std::size_t u = 0; u < n; ++u) delta[u] += coeff * mass[u];
    // First-hit semantics absorb at q; visiting semantics (PPR) do not.
    if (params.first_hit) mass[target] = 0.0;
  }
  std::vector<double> scores(n);
  for (std::size_t u = 0; u < n; ++u) {
    const NodeId ext = g.ToExternal(IntNodeId(static_cast<NodeId>(u))).value();
    scores[static_cast<std::size_t>(ext)] = delta[u] + params.beta;
  }
  return scores;
}

/// Dense reference forward walk (Sec V-B): h_d(u, v) from a walk pushed
/// ALONG edges out of u and absorbed at v. Each step gathers every
/// node's in-row in storage order (sorted by canonical source — the
/// order in which the engine's push accumulates a destination). The
/// score sum starts at beta and adds alpha * lambda^i * P_i step by
/// step, the forward engine's own accumulation order. When `hit_probs`
/// is set it receives P_i(u, v) for i = 1..d (visiting probabilities
/// under PPR semantics).
inline double RefForwardScore(const Graph& g, const DhtParams& params, int d,
                              ExtNodeId u, ExtNodeId v,
                              std::vector<double>* hit_probs = nullptr) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> mass(n, 0.0), next(n, 0.0);
  mass[static_cast<std::size_t>(g.ToInternal(u).value())] = 1.0;
  const auto target = static_cast<std::size_t>(g.ToInternal(v).value());
  if (hit_probs != nullptr) hit_probs->clear();
  double score = params.beta;
  double lambda_pow = 1.0;
  for (int i = 1; i <= d; ++i) {
    for (std::size_t w = 0; w < n; ++w) {
      double acc = 0.0;
      for (const InEdge& e : g.InEdges(IntNodeId(static_cast<NodeId>(w)))) {
        acc += e.prob * mass[static_cast<std::size_t>(e.from)];
      }
      next[w] = acc;
    }
    mass.swap(next);
    lambda_pow *= params.lambda;
    const double coeff = params.alpha * lambda_pow;
    if (hit_probs != nullptr) hit_probs->push_back(mass[target]);
    score += coeff * mass[target];
    if (params.first_hit) mass[target] = 0.0;
  }
  return score;
}

/// Dense reference Y-bound table (Theorem 1): S_i(P, q) for i = 1..d
/// from a non-absorbing sweep seeded with unit mass on every node of P
/// that gathers every node's in-row in storage (canonical-source) order
/// — the order YBoundTable's steps accumulate a node in, push or gather
/// — then YBoundTable's own suffix sum. Returns [qi][l] = Y_l^+(P, q),
/// the layout of YBoundTable::suffix_rows(). O(d * (n + m)).
inline std::vector<std::vector<double>> RefYBound(const Graph& g,
                                                  const DhtParams& p, int d,
                                                  const NodeSet& P,
                                                  const NodeSet& Q) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> mass(n, 0.0), next(n, 0.0);
  for (ExtNodeId u : P) {
    mass[static_cast<std::size_t>(g.ToInternal(u).value())] = 1.0;
  }
  std::vector<std::vector<double>> s(
      Q.size(), std::vector<double>(static_cast<std::size_t>(d), 0.0));
  for (int i = 1; i <= d; ++i) {
    for (std::size_t w = 0; w < n; ++w) {
      double acc = 0.0;
      for (const InEdge& e : g.InEdges(IntNodeId(static_cast<NodeId>(w)))) {
        acc += e.prob * mass[static_cast<std::size_t>(e.from)];
      }
      next[w] = acc;
    }
    mass.swap(next);
    for (std::size_t qi = 0; qi < Q.size(); ++qi) {
      s[qi][static_cast<std::size_t>(i) - 1] =
          mass[static_cast<std::size_t>(g.ToInternal(Q[qi]).value())];
    }
  }
  std::vector<std::vector<double>> bound(
      Q.size(), std::vector<double>(static_cast<std::size_t>(d) + 1, 0.0));
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    double acc = 0.0;
    for (int l = d - 1; l >= 0; --l) {
      acc += p.alpha * std::pow(p.lambda, l + 1) *
             std::min(s[qi][static_cast<std::size_t>(l)], 1.0);
      bound[qi][static_cast<std::size_t>(l)] = acc;
    }
  }
  return bound;
}

/// Brute-force 2-way join via the dense backward loop (validated
/// separately against RefHd). Returns all valid pairs sorted, truncated
/// to k.
inline std::vector<ScoredPair> RefTwoWayJoin(const Graph& g,
                                             const DhtParams& params, int d,
                                             const NodeSet& P,
                                             const NodeSet& Q,
                                             std::size_t k) {
  std::vector<ScoredPair> out;
  for (ExtNodeId q : Q) {
    const std::vector<double> scores = RefBackwardScores(g, params, d, q);
    for (ExtNodeId p : P) {
      if (p == q) continue;
      double s = scores[static_cast<std::size_t>(p.value())];
      if (s > params.beta) {
        out.push_back(ScoredPair{p.value(), q.value(), s});
      }
    }
  }
  std::sort(out.begin(), out.end(), ScoredPairGreater);
  if (out.size() > k) out.resize(k);
  return out;
}

/// Brute-force n-way join: all pair scores via the dense backward loop, full
/// tuple enumeration, validity filtering, top-k by f. Independent of the
/// PBRJ machinery.
inline std::vector<TupleAnswer> RefNwayJoin(
    const Graph& g, const DhtParams& params, int d,
    const std::vector<NodeSet>& sets, const std::vector<JoinEdge>& edges,
    const Aggregate& f, std::size_t k) {
  // Pair score tables per edge.
  struct Table {
    std::vector<ScoredPair> pairs;
    double Get(NodeId p, NodeId q) const {
      for (const auto& sp : pairs) {
        if (sp.p == p && sp.q == q) return sp.score;
      }
      return -std::numeric_limits<double>::infinity();  // invalid pair
    }
  };
  std::vector<Table> tables(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    tables[e].pairs = RefTwoWayJoin(
        g, params, d, sets[static_cast<std::size_t>(edges[e].left)],
        sets[static_cast<std::size_t>(edges[e].right)],
        static_cast<std::size_t>(-1));
  }

  std::vector<TupleAnswer> all;
  std::vector<NodeId> tuple(sets.size(), kInvalidNode);
  auto enumerate = [&](auto&& self, std::size_t attr) -> void {
    if (attr == sets.size()) {
      TupleAnswer a;
      a.nodes = tuple;
      a.edge_scores.resize(edges.size());
      for (std::size_t e = 0; e < edges.size(); ++e) {
        double s = tables[e].Get(
            tuple[static_cast<std::size_t>(edges[e].left)],
            tuple[static_cast<std::size_t>(edges[e].right)]);
        if (s == -std::numeric_limits<double>::infinity()) return;
        a.edge_scores[e] = s;
      }
      a.f = f.Apply(a.edge_scores);
      all.push_back(std::move(a));
      return;
    }
    for (ExtNodeId r : sets[attr]) {
      tuple[attr] = r.value();
      self(self, attr + 1);
    }
  };
  enumerate(enumerate, 0);
  std::sort(all.begin(), all.end(), TupleAnswerGreater);
  if (all.size() > k) all.resize(k);
  return all;
}

// ---------------------------------------------------------------------
// Graph fixtures.
// ---------------------------------------------------------------------

/// Directed path 0 -> 1 -> ... -> n-1.
inline Graph PathGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, u + 1).ok());
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Directed cycle 0 -> 1 -> ... -> n-1 -> 0.
inline Graph CycleGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, (u + 1) % n).ok());
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Undirected complete graph K_n, unit weights.
inline Graph CompleteGraph(NodeId n) {
  GraphBuilder b(n, /*undirected=*/true);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      DHTJOIN_CHECK(b.AddEdge(u, v).ok());
    }
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Undirected star: hub 0 connected to 1..n-1.
inline Graph StarGraph(NodeId n) {
  GraphBuilder b(n, /*undirected=*/true);
  for (NodeId v = 1; v < n; ++v) {
    DHTJOIN_CHECK(b.AddEdge(0, v).ok());
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// The paper's Figure 1(a)-style graph: two small communities bridged by
/// a few edges; weighted and undirected. 10 nodes.
inline Graph TwoCommunityGraph() {
  GraphBuilder b(10, /*undirected=*/true);
  // Community A: 0-4 (dense).
  const NodeId a[] = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      if ((i + j) % 3 != 0) {
        DHTJOIN_CHECK(b.AddEdge(a[i], a[j], 1.0 + i).ok());
      }
    }
  }
  // Community B: 5-9 (ring).
  for (NodeId u = 5; u < 10; ++u) {
    DHTJOIN_CHECK(b.AddEdge(u, u == 9 ? 5 : u + 1, 2.0).ok());
  }
  // Bridges.
  DHTJOIN_CHECK(b.AddEdge(2, 7, 0.5).ok());
  DHTJOIN_CHECK(b.AddEdge(4, 5, 1.5).ok());
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// Random simple graph for property sweeps; deterministic per seed.
inline Graph RandomGraph(NodeId n, int64_t edges, uint64_t seed,
                         bool undirected = true, bool weighted = false) {
  GraphBuilder b(n, undirected);
  Rng rng(seed);
  int64_t added = 0;
  int64_t guard = 0;
  // Hash-set dedup: membership tests are O(1), so large fixtures stay
  // linear in |edges|. Same accept/reject sequence as any other exact
  // membership structure, so graphs are unchanged for a given seed.
  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(edges) * 2);
  while (added < edges && guard < 500 * edges) {
    ++guard;
    auto u = static_cast<NodeId>(rng.Below(static_cast<uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.Below(static_cast<uint64_t>(n)));
    if (u == v) continue;
    uint64_t key = undirected ? PairKey(std::min(u, v), std::max(u, v))
                              : PairKey(u, v);
    if (!seen.insert(key).second) continue;
    double w = weighted ? 1.0 + static_cast<double>(rng.Below(5)) : 1.0;
    DHTJOIN_CHECK(b.AddEdge(u, v, w).ok());
    ++added;
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

/// First `count` node ids as a NodeSet.
inline NodeSet Range(const char* name, NodeId begin, NodeId end) {
  std::vector<NodeId> ids;
  for (NodeId u = begin; u < end; ++u) ids.push_back(u);
  return NodeSet(name, std::move(ids));
}

}  // namespace dhtjoin::testing

#endif  // DHTJOIN_TESTS_TESTING_REFERENCE_H_
