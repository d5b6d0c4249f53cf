/// \file tests/propagate_test.cc
/// \brief The frontier-adaptive batch engines in every propagation mode
/// vs the dense reference loops — bit for bit, on every graph fixture,
/// under both first-hit (DHT) and visiting (PPR) semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "dht/forward_batch.h"
#include "graph/reorder.h"
#include "testing/reference.h"
#include "util/thread_pool.h"

namespace dhtjoin {
namespace {

using testing::CycleGraph;
using testing::PathGraph;
using testing::RandomGraph;
using testing::RefBackwardScores;
using testing::RefForwardScore;
using testing::RefYBound;
using testing::StarGraph;
using testing::TwoCommunityGraph;

constexpr double kTol = 1e-12;

struct Fixture {
  const char* name;
  Graph graph;
};

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  out.push_back({"path", PathGraph(8)});
  out.push_back({"cycle", CycleGraph(7)});
  out.push_back({"star", StarGraph(9)});
  out.push_back({"two_community", TwoCommunityGraph()});
  out.push_back({"random_sparse", RandomGraph(40, 60, 31, true, true)});
  out.push_back({"random_denser", RandomGraph(30, 140, 32, false, true)});
  return out;
}

std::vector<DhtParams> Semantics() {
  return {DhtParams::Lambda(0.2), DhtParams::Lambda(0.8),
          DhtParams::Exponential(), DhtParams::PersonalizedPageRank(0.7)};
}

constexpr PropagationMode kModes[] = {PropagationMode::kDense,
                                      PropagationMode::kSparse,
                                      PropagationMode::kAdaptive};

std::vector<ExtNodeId> AllNodes(const Graph& g) {
  std::vector<ExtNodeId> all;
  for (NodeId u = 0; u < g.num_nodes(); ++u) all.emplace_back(u);
  return all;
}

// ------------------------------------ every mode == the dense reference

TEST(PropagateTest, BackwardModesAgreeOnAllFixtures) {
  for (auto& fx : Fixtures()) {
    const std::vector<ExtNodeId> all = AllNodes(fx.graph);
    for (const DhtParams& p : Semantics()) {
      for (PropagationMode mode : kModes) {
        BackwardWalkerBatch batch(fx.graph, {.mode = mode, .num_threads = 1});
        for (NodeId q = 0; q < fx.graph.num_nodes(); q += 3) {
          const ExtNodeId target(q);
          EXPECT_EQ(batch.Run(p, 10, {&target, 1}, all),
                    RefBackwardScores(fx.graph, p, 10, target))
              << fx.name << " first_hit=" << p.first_hit << " q=" << q
              << " mode=" << static_cast<int>(mode);
        }
      }
    }
  }
}

TEST(PropagateTest, ForwardModesAgreeOnAllFixtures) {
  for (auto& fx : Fixtures()) {
    for (const DhtParams& p : Semantics()) {
      for (PropagationMode mode : kModes) {
        ForwardWalkerBatch batch(fx.graph, {.mode = mode, .num_threads = 1});
        const NodeId n = fx.graph.num_nodes();
        for (NodeId u : {NodeId{0}, static_cast<NodeId>(n / 2)}) {
          for (NodeId v : {static_cast<NodeId>(n - 1), NodeId{1}}) {
            if (u == v) continue;
            const ExtNodeId source(u), target(v);
            for (int d = 1; d <= 9; ++d) {
              EXPECT_EQ(batch.Run(p, d, {&source, 1}, {&target, 1})[0],
                        RefForwardScore(fx.graph, p, d, source, target))
                  << fx.name << " d=" << d
                  << " mode=" << static_cast<int>(mode);
            }
          }
        }
      }
    }
  }
}

TEST(PropagateTest, SparseResumableAdvanceMatchesOneShot) {
  Graph g = RandomGraph(25, 70, 33);
  DhtParams p = DhtParams::Lambda(0.5);
  const std::vector<ExtNodeId> all = AllNodes(g);
  BackwardWalkerBatch batch(g, {.mode = PropagationMode::kSparse,
                                .num_threads = 1});
  BackwardBatchStates states(1);
  const ExtNodeId target(4);
  const std::size_t slot = 0;
  std::vector<double> resumed;
  auto keep = [&](std::size_t, const double* row) {
    resumed.assign(row, row + all.size());
  };
  batch.AdvanceChunked(p, 3, {&target, 1}, {&slot, 1}, all, states, keep);
  batch.AdvanceChunked(p, 8, {&target, 1}, {&slot, 1}, all, states, keep);
  // Resumed: must be bit-identical, not just close.
  EXPECT_EQ(resumed, batch.Run(p, 8, {&target, 1}, all));
}

// ----------------------------------------------- engine-level checks

TEST(PropagateTest, SparseStepsRelaxFewerEdgesOnLocalizedWalks) {
  // Backward walk from a star leaf: the frontier is {leaf}, then {hub},
  // then all leaves — far below the dense m-per-step cost.
  Graph g = StarGraph(64);
  BackwardWalkerBatch dense(g, {.mode = PropagationMode::kDense,
                                .num_threads = 1});
  BackwardWalkerBatch adaptive(g, {.mode = PropagationMode::kAdaptive,
                                   .num_threads = 1});
  const ExtNodeId leaf(1), hub(0);
  dense.Run(DhtParams::Lambda(0.2), 1, {&leaf, 1}, {&hub, 1});
  adaptive.Run(DhtParams::Lambda(0.2), 1, {&leaf, 1}, {&hub, 1});
  EXPECT_LT(adaptive.edges_relaxed(), dense.edges_relaxed() / 4);
}

TEST(PropagateTest, AdaptiveGoesDenseOnSaturatedFrontier) {
  // On a complete graph the frontier saturates after one step; the
  // adaptive policy must pick the dense sweep instead of paying the
  // sparse-push penalty on a full frontier — while a one-node frontier
  // stays sparse.
  Graph g = testing::CompleteGraph(24);
  const SweepPlan plan = g.FullSweepPlan();
  int64_t saturated_edges = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    saturated_edges += g.InDegree(IntNodeId(u));
  }
  EXPECT_TRUE(FrontierPrefersDense(24, saturated_edges, plan.cost));
  EXPECT_FALSE(SupportSizeForcesDense(1, plan.cost));
  EXPECT_FALSE(FrontierPrefersDense(1, g.InDegree(IntNodeId(0)), plan.cost));

  // The engine applies that policy against its plan cost, and the edge
  // bill shows which sweep each step ran: a sparse step bills each live
  // frontier node's in-degree, a dense backward step bills plan.edges.
  // Step 1 pushes node 0's 23 in-edges (sparse); step 2's frontier is
  // the 23 in-neighbours, whose 23 * 23 in-edges outweigh the sweep, so
  // it runs dense: 23 + 552 = 575 (staying sparse would bill 23 + 529).
  ASSERT_EQ(plan.edges, 24 * 23);
  const int64_t sparse_step2 = int64_t{23} * 23;
  ASSERT_NE(plan.edges, sparse_step2);
  const ExtNodeId start(0);
  const std::vector<ExtNodeId> all = AllNodes(g);
  BackwardWalkerBatch adaptive(g, {.mode = PropagationMode::kAdaptive,
                                   .num_threads = 1});
  BackwardWalkerBatch sparse(g, {.mode = PropagationMode::kSparse,
                                 .num_threads = 1});
  const DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_EQ(adaptive.Run(p, 2, {&start, 1}, all),
            sparse.Run(p, 2, {&start, 1}, all));
  EXPECT_EQ(adaptive.edges_relaxed(), 23 + plan.edges);
  EXPECT_EQ(sparse.edges_relaxed(), 23 + sparse_step2);
}

// A weighted funnel: source 0 fans out to kFunnelMiddles middles, each
// feeding the collector and one of kFunnelRelays relays; collector and
// relays feed the head of a three-node path, and the collector also
// returns to the source. Every weight is distinct, so each multi-addend
// sum's bits depend on the order of its addends. The middle -> relay
// weights are ~1e-16 of the middle -> collector ones, so each relay's
// mass is below half an ulp of the collector's share at the path head
// (~0.4, under the Y bound's cap of 1): that sum comes out one value
// with the relays added first (the canonical order — their ids are
// smaller) and another with the collector first. A two-node island is
// its own weak component, so every dense plan is restricted.
constexpr NodeId kFunnelMiddles = 32;
constexpr NodeId kFunnelRelays = 8;
constexpr NodeId kFunnelRelay = 1 + kFunnelMiddles;
constexpr NodeId kFunnelCollector = kFunnelRelay + kFunnelRelays;
constexpr NodeId kFunnelPath = kFunnelCollector + 1;  // three-node path
constexpr NodeId kFunnelIsland = kFunnelPath + 3;     // two nodes

Graph FunnelGraph() {
  GraphBuilder b(kFunnelIsland + 2);
  for (NodeId i = 0; i < kFunnelMiddles; ++i) {
    const NodeId m = 1 + i;
    const double x = static_cast<double>(i);
    DHTJOIN_CHECK(b.AddEdge(0, m, 1.0 + std::sqrt(x + 2.0)).ok());
    DHTJOIN_CHECK(b.AddEdge(m, kFunnelCollector, 2.0 + std::sqrt(x + 3.0))
                      .ok());
    DHTJOIN_CHECK(b.AddEdge(m, kFunnelRelay + i % kFunnelRelays,
                            1e-16 * (1.0 + std::sqrt(x + 5.0)))
                      .ok());
  }
  for (NodeId r = kFunnelRelay; r <= kFunnelCollector; ++r) {
    DHTJOIN_CHECK(b.AddEdge(r, kFunnelPath).ok());
  }
  DHTJOIN_CHECK(b.AddEdge(kFunnelCollector, 0, 1.5).ok());
  DHTJOIN_CHECK(b.AddEdge(kFunnelPath, kFunnelPath + 1).ok());
  DHTJOIN_CHECK(b.AddEdge(kFunnelPath + 1, kFunnelPath + 2).ok());
  DHTJOIN_CHECK(b.AddEdge(kFunnelIsland, kFunnelIsland + 1).ok());
  DHTJOIN_CHECK(b.AddEdge(kFunnelIsland + 1, kFunnelIsland).ok());
  return std::move(b.Build()).value();
}

TEST(PropagateTest, ForwardGatherSumsAFunnelInCanonicalOrder) {
  // From the source, the adaptive policy pushes step 0 (a one-node
  // frontier), gathers step 1 (32 middles whose out-degrees outweigh
  // the restricted plan) and pushes step 2 again (collector + relays).
  // Step 2's push consumes the support the dense gather left in plan-
  // row order, so in a reordered layout it must sort canonically first
  // or the path head's addends arrive in the wrong order (the degree
  // layout puts the collector, the highest-degree node, first).
  const Graph insertion = FunnelGraph();
  const Graph rcm =
      std::move(ReorderGraph(insertion, ReorderKind::kRcm)).value();
  const Graph degree =
      std::move(ReorderGraph(insertion, ReorderKind::kDegree)).value();
  const DhtParams p = DhtParams::Lambda(0.8);
  const ExtNodeId source(0);
  const NodeSet P("P", std::vector<NodeId>{0});
  const NodeSet Q("Q", std::vector<NodeId>{kFunnelRelay + 1, kFunnelCollector,
                                           kFunnelPath, kFunnelPath + 2});
  for (const Graph* g : {&insertion, &rcm, &degree}) {
    const NodeId s = g->ToInternal(source).value();
    const SweepPlan plan = g->PlanDenseSweep({&s, 1});
    ASSERT_FALSE(plan.full);
    ASSERT_EQ(plan.edges, 3 * kFunnelMiddles + kFunnelRelays + 2 + 2);
    // Cumulative bills after 1, 2, 3 steps: the source's out-degree,
    // then the plan's edges (dense), then the out-rows of the relays
    // (one edge each) and the collector (two) (sparse).
    const int64_t bill[] = {
        kFunnelMiddles, kFunnelMiddles + plan.edges,
        kFunnelMiddles + plan.edges + kFunnelRelays + 2};
    for (int d = 1; d <= 3; ++d) {
      const ExtNodeId tail(kFunnelPath + 2);
      ForwardWalkerBatch engine(*g, {.num_threads = 1});
      engine.Run(p, d, {&source, 1}, {&tail, 1});
      EXPECT_EQ(engine.edges_relaxed(), bill[d - 1]) << "d=" << d;
      EXPECT_EQ(YBoundTable(*g, p, d, P, Q).edges_relaxed(), bill[d - 1])
          << "d=" << d;
    }
    const int d = 6;
    ForwardWalkerBatch engine(*g, {.num_threads = 1});
    for (ExtNodeId target : Q) {
      EXPECT_EQ(engine.Run(p, d, {&source, 1}, {&target, 1})[0],
                RefForwardScore(*g, p, d, source, target))
          << "target " << target.value();
    }
    EXPECT_EQ(YBoundTable(*g, p, d, P, Q).suffix_rows(),
              RefYBound(*g, p, d, P, Q));
  }
}

TEST(PropagateTest, MassConservedWithoutAbsorption) {
  // A non-absorbing (PPR) walk on a directed cycle keeps all of its
  // mass: it sits on node (3 + i) mod 11 at step i with probability
  // exactly 1, so every target collects the closed-form visit sum.
  Graph g = CycleGraph(11);
  const DhtParams p = DhtParams::PersonalizedPageRank(0.7);
  const int d = 25;
  for (PropagationMode mode : kModes) {
    ForwardWalkerBatch batch(g, {.mode = mode, .num_threads = 1});
    const ExtNodeId source(3);
    for (NodeId v = 0; v < 11; ++v) {
      if (v == 3) continue;
      double expect = p.beta;
      double lambda_pow = 1.0;
      for (int i = 1; i <= d; ++i) {
        lambda_pow *= p.lambda;
        if ((3 + i) % 11 == v) expect += p.alpha * lambda_pow;
      }
      const ExtNodeId target(v);
      EXPECT_NEAR(batch.Run(p, d, {&source, 1}, {&target, 1})[0], expect,
                  1e-12)
          << "v=" << v << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(PropagateTest, ForwardRunsReuseWorkspaceCleanly) {
  Graph g = TwoCommunityGraph();
  const DhtParams p = DhtParams::Lambda(0.2);
  ForwardWalkerBatch batch(g, {.num_threads = 1});
  const ExtNodeId a(0), b(5), target(9);
  const double first = batch.Run(p, 6, {&a, 1}, {&target, 1})[0];
  batch.Run(p, 6, {&b, 1}, {&target, 1});  // dirty the workspace
  EXPECT_EQ(batch.Run(p, 6, {&a, 1}, {&target, 1})[0], first);
}

// ------------------------------------------------- batched evaluator

TEST(BackwardWalkerBatchTest, MatchesDenseReferenceLoop) {
  // batch(T, S) == the dense reference per target, bit for bit, for
  // target counts that exercise full and partial lane blocks.
  Graph g = RandomGraph(50, 160, 34, true, true);
  std::vector<ExtNodeId> sources;
  for (NodeId u = 0; u < 20; ++u) sources.push_back(ExtNodeId(u));
  for (const DhtParams& p : Semantics()) {
    for (std::size_t num_targets : {1u, 7u, 8u, 9u, 30u}) {
      std::vector<ExtNodeId> targets;
      for (std::size_t i = 0; i < num_targets; ++i) {
        targets.push_back(ExtNodeId(static_cast<NodeId>((i * 3 + 10) % 50)));
      }
      BackwardWalkerBatch batch(g);
      std::vector<double> got = batch.Run(p, 8, targets, sources);
      ASSERT_EQ(got.size(), targets.size() * sources.size());
      for (std::size_t t = 0; t < targets.size(); ++t) {
        const std::vector<double> want =
            RefBackwardScores(g, p, 8, targets[t]);
        for (std::size_t s = 0; s < sources.size(); ++s) {
          EXPECT_EQ(got[t * sources.size() + s],
                    want[static_cast<std::size_t>(sources[s].value())])
              << "first_hit=" << p.first_hit << " T=" << num_targets
              << " t=" << t << " s=" << s;
        }
      }
    }
  }
}

TEST(BackwardWalkerBatchTest, DuplicateTargetsShareALaneRow) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> targets = {ExtNodeId(7), ExtNodeId(7), ExtNodeId(2), ExtNodeId(7)};  // dups in a block
  std::vector<ExtNodeId> sources = {ExtNodeId(0), ExtNodeId(1), ExtNodeId(3), ExtNodeId(9)};
  BackwardWalkerBatch batch(g);
  std::vector<double> got = batch.Run(p, 6, targets, sources);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::vector<double> want = RefBackwardScores(g, p, 6, targets[t]);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      EXPECT_EQ(got[t * sources.size() + s],
                want[static_cast<std::size_t>(sources[s].value())]);
    }
  }
}

TEST(BackwardWalkerBatchTest, ThreadCountDoesNotChangeResults) {
  Graph g = RandomGraph(60, 200, 35);
  DhtParams p = DhtParams::Lambda(0.4);
  std::vector<ExtNodeId> targets;
  for (NodeId q = 0; q < 40; ++q) targets.push_back(ExtNodeId(q));
  std::vector<ExtNodeId> sources = {ExtNodeId(41), ExtNodeId(45), ExtNodeId(50), ExtNodeId(59)};
  BackwardWalkerBatch one(g, {.num_threads = 1});
  BackwardWalkerBatch four(g, {.num_threads = 4});
  std::vector<double> a = one.Run(p, 8, targets, sources);
  std::vector<double> b = four.Run(p, 8, targets, sources);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Blocks are deterministic regardless of which worker runs them.
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "i=" << i;
  }
  EXPECT_EQ(one.edges_relaxed(), four.edges_relaxed());
}

TEST(BackwardWalkerBatchTest, DenseModeMatchesAdaptive) {
  Graph g = RandomGraph(40, 120, 36);
  DhtParams p = DhtParams::Exponential();
  std::vector<ExtNodeId> targets = {ExtNodeId(0), ExtNodeId(5), ExtNodeId(9), ExtNodeId(13),
                                    ExtNodeId(17), ExtNodeId(21), ExtNodeId(25), ExtNodeId(29),
                                    ExtNodeId(33)};
  std::vector<ExtNodeId> sources = {ExtNodeId(2), ExtNodeId(3), ExtNodeId(4), ExtNodeId(38)};
  BackwardWalkerBatch dense(g, {.mode = PropagationMode::kDense});
  BackwardWalkerBatch adaptive(g, {.mode = PropagationMode::kAdaptive});
  std::vector<double> a = dense.Run(p, 8, targets, sources);
  std::vector<double> b = adaptive.Run(p, 8, targets, sources);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], kTol);
  }
  EXPECT_LE(adaptive.edges_relaxed(), dense.edges_relaxed());
}

TEST(BackwardWalkerBatchTest, RunChunkedMatchesSingleRunAcrossSlices) {
  // Forcing a 3-target slice exercises the multi-chunk path the joins
  // rely on for all-pairs memory bounding.
  Graph g = RandomGraph(40, 120, 37);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> targets = {ExtNodeId(0), ExtNodeId(4), ExtNodeId(8), ExtNodeId(12),
                                    ExtNodeId(16), ExtNodeId(20), ExtNodeId(24), ExtNodeId(28),
                                    ExtNodeId(32), ExtNodeId(36)};
  std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(3), ExtNodeId(39)};
  BackwardWalkerBatch batch(g);
  std::vector<double> whole = batch.Run(p, 8, targets, sources);
  std::vector<double> chunked(whole.size(), 0.0);
  std::vector<int> rows_seen(targets.size(), 0);
  batch.RunChunked(
      p, 8, targets, sources,
      [&](std::size_t t, const double* row) {
        rows_seen[t]++;
        std::copy(row, row + sources.size(), &chunked[t * sources.size()]);
      },
      /*max_targets_per_run=*/3);
  for (int seen : rows_seen) EXPECT_EQ(seen, 1);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_DOUBLE_EQ(chunked[i], whole[i]) << "i=" << i;
  }
}

TEST(BackwardWalkerBatchTest, RepeatedRunsReuseStatesCleanly) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  std::vector<ExtNodeId> targets = {ExtNodeId(0), ExtNodeId(5)};
  std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(9)};
  BackwardWalkerBatch batch(g, {.num_threads = 1});
  std::vector<double> first = batch.Run(p, 8, targets, sources);
  batch.Run(p, 3, {&targets[1], 1}, sources);  // perturb the workspace
  std::vector<double> again = batch.Run(p, 8, targets, sources);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], again[i]);
  }
}

// ------------------------------------------------------- thread pool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 3}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(static_cast<int64_t>(hits.size()),
                     [&](int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, WaitDrainsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done] { done++; });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace dhtjoin
