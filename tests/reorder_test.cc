/// \file tests/reorder_test.cc
/// \brief Cache-conscious relayout (graph/reorder.h) property tests.
///
/// The load-bearing claims (DESIGN.md §7):
///  1. Reordering is a pure physical optimization — every engine and
///     join returns BYTE-identical scores and rankings on a reordered
///     graph (under the external-id remap carried by the Graph).
///  2. The reachability-restricted dense sweep is exact — identical
///     bits to the full sweep — and strictly cheaper on
///     saturated-but-local walks.
///  3. The serving cache can never alias payloads across layouts
///     (layout-epoch-aware GraphFingerprint), even when two layouts'
///     CSR bits coincide.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "core/nl_join.h"
#include "core/partial_join.h"
#include "datasets/perturb.h"
#include "dht/backward_batch.h"
#include "dht/forward_batch.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/reorder.h"
#include "join2/b_bj.h"
#include "join2/b_idj.h"
#include "join2/f_bj.h"
#include "join2/f_idj.h"
#include "join2/incremental.h"
#include "serve/score_cache.h"
#include "serve/session.h"
#include "testing/reference.h"
#include "util/rng.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::RefBackwardScores;
using testing::RefForwardScore;

/// Graph of `clusters` mutually unreachable random clusters of
/// `cluster_nodes` nodes — the restricted sweep's home turf.
Graph ClusteredGraph(int clusters, NodeId cluster_nodes,
                     int64_t edges_per_cluster, uint64_t seed) {
  GraphBuilder b(clusters * cluster_nodes, /*undirected=*/true);
  Rng rng(seed);
  for (int c = 0; c < clusters; ++c) {
    const NodeId base = c * cluster_nodes;
    int64_t added = 0;
    while (added < edges_per_cluster) {
      auto u = base + static_cast<NodeId>(
                          rng.Below(static_cast<uint64_t>(cluster_nodes)));
      auto v = base + static_cast<NodeId>(
                          rng.Below(static_cast<uint64_t>(cluster_nodes)));
      if (u == v) continue;
      if (!b.AddEdge(u, v, 1.0 + static_cast<double>(rng.Below(4))).ok()) {
        continue;
      }
      ++added;
    }
  }
  auto g = b.Build();
  DHTJOIN_CHECK(g.ok());
  return std::move(g).value();
}

Graph Reordered(const Graph& g, ReorderKind kind) {
  auto r = ReorderGraph(g, kind);
  DHTJOIN_CHECK(r.ok());
  return std::move(r).value();
}

TEST(ReorderTest, PermutationsAreValidAndRemapInverts) {
  Graph g = RandomGraph(80, 240, 9, true, true);
  for (ReorderKind kind : {ReorderKind::kDegree, ReorderKind::kRcm}) {
    Graph rg = Reordered(g, kind);
    ASSERT_EQ(rg.num_nodes(), g.num_nodes());
    ASSERT_EQ(rg.num_edges(), g.num_edges());
    EXPECT_TRUE(rg.is_reordered());
    EXPECT_NE(rg.layout_epoch(), 0u);
    std::vector<bool> hit(static_cast<std::size_t>(g.num_nodes()), false);
    for (NodeId u = 0; u < rg.num_nodes(); ++u) {
      const IntNodeId iu = IntNodeId(u);
      ExtNodeId ext = rg.ToExternal(iu);
      ASSERT_TRUE(rg.ContainsNode(ext));
      EXPECT_EQ(rg.ToInternal(ext).value(), u);
      EXPECT_FALSE(hit[static_cast<std::size_t>(ext.value())]);
      hit[static_cast<std::size_t>(ext.value())] = true;
      // Structure is preserved under the remap: same degrees, weights.
      // `g` is insertion-ordered, so its internal ids ARE external ids.
      EXPECT_EQ(rg.OutDegree(iu), g.OutDegree(IntNodeId(ext.value())));
      EXPECT_EQ(rg.InDegree(iu), g.InDegree(IntNodeId(ext.value())));
      auto row = rg.OutEdges(iu);
      auto weights = rg.OutWeights(iu);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const IntNodeId gu = g.ToInternal(ext);
        const IntNodeId gv = g.ToInternal(rg.ToExternal(IntNodeId(row[i].to)));
        EXPECT_EQ(g.EdgeWeight(gu, gv), weights[i]);
        EXPECT_EQ(g.HasEdge(gu, gv), rg.HasEdge(iu, IntNodeId(row[i].to)));
      }
    }
  }
  // Degree layout: hubs first.
  Graph dg = Reordered(g, ReorderKind::kDegree);
  for (NodeId u = 0; u + 1 < dg.num_nodes(); ++u) {
    EXPECT_GE(dg.Degree(IntNodeId(u)), dg.Degree(IntNodeId(u + 1)));
  }
}

TEST(ReorderTest, RejectsNonPermutations) {
  Graph g = RandomGraph(10, 20, 3);
  std::vector<NodeId> bad(static_cast<std::size_t>(g.num_nodes()), 0);
  EXPECT_FALSE(ApplyNodePermutation(g, bad).ok());
  bad.resize(3);
  EXPECT_FALSE(ApplyNodePermutation(g, bad).ok());
}

TEST(ReorderTest, ReorderOfReorderedComposesToOriginalExternalIds) {
  Graph g = RandomGraph(60, 200, 11, true, true);
  Graph once = Reordered(g, ReorderKind::kDegree);
  Graph twice = Reordered(once, ReorderKind::kRcm);
  // External ids still mean construction-time ids after two relayouts.
  for (NodeId ext = 0; ext < g.num_nodes(); ++ext) {
    IntNodeId u = twice.ToInternal(ExtNodeId(ext));
    EXPECT_EQ(twice.ToExternal(u).value(), ext);
    EXPECT_EQ(twice.Degree(u), g.Degree(g.ToInternal(ExtNodeId(ext))));
  }
  // RCM of an RCM-equivalent layout equals RCM of the original: the
  // permutation is computed over canonical ids, not layout ids.
  Graph direct = Reordered(g, ReorderKind::kRcm);
  EXPECT_EQ(direct.layout_epoch(), twice.layout_epoch());
}

std::vector<ExtNodeId> AllNodes(const Graph& g) {
  std::vector<ExtNodeId> all;
  for (NodeId u = 0; u < g.num_nodes(); ++u) all.emplace_back(u);
  return all;
}

TEST(ReorderTest, EnginesBitIdenticalAcrossLayoutsAndModes) {
  Graph g = RandomGraph(120, 500, 21, true, true);
  Graph deg = Reordered(g, ReorderKind::kDegree);
  Graph rcm = Reordered(g, ReorderKind::kRcm);
  const DhtParams p = DhtParams::Lambda(0.3);
  const std::vector<ExtNodeId> all = AllNodes(g);
  const std::vector<ExtNodeId> probes = {ExtNodeId(5), ExtNodeId(40),
                                         ExtNodeId(99)};
  for (NodeId seed : {0, 17, 63, 119}) {
    const ExtNodeId q(seed);
    const std::vector<double> backward = RefBackwardScores(g, p, 6, q);
    std::vector<double> forward;
    for (ExtNodeId v : probes) {
      forward.push_back(RefForwardScore(g, p, 6, q, v));
    }
    for (const Graph* other : {&g, &deg, &rcm}) {
      for (auto mode : {PropagationMode::kDense, PropagationMode::kSparse,
                        PropagationMode::kAdaptive}) {
        // Bit-identical, not approximately equal.
        BackwardWalkerBatch bw(*other, {.mode = mode, .num_threads = 1});
        ASSERT_EQ(bw.Run(p, 6, {&q, 1}, all), backward) << "seed=" << seed;
        ForwardWalkerBatch fw(*other, {.mode = mode, .num_threads = 1});
        ASSERT_EQ(fw.Run(p, 6, {&q, 1}, probes), forward) << "seed=" << seed;
      }
    }
  }
}

TEST(ReorderTest, AllTwoWayJoinsByteIdenticalOnReorderedGraph) {
  Graph g = RandomGraph(70, 260, 33, true, true);
  DhtParams params = DhtParams::Lambda(0.3);
  const int d = 6;
  NodeSet P = Range("P", 0, 28);
  NodeSet Q = Range("Q", 24, 52);
  const std::size_t k = 25;

  BIdjJoin bidj_y(BIdjJoin::Options{UpperBoundKind::kY});
  BIdjJoin bidj_x(BIdjJoin::Options{UpperBoundKind::kX});
  BBjJoin bbj;
  FBjJoin fbj;
  FIdjJoin fidj;
  std::vector<TwoWayJoin*> joins = {&bidj_y, &bidj_x, &bbj, &fbj, &fidj};

  for (ReorderKind kind : {ReorderKind::kDegree, ReorderKind::kRcm}) {
    Graph rg = Reordered(g, kind);
    for (TwoWayJoin* join : joins) {
      auto want = join->Run(g, params, d, P, Q, k);
      auto got = join->Run(rg, params, d, P, Q, k);
      ASSERT_TRUE(want.ok() && got.ok()) << join->Name();
      // ScoredPair::operator== compares scores EXACTLY: byte-identical
      // results including ranking and tie-breaks.
      EXPECT_EQ(*want, *got) << join->Name() << " on " << ReorderKindName(kind);
    }
  }
}

TEST(ReorderTest, IncrementalEnumeratorByteIdenticalOnReorderedGraph) {
  Graph g = RandomGraph(50, 170, 41, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  DhtParams params = DhtParams::Lambda(0.25);
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 15, 40);
  auto a = IncrementalTwoWayJoin::Create(g, params, 5, P, Q, 10);
  auto b = IncrementalTwoWayJoin::Create(rg, params, 5, P, Q, 10);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < 40; ++i) {
    auto pa = (*a)->Next();
    auto pb = (*b)->Next();
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (!pa.has_value()) break;
    EXPECT_EQ(*pa, *pb) << "pair " << i;
  }
}

TEST(ReorderTest, NwayJoinsByteIdenticalOnReorderedGraph) {
  Graph g = RandomGraph(40, 150, 55, true, true);
  Graph rg = Reordered(g, ReorderKind::kRcm);
  DhtParams params = DhtParams::Lambda(0.3);
  QueryGraph query;
  int a = query.AddNodeSet(Range("A", 0, 12));
  int b = query.AddNodeSet(Range("B", 10, 24));
  int c = query.AddNodeSet(Range("C", 20, 34));
  ASSERT_TRUE(query.AddEdge(a, b).ok());
  ASSERT_TRUE(query.AddBidirectionalEdge(b, c).ok());
  MinAggregate min_f;

  PartialJoin pji(PartialJoin::Options{.m = 20, .incremental = true});
  NestedLoopJoin nl;
  for (NwayJoin* join : std::initializer_list<NwayJoin*>{&pji, &nl}) {
    auto want = join->Run(g, params, 5, query, min_f, 12);
    auto got = join->Run(rg, params, 5, query, min_f, 12);
    ASSERT_TRUE(want.ok() && got.ok()) << join->Name();
    ASSERT_EQ(want->size(), got->size()) << join->Name();
    for (std::size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].nodes, (*got)[i].nodes) << join->Name();
      EXPECT_EQ((*want)[i].f, (*got)[i].f) << join->Name();
    }
  }
}

TEST(ReorderTest, RestrictedSweepBitIdenticalAndCheaper) {
  // 4 clusters of 50 nodes; a walk saturates its own cluster quickly.
  Graph g = ClusteredGraph(4, 50, 300, 77);
  ASSERT_GT(g.Reachability().num_components(), 1);

  // Single walks in both directions: identical bits, ~1/4 of the edge
  // bill (the restricted plan covers one cluster).
  const DhtParams lambda = DhtParams::Lambda(0.2);
  const ExtNodeId seed(7);
  const std::vector<ExtNodeId> all = AllNodes(g);
  BackwardWalkerBatch bw_on(g, {.mode = PropagationMode::kDense,
                                .num_threads = 1});
  BackwardWalkerBatch bw_off(g, {.mode = PropagationMode::kDense,
                                 .num_threads = 1,
                                 .restrict_dense = false});
  ASSERT_EQ(bw_on.Run(lambda, 6, {&seed, 1}, all),
            bw_off.Run(lambda, 6, {&seed, 1}, all));
  EXPECT_LT(bw_on.edges_relaxed(), bw_off.edges_relaxed() / 2);
  ForwardWalkerBatch fw_on(g, {.mode = PropagationMode::kDense,
                               .num_threads = 1});
  ForwardWalkerBatch fw_off(g, {.mode = PropagationMode::kDense,
                                .num_threads = 1,
                                .restrict_dense = false});
  const std::vector<ExtNodeId> probes = {ExtNodeId(3), ExtNodeId(21)};
  ASSERT_EQ(fw_on.Run(lambda, 6, {&seed, 1}, probes),
            fw_off.Run(lambda, 6, {&seed, 1}, probes));
  EXPECT_LT(fw_on.edges_relaxed(), fw_off.edges_relaxed() / 2);

  // Full lane blocks: same rows, restricted vs full. The targets share a
  // lane block AND a cluster, so the block's union plan stays local
  // (lanes from different components would widen it to their union).
  std::vector<ExtNodeId> targets = {ExtNodeId(3),  ExtNodeId(11),
                                    ExtNodeId(19), ExtNodeId(27),
                                    ExtNodeId(35), ExtNodeId(43)};
  std::vector<ExtNodeId> sources;
  for (NodeId p = 0; p < 200; p += 7) sources.push_back(ExtNodeId(p));
  BackwardWalkerBatch on(g, {.mode = PropagationMode::kDense});
  BackwardWalkerBatch off(g, {.mode = PropagationMode::kDense,
                              .restrict_dense = false});
  auto rows_on = on.Run(lambda, 6, targets, sources);
  auto rows_off = off.Run(lambda, 6, targets, sources);
  ASSERT_EQ(rows_on.size(), rows_off.size());
  for (std::size_t i = 0; i < rows_on.size(); ++i) {
    ASSERT_EQ(rows_on[i], rows_off[i]);
  }
  EXPECT_LT(on.edges_relaxed(), off.edges_relaxed() / 2);

  // The adaptive policy flips a saturated-but-local walk to the
  // restricted dense sweep: half a cluster's frontier already outweighs
  // the cluster's own dense cost, while against the old global
  // threshold it would have stayed sparse and paid the frontier penalty
  // forever.
  const NodeId start = g.ToInternal(seed).value();
  const SweepPlan local = g.PlanDenseSweep({&start, 1});
  EXPECT_FALSE(local.full);
  const ReachIndex& reach = g.Reachability();
  std::span<const NodeId> cluster = reach.Nodes(reach.comp_of[start]);
  std::span<const NodeId> half = cluster.first(cluster.size() / 2);
  int64_t frontier_edges = 0;
  for (NodeId u : half) frontier_edges += g.InDegree(IntNodeId(u));
  EXPECT_TRUE(FrontierPrefersDense(half.size(), frontier_edges, local.cost));
  EXPECT_FALSE(FrontierPrefersDense(half.size(), frontier_edges,
                                    g.FullSweepPlan().cost));

  // And the engine makes that flip against the restricted cost. Replayed
  // one level at a time, a step of an adaptive walk bills exactly its
  // plan's edges when it sweeps dense, and the kSparse walk's frontier
  // degrees (over the same bit-identical frontier) when it pushes. With
  // the restricted plan the walk goes dense a step earlier than with
  // the full-graph plan, whose cost the half-cluster frontier does not
  // yet outweigh.
  ASSERT_EQ(local.edges, bw_on.edges_relaxed() / 6);
  auto bill_per_step = [&](PropagationMode mode, bool restrict_dense) {
    std::vector<int64_t> steps;
    int64_t before = 0;
    for (int d = 1; d <= 8; ++d) {
      BackwardWalkerBatch walk(g, {.mode = mode,
                                   .num_threads = 1,
                                   .restrict_dense = restrict_dense});
      walk.Run(lambda, d, {&seed, 1}, all);
      steps.push_back(walk.edges_relaxed() - before);
      before = walk.edges_relaxed();
    }
    return steps;
  };
  const std::vector<int64_t> sparse =
      bill_per_step(PropagationMode::kSparse, true);
  // First dense step of an adaptive walk whose dense steps bill
  // `dense_edges`; every step must be one of the two kinds.
  auto first_dense_step = [&](bool restrict_dense, int64_t dense_edges) {
    const std::vector<int64_t> bills =
        bill_per_step(PropagationMode::kAdaptive, restrict_dense);
    std::size_t first = bills.size();
    for (std::size_t i = 0; i < bills.size(); ++i) {
      if (bills[i] == sparse[i]) continue;
      EXPECT_EQ(bills[i], dense_edges) << "step " << i + 1;
      first = std::min(first, i);
    }
    return first;
  };
  const std::size_t restricted_flip = first_dense_step(true, local.edges);
  const std::size_t full_flip = first_dense_step(false, g.num_edges());
  EXPECT_GT(restricted_flip, 0u);  // a one-node start pushes
  EXPECT_LT(restricted_flip, full_flip);
}

TEST(ReorderTest, RestrictedSweepOnReorderedClusteredGraph) {
  Graph g = ClusteredGraph(3, 40, 200, 99);
  Graph rg = Reordered(g, ReorderKind::kRcm);
  DhtParams params = DhtParams::Lambda(0.25);
  BackwardWalkerBatch a(g, {.num_threads = 1});
  BackwardWalkerBatch b(rg, {.num_threads = 1});
  const std::vector<ExtNodeId> all = AllNodes(g);
  for (NodeId q : {1, 45, 90}) {
    const ExtNodeId target(q);
    ASSERT_EQ(a.Run(params, 7, {&target, 1}, all),
              b.Run(params, 7, {&target, 1}, all))
        << "q=" << q;
  }
}

TEST(ReorderTest, PerturbModuleIsLayoutOblivious) {
  Graph g = RandomGraph(60, 220, 61, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  NodeSet P = Range("P", 0, 25);
  NodeSet Q = Range("Q", 20, 50);
  auto a = datasets::RemoveInterSetEdges(g, P, Q, 0.5, 9);
  auto b = datasets::RemoveInterSetEdges(rg, P, Q, 0.5, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  // Same external pairs removed, and the rebuilt graphs are the same
  // insertion-ordered graph bit-for-bit.
  ASSERT_EQ(a->removed.size(), b->removed.size());
  for (std::size_t i = 0; i < a->removed.size(); ++i) {
    EXPECT_EQ(a->removed[i], b->removed[i]);
  }
  EXPECT_EQ(serve::GraphFingerprint(a->graph),
            serve::GraphFingerprint(b->graph));

  auto ta = datasets::FindTriangles(g, P, Q, Q);
  auto tb = datasets::FindTriangles(rg, P, Q, Q);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].p, tb[i].p);
    EXPECT_EQ(ta[i].q, tb[i].q);
    EXPECT_EQ(ta[i].r, tb[i].r);
  }
}

TEST(ReorderTest, FingerprintSeparatesLayouts) {
  Graph g = RandomGraph(60, 200, 5, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  EXPECT_NE(serve::GraphFingerprint(g), serve::GraphFingerprint(rg));

  // The adversarial case: a rotation of a 4-cycle has IDENTICAL CSR
  // bits, but its internal ids mean different external nodes — the
  // layout epoch must keep the fingerprints apart.
  GraphBuilder b(4, /*undirected=*/true);
  for (NodeId u = 0; u < 4; ++u) {
    ASSERT_TRUE(b.AddEdge(u, (u + 1) % 4, 1.0).ok());
  }
  auto cycle = b.Build();
  ASSERT_TRUE(cycle.ok());
  std::vector<NodeId> rotate = {1, 2, 3, 0};
  auto rotated = ApplyNodePermutation(*cycle, rotate);
  ASSERT_TRUE(rotated.ok());
  // Same structural bits...
  for (NodeId u = 0; u < 4; ++u) {
    ASSERT_EQ(cycle->OutDegree(IntNodeId(u)), rotated->OutDegree(IntNodeId(u)));
  }
  // ...different meaning, different fingerprint.
  EXPECT_NE(serve::GraphFingerprint(*cycle),
            serve::GraphFingerprint(*rotated));
  EXPECT_NE(cycle->layout_epoch(), rotated->layout_epoch());
}

TEST(ReorderTest, SaveEdgeListWritesExternalIds) {
  Graph g = RandomGraph(50, 180, 13, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  std::string path = ::testing::TempDir() + "/reordered_graph.txt";
  ASSERT_TRUE(SaveEdgeList(rg, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  // The file means external ids: reloading recovers the insertion-
  // ordered graph bit-exactly (weights AND transition probabilities).
  EXPECT_EQ(serve::GraphFingerprint(g), serve::GraphFingerprint(*loaded));
  std::remove(path.c_str());
}

TEST(ReorderTest, ServingByteIdenticalAcrossLayoutsAndWarmth) {
  Graph g = RandomGraph(80, 300, 17, true, true);
  Graph rg = Reordered(g, ReorderKind::kDegree);
  DhtParams params = DhtParams::Lambda(0.3);
  const int d = 6;
  NodeSet P = Range("P", 0, 30);
  NodeSet Q = Range("Q", 25, 60);

  BIdjJoin reference(BIdjJoin::Options{UpperBoundKind::kY});
  auto want = reference.Run(g, params, d, P, Q, 20);
  ASSERT_TRUE(want.ok());

  serve::DhtJoinService cold(g, params, d);
  serve::DhtJoinService warm(rg, params, d);
  EXPECT_NE(cold.graph_fingerprint(), warm.graph_fingerprint());

  auto r1 = warm.TwoWay(P, Q, 20);  // cold on the reordered graph
  auto r2 = warm.TwoWay(P, Q, 20);  // warm resume from the cache
  auto r3 = cold.TwoWay(P, Q, 20);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(*want, *r1);
  EXPECT_EQ(*want, *r2);
  EXPECT_EQ(*want, *r3);
}

}  // namespace
}  // namespace dhtjoin
