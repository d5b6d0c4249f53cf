/// \file tests/bounds_test.cc
/// \brief The X/Y remainder bounds: Lemma 2, Theorem 1, and Lemma 5.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dht/bounds.h"
#include "graph/reorder.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::RefBackwardScores;
using testing::RefYBound;
using testing::TwoCommunityGraph;

class BoundsSweep : public ::testing::TestWithParam<double> {};

TEST_P(BoundsSweep, XBoundBracketsRemainder) {
  // Lemma 2: h(p,q) <= h_l(p,q) + X_l; since h_d <= h, also h_d.
  const double lambda = GetParam();
  Graph g = RandomGraph(40, 120, 31);
  DhtParams p = DhtParams::Lambda(lambda);
  const int d = 10;
  for (NodeId q : {0, 13, 29}) {
    const std::vector<double> full = RefBackwardScores(g, p, d, ExtNodeId(q));
    for (int l = 1; l <= d; l++) {
      const std::vector<double> partial =
          RefBackwardScores(g, p, l, ExtNodeId(q));
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (u == q) continue;
        const auto ui = static_cast<std::size_t>(u);
        EXPECT_LE(full[ui], partial[ui] + p.XBound(l) + 1e-12)
            << "q=" << q << " u=" << u << " l=" << l;
      }
    }
  }
}

TEST_P(BoundsSweep, YBoundBracketsRemainder) {
  // Theorem 1: h_d(p,q) <= h_l(p,q) + Y_l(P, q).
  const double lambda = GetParam();
  Graph g = RandomGraph(40, 120, 32);
  DhtParams p = DhtParams::Lambda(lambda);
  const int d = 10;
  NodeSet P = Range("P", 0, 12);
  NodeSet Q = Range("Q", 20, 32);
  YBoundTable ytable(g, p, d, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    ExtNodeId q = Q[qi];
    const std::vector<double> full = RefBackwardScores(g, p, d, q);
    for (int l = 1; l <= d; ++l) {
      const std::vector<double> partial = RefBackwardScores(g, p, l, q);
      for (ExtNodeId u : P) {
        if (u == q) continue;
        const auto ui = static_cast<std::size_t>(u.value());
        EXPECT_LE(full[ui], partial[ui] + ytable.Bound(l, qi) + 1e-12)
            << "q=" << q.value() << " u=" << u.value() << " l=" << l;
      }
    }
  }
}

TEST_P(BoundsSweep, Lemma5YNotLooserThanX) {
  const double lambda = GetParam();
  Graph g = RandomGraph(40, 120, 33);
  DhtParams p = DhtParams::Lambda(lambda);
  const int d = 10;
  NodeSet P = Range("P", 0, 12);
  NodeSet Q = Range("Q", 20, 32);
  YBoundTable ytable(g, p, d, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    for (int l = 0; l <= d; ++l) {
      EXPECT_LE(ytable.Bound(l, qi), p.XBound(l) + 1e-12)
          << "qi=" << qi << " l=" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, BoundsSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(BoundsTest, YBoundZeroAtFullDepth) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 5);
  NodeSet Q = Range("Q", 5, 10);
  YBoundTable ytable(g, p, 8, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    EXPECT_DOUBLE_EQ(ytable.Bound(8, qi), 0.0);
  }
}

TEST(BoundsTest, YBoundMonotoneDecreasingInL) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.5);
  NodeSet P = Range("P", 0, 5);
  NodeSet Q = Range("Q", 5, 10);
  YBoundTable ytable(g, p, 8, P, Q);
  for (std::size_t qi = 0; qi < Q.size(); ++qi) {
    for (int l = 0; l < 8; ++l) {
      EXPECT_GE(ytable.Bound(l, qi), ytable.Bound(l + 1, qi) - 1e-15);
    }
  }
}

TEST(BoundsTest, YBoundUnreachableTargetIsZero) {
  // Node 3 of the directed path 0->1->2->3 can never walk back to P, but
  // more importantly an ISOLATED target gets S_i == 0 and thus Y == 0:
  // the bound proves immediately that nothing more can arrive.
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  Graph g = std::move(b.Build()).value();  // nodes 3, 4 isolated
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 2);
  NodeSet Q("Q", {3, 4});
  YBoundTable ytable(g, p, 8, P, Q);
  for (std::size_t qi = 0; qi < 2; ++qi) {
    for (int l = 0; l <= 8; ++l) {
      EXPECT_DOUBLE_EQ(ytable.Bound(l, qi), 0.0);
    }
  }
}

TEST(BoundsTest, XUpperBoundFreeFunctionAgrees) {
  DhtParams p = DhtParams::Lambda(0.35);
  for (int l = 0; l < 6; ++l) {
    EXPECT_DOUBLE_EQ(XUpperBound(p, l), p.XBound(l));
  }
}

TEST(BoundsTest, YBoundChargesRealSweepCost) {
  // The construction sweep runs on the shared adaptive engine; its
  // edges_relaxed is what walk_steps gets charged. On a walk whose mass
  // stays inside a small component the sweep must cost far less than
  // the d dense passes the seed billed (d * |E|), and never more.
  Graph big = testing::RandomGraph(200, 800, 77);
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;
  {
    YBoundTable ytable(big, p, d, testing::Range("P", 0, 10),
                       testing::Range("Q", 50, 60));
    EXPECT_GT(ytable.edges_relaxed(), 0);
    EXPECT_LE(ytable.edges_relaxed(),
              static_cast<int64_t>(d) * big.num_edges());
  }
  // Two isolated edges: the sweep from P = {0} touches almost nothing,
  // so a flat d * |E| would overcount wildly.
  GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(2, 3).ok());
  ASSERT_TRUE(b.AddEdge(3, 2).ok());
  Graph tiny = std::move(b.Build()).value();
  YBoundTable ytable(tiny, p, d, NodeSet("P", std::vector<NodeId>{0}),
                     NodeSet("Q", std::vector<NodeId>{1}));
  EXPECT_LT(ytable.edges_relaxed(),
            static_cast<int64_t>(d) * tiny.num_edges());
}

TEST(BoundsTest, YBoundMatchesDenseSweepBitwiseInEveryLayout) {
  Graph g = RandomGraph(200, 800, 77);
  Graph rcm = std::move(ReorderGraph(g, ReorderKind::kRcm)).value();
  const NodeSet P = Range("P", 0, 10);
  const NodeSet Q = Range("Q", 50, 60);
  for (double lambda : {0.2, 0.8}) {
    const DhtParams p = DhtParams::Lambda(lambda);
    const auto want = RefYBound(g, p, 12, P, Q);
    for (const Graph* layout : {&g, &rcm}) {
      YBoundTable table(*layout, p, 12, P, Q);
      EXPECT_EQ(table.suffix_rows(), want) << "lambda=" << lambda;
    }
  }
}

TEST(BoundsTest, YBoundSweepBillsFrontierAndPlanEdges) {
  // Pinned work counters: a sparse step bills its frontier's
  // out-degrees, a dense one its weak-component plan's edges, and the
  // bill is layout-independent. The sweep's bill is charged to every
  // B-IDJ-Y and PJ-i walk_steps figure, so a change here is visible.
  Graph dense = RandomGraph(200, 800, 77);
  Graph rcm = std::move(ReorderGraph(dense, ReorderKind::kRcm)).value();
  const DhtParams p = DhtParams::Lambda(0.2);
  for (const Graph* layout : {&dense, &rcm}) {
    EXPECT_EQ(YBoundTable(*layout, p, 8, Range("P", 0, 10),
                          Range("Q", 50, 60))
                  .edges_relaxed(),
              11286);
    EXPECT_EQ(YBoundTable(*layout, p, 20, Range("P", 0, 10),
                          Range("Q", 50, 60))
                  .edges_relaxed(),
              30486);
  }
  Graph sparse = RandomGraph(300, 330, 5);
  EXPECT_EQ(YBoundTable(sparse, DhtParams::Lambda(0.5), 12, Range("P", 0, 3),
                        Range("Q", 100, 110))
                .edges_relaxed(),
            5933);
}

TEST(BoundsTest, YBoundCapsProbabilityAtOne) {
  // With many sources, sum_p S_i(p, q) can exceed 1; Theorem 1 clamps it.
  // On the star graph every leaf reaches the hub in one step, so
  // S_1(P, hub) = |P| but the Y bound must use min(., 1).
  Graph g = testing::StarGraph(12);
  DhtParams p = DhtParams::Lambda(0.5);
  NodeSet P = Range("P", 1, 11);  // 10 leaves
  NodeSet Q("Q", std::vector<NodeId>{0});
  const int d = 6;
  YBoundTable ytable(g, p, d, P, Q);
  // Uncapped would give alpha * (lambda * 10 + ...); capped is at most
  // alpha * sum_{i=1..d} lambda^i = X_0 truncated, which equals X_0 - X_d.
  EXPECT_LE(ytable.Bound(0, 0), p.XBound(0) - p.XBound(d) + 1e-12);
}

}  // namespace
}  // namespace dhtjoin
