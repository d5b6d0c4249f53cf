/// \file tests/walkers_test.cc
/// \brief The forward and backward walk engines and the dense reference
/// loops vs the path-enumeration oracle, plus the analytic invariants
/// of h_d.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dht/backward_batch.h"
#include "dht/forward_batch.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::CycleGraph;
using testing::PathGraph;
using testing::RandomGraph;
using testing::RefBackwardScores;
using testing::RefFirstHitProb;
using testing::RefForwardScore;
using testing::RefHd;
using testing::StarGraph;
using testing::TwoCommunityGraph;

/// h_d(u, v) from the forward engine (one single-lane walk).
double EngineForward(const Graph& g, const DhtParams& p, int d, NodeId u,
                     NodeId v) {
  ForwardWalkerBatch batch(g, {.num_threads = 1});
  const ExtNodeId source(u);
  const ExtNodeId target(v);
  return batch.Run(p, d, {&source, 1}, {&target, 1})[0];
}

/// h_d(u, q) for every node u (external order) from the backward engine.
std::vector<double> EngineBackward(const Graph& g, const DhtParams& p, int d,
                                   NodeId q) {
  BackwardWalkerBatch batch(g, {.num_threads = 1});
  std::vector<ExtNodeId> all;
  for (NodeId u = 0; u < g.num_nodes(); ++u) all.emplace_back(u);
  const ExtNodeId target(q);
  return batch.Run(p, d, {&target, 1}, all);
}

std::vector<double> HitProbs(const Graph& g, const DhtParams& p, int d,
                             NodeId u, NodeId v) {
  std::vector<double> hits;
  RefForwardScore(g, p, d, ExtNodeId(u), ExtNodeId(v), &hits);
  return hits;
}

// --------------------------------------------------- analytic examples

TEST(ForwardWalkTest, PathGraphExactValues) {
  // On 0->1->2, P_i(0,2) = 1 exactly at i = 2; h_d = a*l^2 + b for d >= 2.
  Graph g = PathGraph(3);
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_DOUBLE_EQ(EngineForward(g, p, 1, 0, 2), p.beta);
  double expect = p.alpha * p.lambda * p.lambda + p.beta;
  EXPECT_DOUBLE_EQ(EngineForward(g, p, 2, 0, 2), expect);
  // No longer paths exist past depth 2.
  EXPECT_DOUBLE_EQ(EngineForward(g, p, 8, 0, 2), expect);
}

TEST(ForwardWalkTest, CycleFirstReturnIsExactlyN) {
  // On a directed n-cycle the walk returns to its start at step n with
  // probability 1 and never earlier; first-hit at the predecessor takes
  // n-1 steps.
  Graph g = CycleGraph(5);
  std::vector<double> hits = HitProbs(g, DhtParams::Lambda(0.5), 8, 0, 4);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_DOUBLE_EQ(hits[static_cast<std::size_t>(i) - 1],
                     i == 4 ? 1.0 : 0.0);
  }
}

TEST(ForwardWalkTest, StarHubOscillation) {
  // From leaf 1 of a star: step 1 reaches hub w.p. 1. First-hit on leaf
  // 2 happens at even steps: P_2 = 1/(n-1), P_4 = (n-2)/(n-1) * 1/(n-1).
  Graph g = StarGraph(4);  // hub 0, leaves 1..3
  std::vector<double> hits = HitProbs(g, DhtParams::Exponential(), 4, 1, 2);
  EXPECT_DOUBLE_EQ(hits[0], 0.0);
  EXPECT_NEAR(hits[1], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(hits[2], 0.0);
  EXPECT_NEAR(hits[3], (2.0 / 3.0) * (1.0 / 3.0), 1e-12);
}

// ------------------------------------------------ oracle cross-checks

TEST(ForwardWalkTest, MatchesPathEnumerationOracle) {
  Graph g = TwoCommunityGraph();
  const DhtParams p = DhtParams::Lambda(0.2);
  const int d = 6;
  for (NodeId u : {0, 3, 7}) {
    for (NodeId v : {2, 5, 9}) {
      if (u == v) continue;
      std::vector<double> hits = HitProbs(g, p, d, u, v);
      for (int i = 1; i <= d; ++i) {
        EXPECT_NEAR(hits[static_cast<std::size_t>(i) - 1],
                    RefFirstHitProb(g, u, v, i), 1e-10)
            << "u=" << u << " v=" << v << " i=" << i;
      }
      // The engine sums in the dense reference's order: bit-identical.
      EXPECT_EQ(EngineForward(g, p, d, u, v),
                RefForwardScore(g, p, d, ExtNodeId(u), ExtNodeId(v)))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(BackwardWalkTest, MatchesPathEnumerationOracle) {
  Graph g = TwoCommunityGraph();
  const int d = 6;
  DhtParams p = DhtParams::Lambda(0.3);
  for (NodeId v : {2, 5, 9}) {
    std::vector<double> engine = EngineBackward(g, p, d, v);
    std::vector<double> dense = RefBackwardScores(g, p, d, ExtNodeId(v));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == v) continue;
      const auto ui = static_cast<std::size_t>(u);
      EXPECT_NEAR(dense[ui], RefHd(g, p, d, u, v), 1e-10)
          << "u=" << u << " v=" << v;
      EXPECT_EQ(engine[ui], dense[ui]) << "u=" << u << " v=" << v;
    }
  }
}

struct WalkerSweepCase {
  uint64_t seed;
  bool weighted;
  double lambda;  // 0 = use DHTe
};

class WalkerAgreement : public ::testing::TestWithParam<WalkerSweepCase> {};

TEST_P(WalkerAgreement, ForwardEqualsBackward) {
  const auto& c = GetParam();
  Graph g = RandomGraph(30, 80, c.seed, /*undirected=*/true, c.weighted);
  DhtParams p = c.lambda > 0 ? DhtParams::Lambda(c.lambda)
                             : DhtParams::Exponential();
  const int d = 8;
  for (NodeId v : {0, 7, 19}) {
    std::vector<double> backward = EngineBackward(g, p, d, v);
    EXPECT_EQ(backward, RefBackwardScores(g, p, d, ExtNodeId(v)));
    for (NodeId u : {1, 3, 11, 25}) {
      if (u == v) continue;
      const double forward = EngineForward(g, p, d, u, v);
      EXPECT_EQ(forward, RefForwardScore(g, p, d, ExtNodeId(u), ExtNodeId(v)));
      EXPECT_NEAR(forward, backward[static_cast<std::size_t>(u)], 1e-10)
          << "u=" << u << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WalkerAgreement,
    ::testing::Values(WalkerSweepCase{11, false, 0.2},
                      WalkerSweepCase{12, true, 0.2},
                      WalkerSweepCase{13, false, 0.6},
                      WalkerSweepCase{14, true, 0.8},
                      WalkerSweepCase{15, true, 0.0},   // DHTe
                      WalkerSweepCase{16, false, 0.0}));

// ----------------------------------------------------- h_d invariants

TEST(WalkerInvariants, ScoreMonotoneInD) {
  Graph g = RandomGraph(25, 60, 21);
  DhtParams p = DhtParams::Lambda(0.4);
  double prev = -1e100;
  for (int d = 1; d <= 10; ++d) {
    double s = EngineBackward(g, p, d, 5)[17];
    EXPECT_GE(s, prev - 1e-15);
    prev = s;
  }
}

TEST(WalkerInvariants, ScoresWithinFloorAndCeiling) {
  Graph g = RandomGraph(25, 60, 22, true, true);
  for (double lambda : {0.2, 0.8}) {
    DhtParams p = DhtParams::Lambda(lambda);
    std::vector<double> scores = EngineBackward(g, p, 10, 3);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == 3) continue;
      EXPECT_GE(scores[static_cast<std::size_t>(u)], p.FloorScore());
      EXPECT_LE(scores[static_cast<std::size_t>(u)], p.MaxScore() + 1e-12);
    }
  }
}

TEST(WalkerInvariants, FirstHitProbsFormSubDistribution) {
  // Sum over i of P_i(u, v) <= 1 (the walk may never hit v).
  Graph g = TwoCommunityGraph();
  const int steps = 300;  // two sparse bridges: mixing is slow
  std::vector<double> hits = HitProbs(g, DhtParams::Lambda(0.2), steps, 0, 9);
  double total = 0.0;
  for (double h : hits) total += h;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.9);  // connected graph: the walk almost surely hits
}

TEST(WalkerInvariants, DhtLambdaRecurrenceHolds) {
  // Eq. 2: DHT_l(u, v) = -1 + l * sum_w p_uw DHT_l(w, v), checked on
  // deeply truncated scores (truncation error < 1e-9 by Lemma 1).
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.3);
  int d = p.StepsForEpsilon(1e-10);
  const NodeId v = 6;
  std::vector<double> scores = EngineBackward(g, p, d, v);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == v) continue;
    double rhs = -1.0;
    for (const OutEdge& e : g.OutEdges(IntNodeId(u))) {
      // DHT(v, v) = 0; fresh fixture, so internal == external ids.
      double hw = e.to == v ? 0.0 : scores[static_cast<std::size_t>(e.to)];
      rhs += p.lambda * e.prob * hw;
    }
    EXPECT_NEAR(scores[static_cast<std::size_t>(u)], rhs, 1e-8)
        << "u=" << u;
  }
}

TEST(WalkerInvariants, SinkNodeNeverReachesAnything) {
  // Node 2 of the path graph has no out-edges.
  Graph g = PathGraph(3);
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_DOUBLE_EQ(EngineForward(g, p, 8, 2, 0), p.beta);
}

TEST(WalkerInvariants, AbsorptionStopsMassAtTarget) {
  // 0 -> 1 -> 2 -> 3, absorbed at 1: the walk hits 1 at step 1 with
  // probability 1 and the absorbed mass never re-emits.
  Graph g = PathGraph(4);
  std::vector<double> hits = HitProbs(g, DhtParams::Lambda(0.5), 5, 0, 1);
  EXPECT_DOUBLE_EQ(hits[0], 1.0);
  for (int i = 2; i <= 5; ++i) {
    EXPECT_DOUBLE_EQ(hits[static_cast<std::size_t>(i) - 1], 0.0);
  }
}

TEST(WalkerInvariants, ResumableAdvanceMatchesOneShot) {
  Graph g = RandomGraph(25, 70, 23);
  DhtParams p = DhtParams::Lambda(0.5);
  std::vector<ExtNodeId> all;
  for (NodeId u = 0; u < g.num_nodes(); ++u) all.emplace_back(u);
  const ExtNodeId target(4);
  const std::size_t slot = 0;
  BackwardWalkerBatch batch(g, {.num_threads = 1});
  BackwardBatchStates states(1);
  std::vector<double> resumed;
  auto keep = [&](std::size_t, const double* row) {
    resumed.assign(row, row + all.size());
  };
  EXPECT_EQ(batch.AdvanceChunked(p, 3, {&target, 1}, {&slot, 1}, all, states,
                                 keep),
            1);
  EXPECT_EQ(batch.AdvanceChunked(p, 8, {&target, 1}, {&slot, 1}, all, states,
                                 keep),
            0);  // resumed
  EXPECT_EQ(states.level(slot), 8);
  EXPECT_EQ(resumed, EngineBackward(g, p, 8, 4));
}

TEST(WalkerInvariants, ResetReusesWorkspaceCleanly) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  BackwardWalkerBatch batch(g, {.num_threads = 1});
  const ExtNodeId first(0), second(5), source(9);
  const double before = batch.Run(p, 8, {&first, 1}, {&source, 1})[0];
  batch.Run(p, 8, {&second, 1}, {&source, 1});  // different target
  EXPECT_EQ(batch.Run(p, 8, {&first, 1}, {&source, 1})[0], before);
}

TEST(WalkerInvariants, WeightsChangeScores) {
  // Heavier edge => higher transition probability => higher DHT.
  GraphBuilder b1(3), b2(3);
  ASSERT_TRUE(b1.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b1.AddEdge(0, 2, 1.0).ok());
  ASSERT_TRUE(b2.AddEdge(0, 1, 9.0).ok());
  ASSERT_TRUE(b2.AddEdge(0, 2, 1.0).ok());
  Graph even = std::move(b1.Build()).value();
  Graph skew = std::move(b2.Build()).value();
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_LT(EngineForward(even, p, 4, 0, 1), EngineForward(skew, p, 4, 0, 1));
}

}  // namespace
}  // namespace dhtjoin
