/// \file tests/incremental_test.cc
/// \brief The resumable F-structure enumerator behind PJ-i: its output
/// must equal the full sorted join, one pair at a time, for every m.

#include <gtest/gtest.h>

#include "join2/incremental.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::RefTwoWayJoin;

struct IncCase {
  uint64_t seed;
  double lambda;  // 0 = DHTe
  std::size_t m;
  UpperBoundKind bound;
};

class IncrementalSweep : public ::testing::TestWithParam<IncCase> {};

TEST_P(IncrementalSweep, EnumeratesFullJoinInOrder) {
  const auto& c = GetParam();
  Graph g = RandomGraph(50, 150, c.seed, /*undirected=*/true,
                        /*weighted=*/(c.seed % 2) == 0);
  DhtParams p =
      c.lambda > 0 ? DhtParams::Lambda(c.lambda) : DhtParams::Exponential();
  const int d = 8;
  NodeSet P = Range("P", 0, 18);
  NodeSet Q = Range("Q", 24, 42);
  auto want = RefTwoWayJoin(g, p, d, P, Q, static_cast<std::size_t>(-1));

  auto join = IncrementalTwoWayJoin::Create(
      g, p, d, P, Q, c.m, IncrementalTwoWayJoin::Options{c.bound});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  std::vector<ScoredPair> got;
  while (auto next = (*join)->Next()) {
    got.push_back(*next);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9) << "rank " << i;
  }
  // Exhausted for good.
  EXPECT_FALSE((*join)->Next().has_value());
  EXPECT_EQ((*join)->num_returned(), want.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalSweep,
    ::testing::Values(
        IncCase{201, 0.2, 0, UpperBoundKind::kY},    // fully lazy
        IncCase{202, 0.2, 1, UpperBoundKind::kY},
        IncCase{203, 0.2, 25, UpperBoundKind::kY},
        IncCase{204, 0.2, 5000, UpperBoundKind::kY},  // m > pair space
        IncCase{205, 0.6, 25, UpperBoundKind::kY},
        IncCase{206, 0.8, 10, UpperBoundKind::kY},   // loose X regime
        IncCase{207, 0.2, 25, UpperBoundKind::kX},
        IncCase{208, 0.8, 25, UpperBoundKind::kX},
        IncCase{209, 0.0, 25, UpperBoundKind::kY},   // DHTe
        IncCase{210, 0.0, 0, UpperBoundKind::kX}));

TEST(IncrementalTest, PairsNeverRepeat) {
  Graph g = RandomGraph(40, 120, 211);
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 15),
                                            Range("Q", 20, 35), 10);
  ASSERT_TRUE(join.ok());
  std::set<uint64_t> seen;
  while (auto next = (*join)->Next()) {
    EXPECT_TRUE(seen.insert(PairKey(next->p, next->q)).second)
        << "duplicate pair (" << next->p << "," << next->q << ")";
  }
}

TEST(IncrementalTest, ScoresNonIncreasing) {
  Graph g = RandomGraph(40, 140, 212, true, true);
  DhtParams p = DhtParams::Lambda(0.5);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 15),
                                            Range("Q", 18, 38), 7);
  ASSERT_TRUE(join.ok());
  double prev = std::numeric_limits<double>::infinity();
  while (auto next = (*join)->Next()) {
    EXPECT_LE(next->score, prev + 1e-12);
    prev = next->score;
  }
}

TEST(IncrementalTest, ScoresAreExactDStepValues) {
  Graph g = RandomGraph(40, 120, 213);
  DhtParams p = DhtParams::Lambda(0.4);
  const int d = 8;
  auto join = IncrementalTwoWayJoin::Create(g, p, d, Range("P", 0, 15),
                                            Range("Q", 20, 35), 5);
  ASSERT_TRUE(join.ok());
  for (int i = 0; i < 20; ++i) {
    auto next = (*join)->Next();
    if (!next) break;
    EXPECT_EQ(next->score,
              testing::RefBackwardScores(g, p, d, ExtNodeId(next->q))
                  [static_cast<std::size_t>(next->p)]);
  }
}

TEST(IncrementalTest, EmptyResultWhenNothingReachable) {
  Graph g = testing::PathGraph(3);  // 0 -> 1 -> 2
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, NodeSet("P", {1, 2}),
                                            NodeSet("Q", std::vector<NodeId>{0}), 5);
  ASSERT_TRUE(join.ok());
  EXPECT_FALSE((*join)->Next().has_value());
}

TEST(IncrementalTest, SelfPairsSkippedWithOverlappingSets) {
  Graph g = testing::TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 7),
                                            Range("Q", 3, 10), 6);
  ASSERT_TRUE(join.ok());
  while (auto next = (*join)->Next()) {
    EXPECT_NE(next->p, next->q);
  }
}

TEST(IncrementalTest, InvalidInputsRejected) {
  Graph g = testing::TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  EXPECT_FALSE(IncrementalTwoWayJoin::Create(g, p, 0, Range("P", 0, 5),
                                             Range("Q", 5, 10), 5)
                   .ok());
  EXPECT_FALSE(IncrementalTwoWayJoin::Create(g, p, 8,
                                             NodeSet("E", std::vector<NodeId>{}),
                                             Range("Q", 5, 10), 5)
                   .ok());
}

TEST(IncrementalTest, LazyAndEagerAgree) {
  Graph g = RandomGraph(45, 130, 214);
  DhtParams p = DhtParams::Lambda(0.3);
  auto lazy = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 16),
                                            Range("Q", 20, 36), 0);
  auto eager = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 16),
                                             Range("Q", 20, 36), 40);
  ASSERT_TRUE(lazy.ok());
  ASSERT_TRUE(eager.ok());
  while (true) {
    auto a = (*lazy)->Next();
    auto b = (*eager)->Next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_NEAR(a->score, b->score, 1e-9);
  }
}

TEST(IncrementalTest, EagerScheduleDoesLessWorkOnNextThanLazy) {
  // After a deep top-m run, the next few pairs should come from cached
  // exact entries without extra walks.
  Graph g = RandomGraph(60, 200, 215);
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 20),
                                            Range("Q", 25, 50), 30);
  ASSERT_TRUE(join.ok());
  for (int i = 0; i < 10; ++i) (*join)->Next();
  int64_t walks_before = (*join)->stats().walks_started;
  for (int i = 0; i < 5; ++i) (*join)->Next();
  int64_t walks_after = (*join)->stats().walks_started;
  // A from-scratch top-k join would need ~|Q| walks; the incremental
  // structure should need far fewer (often zero) for 5 more pairs.
  EXPECT_LE(walks_after - walks_before, 10);
}

TEST(IncrementalTest, BatchScheduleResumeCountersAreExact) {
  // Regression for a double-count: the batch schedule used to fold the
  // per-round hit/miss deltas AND add the cumulative engine counters
  // once more at the end, inflating state_hits/state_misses ~2x. The
  // semantics are "one hit or miss per (target, round) resume attempt":
  // with m larger than the pair space nothing prunes, so an 18-target
  // schedule at d = 8 runs rounds l = 1, 2, 4 plus the exact-8 pass —
  // every target misses once (cold at l = 1) and hits exactly 3 times.
  Graph g = RandomGraph(50, 150, 204, /*undirected=*/true,
                        /*weighted=*/true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 18);
  NodeSet Q = Range("Q", 24, 42);  // 18 targets
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, P, Q, 5000);
  ASSERT_TRUE(join.ok());

  const TwoWayJoinStats& st = (*join)->stats();
  const int64_t targets = 18;
  EXPECT_EQ(st.state_misses, targets);
  EXPECT_EQ(st.state_hits, 3 * targets);
  EXPECT_EQ(st.state_evictions, 0);
  // Nothing pruned: the live frontier stays |Q| through every round.
  ASSERT_EQ(st.live_per_iteration.size(), 4u);
  for (const int64_t live : st.live_per_iteration) {
    EXPECT_EQ(live, targets);
  }
  // pool_barriers is the sum of its per-round breakdown (3 rounds +
  // the final pass), also delta-folded — a second fold would break it.
  ASSERT_EQ(st.barriers_per_iteration.size(), 4u);
  int64_t total = 0;
  for (const int64_t b : st.barriers_per_iteration) total += b;
  EXPECT_EQ(st.pool_barriers, total);
}

TEST(IncrementalTest, LazyPathCountsOneMissPerColdTarget) {
  // The m = 0 enumerator deepens targets one single-lane walk at a
  // time: with un-evicting states each target is cold exactly once, so
  // misses == touched targets, independent of how many levels each
  // target is later resumed through (those are hits).
  Graph g = RandomGraph(40, 120, 216, /*undirected=*/true,
                        /*weighted=*/false);
  DhtParams p = DhtParams::Lambda(0.2);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, Range("P", 0, 15),
                                            Range("Q", 20, 36), 0);
  ASSERT_TRUE(join.ok());
  while ((*join)->Next().has_value()) {
  }
  const TwoWayJoinStats& st = (*join)->stats();
  EXPECT_EQ(st.state_evictions, 0);
  EXPECT_EQ(st.state_misses, 16);  // |Q|: every target cold exactly once
  EXPECT_GT(st.state_hits, 0);     // deeper levels resume, never restart
}

}  // namespace
}  // namespace dhtjoin
