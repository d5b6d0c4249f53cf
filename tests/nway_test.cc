/// \file tests/nway_test.cc
/// \brief The four n-way join algorithms (NL, AP, PJ, PJ-i) must agree
/// with each other and with brute-force enumeration, across query-graph
/// shapes, aggregates, and DHT variants.

#include <gtest/gtest.h>

#include <memory>

#include "core/ap_join.h"
#include "core/nl_join.h"
#include "core/partial_join.h"
#include "core/query_graph.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using testing::RandomGraph;
using testing::Range;
using testing::RefNwayJoin;

enum class Shape { kChain2, kChain3, kTriangle, kTriangleBidir, kStar4 };

struct NwayCase {
  uint64_t seed;
  Shape shape;
  bool use_min;
  double lambda;  // 0 = DHTe
  std::size_t k;
  std::size_t m;
};

QueryGraph MakeQuery(Shape shape, const Graph& g) {
  // Node sets carved out of node-id ranges; sizes kept small so NL and
  // the brute-force oracle stay fast.
  QueryGraph q;
  switch (shape) {
    case Shape::kChain2: {
      int a = q.AddNodeSet(Range("A", 0, 8));
      int b = q.AddNodeSet(Range("B", 10, 18));
      DHTJOIN_CHECK(q.AddEdge(a, b).ok());
      break;
    }
    case Shape::kChain3: {
      int a = q.AddNodeSet(Range("A", 0, 6));
      int b = q.AddNodeSet(Range("B", 8, 14));
      int c = q.AddNodeSet(Range("C", 16, 22));
      DHTJOIN_CHECK(q.AddEdge(a, b).ok());
      DHTJOIN_CHECK(q.AddEdge(b, c).ok());
      break;
    }
    case Shape::kTriangle: {
      int a = q.AddNodeSet(Range("A", 0, 6));
      int b = q.AddNodeSet(Range("B", 8, 14));
      int c = q.AddNodeSet(Range("C", 16, 22));
      DHTJOIN_CHECK(q.AddEdge(a, b).ok());
      DHTJOIN_CHECK(q.AddEdge(b, c).ok());
      DHTJOIN_CHECK(q.AddEdge(a, c).ok());
      break;
    }
    case Shape::kTriangleBidir: {
      int a = q.AddNodeSet(Range("A", 0, 5));
      int b = q.AddNodeSet(Range("B", 8, 13));
      int c = q.AddNodeSet(Range("C", 16, 21));
      DHTJOIN_CHECK(q.AddBidirectionalEdge(a, b).ok());
      DHTJOIN_CHECK(q.AddBidirectionalEdge(b, c).ok());
      DHTJOIN_CHECK(q.AddBidirectionalEdge(a, c).ok());
      break;
    }
    case Shape::kStar4: {
      int hub = q.AddNodeSet(Range("HUB", 0, 5));
      int s1 = q.AddNodeSet(Range("S1", 8, 13));
      int s2 = q.AddNodeSet(Range("S2", 16, 21));
      int s3 = q.AddNodeSet(Range("S3", 24, 29));
      DHTJOIN_CHECK(q.AddEdge(hub, s1).ok());
      DHTJOIN_CHECK(q.AddEdge(hub, s2).ok());
      DHTJOIN_CHECK(q.AddEdge(hub, s3).ok());
      break;
    }
  }
  DHTJOIN_CHECK(q.Validate(g).ok());
  return q;
}

class NwayAgreement : public ::testing::TestWithParam<NwayCase> {};

TEST_P(NwayAgreement, AllAlgorithmsMatchBruteForce) {
  const auto& c = GetParam();
  Graph g = RandomGraph(32, 110, c.seed, /*undirected=*/true,
                        /*weighted=*/(c.seed % 2) == 0);
  DhtParams p =
      c.lambda > 0 ? DhtParams::Lambda(c.lambda) : DhtParams::Exponential();
  const int d = 8;
  QueryGraph query = MakeQuery(c.shape, g);
  SumAggregate sum;
  MinAggregate min;
  const Aggregate& f = c.use_min ? static_cast<const Aggregate&>(min)
                                 : static_cast<const Aggregate&>(sum);

  auto want = RefNwayJoin(g, p, d, query.sets(), query.edges(), f, c.k);

  std::vector<std::unique_ptr<NwayJoin>> algos;
  algos.push_back(std::make_unique<NestedLoopJoin>());
  algos.push_back(std::make_unique<AllPairsJoin>());
  algos.push_back(std::make_unique<PartialJoin>(
      PartialJoin::Options{.m = c.m, .incremental = false}));
  algos.push_back(std::make_unique<PartialJoin>(
      PartialJoin::Options{.m = c.m, .incremental = true}));

  for (auto& algo : algos) {
    auto got = algo->Run(g, p, d, query, f, c.k);
    ASSERT_TRUE(got.ok()) << algo->Name() << ": "
                          << got.status().ToString();
    ASSERT_EQ(got->size(), want.size()) << algo->Name();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i].f, want[i].f, 1e-9)
          << algo->Name() << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NwayAgreement,
    ::testing::Values(
        NwayCase{301, Shape::kChain2, true, 0.2, 10, 5},
        NwayCase{302, Shape::kChain3, true, 0.2, 10, 5},
        NwayCase{303, Shape::kChain3, false, 0.2, 5, 3},
        NwayCase{304, Shape::kTriangle, true, 0.5, 8, 4},
        NwayCase{305, Shape::kTriangleBidir, true, 0.2, 6, 4},
        NwayCase{306, Shape::kStar4, true, 0.2, 10, 6},
        NwayCase{307, Shape::kStar4, false, 0.6, 5, 2},
        NwayCase{308, Shape::kChain3, true, 0.0, 10, 5},   // DHTe
        NwayCase{309, Shape::kTriangle, false, 0.0, 12, 8},
        NwayCase{310, Shape::kChain3, true, 0.2, 500, 5},  // k > tuples
        NwayCase{311, Shape::kChain2, false, 0.8, 20, 1},  // tiny m
        NwayCase{312, Shape::kTriangleBidir, false, 0.4, 15, 50}));

TEST(NwayJoinTest, EdgeScoresAreConsistent) {
  Graph g = RandomGraph(30, 100, 320);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain3, g);
  MinAggregate f;
  PartialJoin pji(PartialJoin::Options{.m = 10, .incremental = true});
  auto got = pji.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(got.ok());
  for (const TupleAnswer& t : *got) {
    double lo = std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < query.edges().size(); ++e) {
      NodeId u = t.nodes[static_cast<std::size_t>(query.edges()[e].left)];
      NodeId v = t.nodes[static_cast<std::size_t>(query.edges()[e].right)];
      EXPECT_NEAR(t.edge_scores[e],
                  testing::RefBackwardScores(g, p, 8, ExtNodeId(v))
                      [static_cast<std::size_t>(u)],
                  1e-9);
      lo = std::min(lo, t.edge_scores[e]);
    }
    EXPECT_NEAR(t.f, lo, 1e-12);
  }
}

TEST(NwayJoinTest, NlRespectsTimeBudget) {
  Graph g = RandomGraph(32, 110, 321);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kStar4, g);
  MinAggregate f;
  NestedLoopJoin nl(NestedLoopJoin::Options{.time_budget_seconds = 0.0});
  auto got = nl.Run(g, p, 8, query, f, 5);
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(nl.stats().completed);
}

TEST(NwayJoinTest, ApBackwardEngineAgreesWithForward) {
  Graph g = RandomGraph(30, 100, 322);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain3, g);
  MinAggregate f;
  AllPairsJoin fwd(AllPairsJoin::Options{AllPairsJoin::Engine::kForward});
  AllPairsJoin bwd(AllPairsJoin::Options{AllPairsJoin::Engine::kBackward});
  auto a = fwd.Run(g, p, 8, query, f, 10);
  auto b = bwd.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i].f, (*b)[i].f, 1e-9);
  }
}

TEST(NwayJoinTest, PartialJoinStatsShowFractionUsed) {
  // The paper's observation: only a small fraction of the 2-way pair
  // space is consumed by the rank join.
  Graph g = RandomGraph(60, 200, 323);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph q;
  int a = q.AddNodeSet(Range("A", 0, 25));
  int b = q.AddNodeSet(Range("B", 30, 55));
  ASSERT_TRUE(q.AddEdge(a, b).ok());
  MinAggregate f;
  PartialJoin pji(PartialJoin::Options{.m = 10, .incremental = true});
  auto got = pji.Run(g, p, 8, q, f, 5);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(pji.stats().pulls_per_edge.size(), 1u);
  EXPECT_LT(pji.stats().pulls_per_edge[0],
            static_cast<int64_t>(25 * 25));  // far less than all pairs
}

TEST(QueryGraphTest, ValidationErrors) {
  Graph g = RandomGraph(20, 50, 324);
  QueryGraph q;
  EXPECT_FALSE(q.Validate(g).ok());  // no sets
  int a = q.AddNodeSet(Range("A", 0, 4));
  EXPECT_FALSE(q.Validate(g).ok());  // one set, no edges
  int b = q.AddNodeSet(Range("B", 5, 9));
  EXPECT_FALSE(q.Validate(g).ok());  // still no edges
  EXPECT_FALSE(q.AddEdge(a, a).ok());         // self edge
  EXPECT_FALSE(q.AddEdge(a, 7).ok());         // unknown set
  EXPECT_TRUE(q.AddEdge(a, b).ok());
  EXPECT_EQ(q.AddEdge(a, b).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(q.AddEdge(b, a).ok());  // opposite direction is distinct
  EXPECT_TRUE(q.Validate(g).ok());
  EXPECT_DOUBLE_EQ(q.CandidateSpace(), 16.0);
}

TEST(QueryGraphTest, EmptyNodeSetFailsValidation) {
  Graph g = RandomGraph(20, 50, 325);
  QueryGraph q;
  int a = q.AddNodeSet(Range("A", 0, 4));
  int b = q.AddNodeSet(NodeSet("B", std::vector<NodeId>{}));
  ASSERT_TRUE(q.AddEdge(a, b).ok());
  EXPECT_FALSE(q.Validate(g).ok());
}

TEST(NwayJoinTest, RunsAreDeterministic) {
  // No hidden iteration-order nondeterminism anywhere in the stack:
  // repeated runs return bit-identical tuples and scores.
  Graph g = RandomGraph(40, 140, 327, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kTriangle, g);
  MinAggregate f;
  PartialJoin pji(PartialJoin::Options{.m = 10, .incremental = true});
  auto first = pji.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    auto again = pji.Run(g, p, 8, query, f, 10);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->size(), first->size());
    for (std::size_t i = 0; i < first->size(); ++i) {
      EXPECT_EQ((*again)[i].nodes, (*first)[i].nodes) << "rank " << i;
      EXPECT_EQ((*again)[i].f, (*first)[i].f) << "rank " << i;
    }
  }
}

TEST(NwayJoinTest, AdaptivePullingMatchesRoundRobinEndToEnd) {
  Graph g = RandomGraph(36, 120, 328);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain3, g);
  MinAggregate f;
  PartialJoin rr(PartialJoin::Options{.m = 10, .incremental = true});
  PartialJoin ad(PartialJoin::Options{
      .m = 10,
      .incremental = true,
      .pull_strategy = PullStrategy::kAdaptive});
  auto a = rr.Run(g, p, 8, query, f, 15);
  auto b = ad.Run(g, p, 8, query, f, 15);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i].f, (*b)[i].f, 1e-12);
  }
}

TEST(NwayJoinTest, KZeroRejectedEverywhere) {
  Graph g = RandomGraph(30, 90, 326);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query = MakeQuery(Shape::kChain2, g);
  MinAggregate f;
  EXPECT_FALSE(NestedLoopJoin().Run(g, p, 8, query, f, 0).ok());
  EXPECT_FALSE(AllPairsJoin().Run(g, p, 8, query, f, 0).ok());
  EXPECT_FALSE(PartialJoin().Run(g, p, 8, query, f, 0).ok());
}

TEST(NwayJoinTest, DisconnectedSetsYieldEmptyResult) {
  // Two components; sets on different components can never join.
  GraphBuilder builder(8, true);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(4, 5).ok());
  ASSERT_TRUE(builder.AddEdge(5, 6).ok());
  Graph g = std::move(builder.Build()).value();
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph q;
  int a = q.AddNodeSet(NodeSet("A", {0, 1, 2}));
  int b = q.AddNodeSet(NodeSet("B", {4, 5, 6}));
  ASSERT_TRUE(q.AddEdge(a, b).ok());
  MinAggregate f;
  for (auto* algo : std::initializer_list<NwayJoin*>{}) {
    (void)algo;
  }
  NestedLoopJoin nl;
  PartialJoin pj(PartialJoin::Options{.m = 5, .incremental = false});
  PartialJoin pji(PartialJoin::Options{.m = 5, .incremental = true});
  for (NwayJoin* algo : {static_cast<NwayJoin*>(&nl),
                         static_cast<NwayJoin*>(&pj),
                         static_cast<NwayJoin*>(&pji)}) {
    auto got = algo->Run(g, p, 8, q, f, 5);
    ASSERT_TRUE(got.ok()) << algo->Name();
    EXPECT_TRUE(got->empty()) << algo->Name();
  }
}

}  // namespace
}  // namespace dhtjoin
