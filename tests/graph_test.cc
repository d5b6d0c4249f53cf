/// \file tests/graph_test.cc
/// \brief Unit tests for the graph substrate: GraphBuilder, Graph, NodeSet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/node_set.h"
#include "graph/reorder.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

TEST(GraphBuilderTest, BasicDirectedGraph) {
  GraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 2, 6.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3);
  EXPECT_EQ(g->num_edges(), 3);
  EXPECT_EQ(g->OutDegree(IntNodeId(0)), 2);
  EXPECT_EQ(g->OutDegree(IntNodeId(2)), 0);
  EXPECT_EQ(g->InDegree(IntNodeId(2)), 2);
}

TEST(GraphBuilderTest, TransitionProbabilitiesNormalized) {
  GraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 2, 6.0).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto row = g->OutEdges(IntNodeId(0));
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0].prob, 0.25);  // to node 1: 2/8
  EXPECT_DOUBLE_EQ(row[1].prob, 0.75);  // to node 2: 6/8
}

TEST(GraphBuilderTest, UndirectedAddsBothDirections) {
  GraphBuilder b(2, /*undirected=*/true);
  ASSERT_TRUE(b.AddEdge(0, 1, 3.0).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2);
  EXPECT_TRUE(g->HasEdge(IntNodeId(0), IntNodeId(1)));
  EXPECT_TRUE(g->HasEdge(IntNodeId(1), IntNodeId(0)));
  EXPECT_DOUBLE_EQ(g->EdgeWeight(IntNodeId(1), IntNodeId(0)), 3.0);
}

TEST(GraphBuilderTest, DuplicateEdgesAccumulateWeight) {
  // DBLP semantics: one co-authored paper = +1 weight.
  GraphBuilder b(2);
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 2.5).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_DOUBLE_EQ(g->EdgeWeight(IntNodeId(0), IntNodeId(1)), 4.5);
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder b(2);
  Status s = b.AddEdge(1, 1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, RejectsOutOfRangeNode) {
  GraphBuilder b(2);
  EXPECT_FALSE(b.AddEdge(0, 2).ok());
  EXPECT_FALSE(b.AddEdge(-1, 0).ok());
}

TEST(GraphBuilderTest, RejectsNonPositiveWeight) {
  GraphBuilder b(2);
  EXPECT_FALSE(b.AddEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(b.AddEdge(0, 1, -1.0).ok());
}

TEST(GraphBuilderTest, EmptyGraphBuilds) {
  GraphBuilder b(0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0);
  EXPECT_EQ(g->num_edges(), 0);
}

TEST(GraphBuilderTest, IsolatedNodesAllowed) {
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->OutDegree(IntNodeId(3)), 0);
  EXPECT_EQ(g->InDegree(IntNodeId(3)), 0);
}

TEST(GraphTest, OutEdgesSortedByTarget) {
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdge(0, 4).ok());
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(0, 3).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto row = g->OutEdges(IntNodeId(0));
  EXPECT_EQ(row[0].to, 1);
  EXPECT_EQ(row[1].to, 3);
  EXPECT_EQ(row[2].to, 4);
}

TEST(GraphTest, InEdgesMatchOutEdges) {
  // Every out-edge (u, v, p_uv) must appear on v's transposed row with
  // the same transition probability.
  Graph g = testing::TwoCommunityGraph();
  int64_t in_edge_count = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    in_edge_count += static_cast<int64_t>(g.InEdges(IntNodeId(u)).size());
    for (const OutEdge& e : g.OutEdges(IntNodeId(u))) {
      auto ins = g.InEdges(IntNodeId(e.to));
      auto it = std::find_if(ins.begin(), ins.end(),
                             [&](const InEdge& in) { return in.from == u; });
      ASSERT_TRUE(it != ins.end())
          << "edge (" << u << "," << e.to << ") missing from in-adjacency";
      EXPECT_DOUBLE_EQ(it->prob, e.prob)
          << "edge (" << u << "," << e.to << ") transposed prob mismatch";
    }
  }
  EXPECT_EQ(in_edge_count, g.num_edges());
}

TEST(GraphTest, ProbabilitiesSumToOnePerNode) {
  Graph g = testing::TwoCommunityGraph();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(IntNodeId(u)) == 0) continue;
    double total = 0.0;
    for (const OutEdge& e : g.OutEdges(IntNodeId(u))) total += e.prob;
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(GraphTest, HasEdgeAndWeightOnMissing) {
  Graph g = testing::PathGraph(3);
  EXPECT_TRUE(g.HasEdge(IntNodeId(0), IntNodeId(1)));
  EXPECT_FALSE(g.HasEdge(IntNodeId(1), IntNodeId(0)));  // directed
  EXPECT_FALSE(g.HasEdge(IntNodeId(0), IntNodeId(2)));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(IntNodeId(0), IntNodeId(2)), 0.0);
  EXPECT_FALSE(g.HasEdge(IntNodeId(-1), IntNodeId(0)));
  EXPECT_FALSE(g.HasEdge(IntNodeId(0), IntNodeId(99)));
}

// ---------------------------------------------------------------- NodeSet

TEST(NodeSetTest, SortsAndDedups) {
  NodeSet s("x", {3, 1, 2, 1, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].value(), 1);
  EXPECT_EQ(s[2].value(), 3);
}

TEST(NodeSetTest, Contains) {
  NodeSet s("x", {5, 7});
  EXPECT_TRUE(s.Contains(ExtNodeId(5)));
  EXPECT_FALSE(s.Contains(ExtNodeId(6)));
}

TEST(NodeSetTest, ValidateAgainstGraph) {
  Graph g = testing::PathGraph(3);
  EXPECT_TRUE(NodeSet("ok", {0, 2}).Validate(g).ok());
  EXPECT_EQ(NodeSet("empty", std::vector<NodeId>{}).Validate(g).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NodeSet("bad", {0, 5}).Validate(g).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphTest, SortCanonicalMatchesCanonicalKeySort) {
  // SortCanonical must give std::sort's output by canonical key,
  // duplicates included, on the insertion-ordered and reordered layouts.
  const Graph insertion = testing::RandomGraph(200, 800, 77);
  const Graph rcm =
      std::move(ReorderGraph(insertion, ReorderKind::kRcm)).value();
  const std::size_t n = static_cast<std::size_t>(insertion.num_nodes());

  Rng rng(7);
  auto random_list = [&](std::size_t s) {
    std::vector<NodeId> list(s);
    for (NodeId& v : list) v = static_cast<NodeId>(rng.Below(n));
    return list;
  };
  std::vector<std::vector<NodeId>> lists = {{}, {17}};
  std::vector<NodeId> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<NodeId>(n - 1 - i);
  lists.push_back(all);
  for (std::size_t s : {std::size_t{2}, std::size_t{33}, std::size_t{120},
                        3 * n}) {
    lists.push_back(random_list(s));  // draws with replacement: duplicates
  }
  for (const Graph* g : {&insertion, &rcm}) {
    for (const std::vector<NodeId>& list : lists) {
      std::vector<NodeId> want = list;
      std::sort(want.begin(), want.end(), [g](NodeId a, NodeId b) {
        return g->ToExternal(IntNodeId(a)) < g->ToExternal(IntNodeId(b));
      });
      std::vector<NodeId> got = list;
      g->SortCanonical(got);
      EXPECT_EQ(got, want) << "s=" << list.size()
                           << " reordered=" << g->is_reordered();
    }
  }
}

TEST(NodeSetTest, TopByDegreePicksHubs) {
  Graph g = testing::StarGraph(6);  // node 0 is the hub
  NodeSet all("all", {0, 1, 2, 3, 4, 5});
  NodeSet top = all.TopByDegree(g, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].value(), 0);
}

TEST(NodeSetTest, TopByDegreeKeepsAllWhenCountExceedsSize) {
  Graph g = testing::StarGraph(4);
  NodeSet all("all", {1, 2});
  EXPECT_EQ(all.TopByDegree(g, 10).size(), 2u);
}

}  // namespace
}  // namespace dhtjoin
