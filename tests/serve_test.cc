/// \file tests/serve_test.cc
/// \brief Serving layer: cross-query ScoreCache, DhtJoinService, and
/// workload generation.
///
/// The load-bearing claims under test (DESIGN.md §6): a warm query is
/// BIT-identical to a cold one — across cached hits, evicted-then-
/// refetched states, and a budget-0 cache — because the walk engines
/// are bit-deterministic and keys are exact; and a service executing
/// concurrent sessions returns deterministic per-query answers.

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/nl_join.h"
#include "core/partial_join.h"
#include "dht/forward_batch.h"
#include "dht/batch_core.h"
#include "join2/b_idj.h"
#include "join2/incremental.h"
#include "rankjoin/aggregate.h"
#include "serve/score_cache.h"
#include "serve/session.h"
#include "serve/workload.h"
#include "testing/reference.h"

namespace dhtjoin {
namespace {

using serve::CacheKey;
using serve::CachePayload;
using serve::CacheStats;
using serve::CachedTable;
using serve::DhtJoinService;
using serve::DigestNodes;
using serve::GraphFingerprint;
using serve::ScoreCache;
using testing::RandomGraph;
using testing::Range;
using testing::TwoCommunityGraph;

// ------------------------------------------------------------- cache

TEST(ScoreCacheTest, GraphFingerprintSeparatesGraphs) {
  Graph a = RandomGraph(30, 90, 7);
  Graph a2 = RandomGraph(30, 90, 7);
  Graph b = RandomGraph(30, 90, 8);
  Graph c = RandomGraph(30, 91, 7);
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(a2));
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(b));
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(c));
}

TEST(ScoreCacheTest, DigestNodesIsContentBased) {
  std::vector<ExtNodeId> x = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(3)};
  std::vector<ExtNodeId> y = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(3)};
  std::vector<ExtNodeId> z = {ExtNodeId(1), ExtNodeId(2), ExtNodeId(4)};
  std::vector<ExtNodeId> w = {ExtNodeId(1), ExtNodeId(2)};
  EXPECT_EQ(DigestNodes(x), DigestNodes(y));
  EXPECT_NE(DigestNodes(x), DigestNodes(z));
  EXPECT_NE(DigestNodes(x), DigestNodes(w));
}

CacheKey TableKey(uint64_t graph_fp, std::vector<NodeId> left,
                  std::vector<NodeId> right) {
  CacheKey key;
  key.graph_fp = graph_fp;
  key.kind = CachePayload::kEdgeTable;
  key.d = 8;
  key.set_a = std::make_shared<const std::vector<ExtNodeId>>(WrapExtIds(left));
  key.set_b =
      std::make_shared<const std::vector<ExtNodeId>>(WrapExtIds(right));
  key.digest_a = DigestNodes(*key.set_a);
  key.digest_b = DigestNodes(*key.set_b);
  return key;
}

std::shared_ptr<CachedTable> MakeTable(std::size_t doubles) {
  return std::make_shared<CachedTable>(
      std::make_shared<const std::vector<double>>(doubles, 1.0));
}

TEST(ScoreCacheTest, PutGetAndContentEquality) {
  ScoreCache cache({.max_bytes = 1 << 20, .num_shards = 4});
  CacheKey key = TableKey(11, {1, 2, 3}, {4, 5});
  EXPECT_EQ(cache.GetAs<CachedTable>(key), nullptr);
  cache.Put(key, MakeTable(6));

  // Same contents through DIFFERENT shared_ptrs: must hit.
  CacheKey same = TableKey(11, {1, 2, 3}, {4, 5});
  auto hit = cache.GetAs<CachedTable>(same);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->table->size(), 6u);

  // Any differing component: must miss.
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(12, {1, 2, 3}, {4, 5})),
            nullptr);
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(11, {1, 2}, {4, 5})), nullptr);
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(11, {1, 2, 3}, {4, 6})),
            nullptr);
  CacheKey other_params = TableKey(11, {1, 2, 3}, {4, 5});
  other_params.params.lambda = 0.5;
  EXPECT_EQ(cache.GetAs<CachedTable>(other_params), nullptr);
  CacheKey other_d = TableKey(11, {1, 2, 3}, {4, 5});
  other_d.d = 4;
  EXPECT_EQ(cache.GetAs<CachedTable>(other_d), nullptr);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 6);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(ScoreCacheTest, EvictsLruUnderByteBudget) {
  // One shard so the LRU order is global and deterministic.
  ScoreCache cache({.max_bytes = 4096, .num_shards = 1});
  const std::size_t entry_doubles = 64;  // ~512B payload per entry
  for (NodeId i = 0; i < 20; ++i) {
    cache.Put(TableKey(1, {i}, {i + 100}), MakeTable(entry_doubles));
  }
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.resident_bytes, 4096u);
  EXPECT_LT(stats.entries, 20u);
  // The most recent entry survived; the oldest was evicted.
  EXPECT_NE(cache.GetAs<CachedTable>(TableKey(1, {19}, {119})), nullptr);
  EXPECT_EQ(cache.GetAs<CachedTable>(TableKey(1, {0}, {100})), nullptr);
}

TEST(ScoreCacheTest, AdmissionFirstTouchBypassForSmallPayloads) {
  ScoreCache cache({.max_bytes = 1 << 20,
                    .num_shards = 2,
                    .admission_bypass_bytes = 4096});
  // Tiny payload: the first offer is turned away (one-shot queries
  // never enter the LRU), the second — a repeated key — is admitted.
  CacheKey tiny = TableKey(7, {1}, {2});
  cache.Put(tiny, MakeTable(8));
  EXPECT_EQ(cache.GetAs<CachedTable>(tiny), nullptr);
  EXPECT_EQ(cache.stats().admission_rejects, 1);
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.Put(tiny, MakeTable(8));
  EXPECT_NE(cache.GetAs<CachedTable>(tiny), nullptr);

  // A payload at/above the floor is admitted on first touch.
  CacheKey big = TableKey(7, {3}, {4});
  cache.Put(big, MakeTable(1024));  // 8 KB payload >= 4 KB floor
  EXPECT_NE(cache.GetAs<CachedTable>(big), nullptr);
  EXPECT_EQ(cache.stats().admission_rejects, 1);

  // Default options admit everything (no behaviour change).
  ScoreCache open(ScoreCache::Options{.max_bytes = 1 << 20});
  open.Put(tiny, MakeTable(8));
  EXPECT_NE(open.GetAs<CachedTable>(tiny), nullptr);
  EXPECT_EQ(open.stats().admission_rejects, 0);
}

TEST(ScoreCacheTest, ZeroBudgetHoldsNothing) {
  ScoreCache cache({.max_bytes = 0, .num_shards = 2});
  CacheKey key = TableKey(3, {1}, {2});
  cache.Put(key, MakeTable(4));
  EXPECT_EQ(cache.GetAs<CachedTable>(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ScoreCacheTest, PeekDoesNotTouchCounters) {
  ScoreCache cache({.max_bytes = 1 << 16, .num_shards = 1});
  CacheKey key = TableKey(5, {1}, {2});
  cache.Put(key, MakeTable(4));
  EXPECT_NE(cache.PeekAs<CachedTable>(key), nullptr);
  EXPECT_EQ(cache.PeekAs<CachedTable>(TableKey(5, {9}, {2})), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

// ------------------------------------------- warm/cold equivalence

struct TwoWayFixture {
  Graph g = RandomGraph(70, 260, 91, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  int d = 8;
  NodeSet P = Range("P", 0, 25);
  NodeSet Q = Range("Q", 30, 65);
  std::size_t k = 15;

  std::vector<ScoredPair> Reference() {
    BIdjJoin join;
    auto r = join.Run(g, p, d, P, Q, k);
    EXPECT_TRUE(r.ok());
    return *r;
  }
};

void ExpectBitIdentical(const std::vector<ScoredPair>& a,
                        const std::vector<ScoredPair>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // operator== compares scores exactly: byte-identical output.
    EXPECT_EQ(a[i], b[i]) << what << " rank " << i;
  }
}

TEST(DhtJoinServiceTest, ColdAndWarmMatchFreshRunBitIdentical) {
  TwoWayFixture f;
  std::vector<ScoredPair> reference = f.Reference();

  DhtJoinService service(f.g, f.p, f.d, {.num_threads = 1});
  serve::QueryStats cold_stats, warm_stats;
  auto cold = service.TwoWay(f.P, f.Q, f.k, &cold_stats);
  ASSERT_TRUE(cold.ok());
  ExpectBitIdentical(*cold, reference, "cold vs fresh B-IDJ");
  EXPECT_EQ(cold_stats.warm_targets, 0);
  EXPECT_FALSE(cold_stats.ybound_cached);

  auto warm = service.TwoWay(f.P, f.Q, f.k, &warm_stats);
  ASSERT_TRUE(warm.ok());
  ExpectBitIdentical(*warm, reference, "warm vs fresh B-IDJ");
  EXPECT_GT(warm_stats.warm_targets, 0);
  EXPECT_TRUE(warm_stats.ybound_cached);
  // The whole point: a warm repeat does strictly less walk work.
  EXPECT_LT(warm_stats.join.walk_steps, cold_stats.join.walk_steps);
}

TEST(DhtJoinServiceTest, ZeroBudgetCacheIsBitIdenticalToFresh) {
  TwoWayFixture f;
  std::vector<ScoredPair> reference = f.Reference();
  DhtJoinService service(f.g, f.p, f.d,
                         {.cache_budget_bytes = 0, .num_threads = 1});
  for (int round = 0; round < 2; ++round) {
    serve::QueryStats stats;
    auto result = service.TwoWay(f.P, f.Q, f.k, &stats);
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(*result, reference, "budget-0 round");
    EXPECT_EQ(stats.warm_targets, 0);  // nothing is ever retained
  }
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

TEST(DhtJoinServiceTest, EvictedThenRefetchedIsBitIdentical) {
  TwoWayFixture f;
  std::vector<ScoredPair> reference = f.Reference();
  // A budget big enough to hold SOME batch states but far too small for
  // all of them (|Q| = 35 targets, each with a 25-double row), so every
  // round mixes cached hits with evicted-then-recomputed targets.
  DhtJoinService service(
      f.g, f.p, f.d,
      {.cache_budget_bytes = 4096, .cache_shards = 1, .num_threads = 1});
  for (int round = 0; round < 3; ++round) {
    auto result = service.TwoWay(f.P, f.Q, f.k);
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(*result, reference, "evicting round");
  }
  EXPECT_GT(service.cache_stats().evictions, 0);
}

TEST(DhtJoinServiceTest, XBoundServiceMatchesXBoundJoin) {
  TwoWayFixture f;
  BIdjJoin join(BIdjJoin::Options{.bound = UpperBoundKind::kX});
  auto reference = join.Run(f.g, f.p, f.d, f.P, f.Q, f.k);
  ASSERT_TRUE(reference.ok());
  DhtJoinService service(f.g, f.p, f.d,
                         {.num_threads = 1, .bound = UpperBoundKind::kX});
  auto cold = service.TwoWay(f.P, f.Q, f.k);
  auto warm = service.TwoWay(f.P, f.Q, f.k);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  ExpectBitIdentical(*cold, *reference, "X-bound cold");
  ExpectBitIdentical(*warm, *reference, "X-bound warm");
}

TEST(DhtJoinServiceTest, OverlappingQueriesShareTargetStates) {
  // Q2 shares targets with Q1 under the SAME P: those targets' batch
  // states must warm the second query even though the query differs.
  TwoWayFixture f;
  NodeSet Q2 = Range("Q2", 30, 50);  // subset of f.Q
  DhtJoinService service(f.g, f.p, f.d, {.num_threads = 1});
  ASSERT_TRUE(service.TwoWay(f.P, f.Q, f.k).ok());
  BIdjJoin join;
  auto reference = join.Run(f.g, f.p, f.d, f.P, Q2, f.k);
  ASSERT_TRUE(reference.ok());
  serve::QueryStats stats;
  auto result = service.TwoWay(f.P, Q2, f.k, &stats);
  ASSERT_TRUE(result.ok());
  ExpectBitIdentical(*result, *reference, "overlapping-Q warm");
  EXPECT_GT(stats.warm_targets, 0);
}

// ------------------------------------------------- n-way through cache

TEST(DhtJoinServiceTest, NestedLoopTablesWarmAndMatch) {
  Graph g = TwoCommunityGraph();
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query;
  query.AddNodeSet(Range("A", 0, 5));
  query.AddNodeSet(Range("B", 5, 10));
  ASSERT_TRUE(query.AddBidirectionalEdge(0, 1).ok());
  MinAggregate f;

  NestedLoopJoin reference_join;
  auto reference = reference_join.Run(g, p, 6, query, f, 8);
  ASSERT_TRUE(reference.ok());

  DhtJoinService service(g, p, 6, {.num_threads = 1});
  serve::QueryStats cold_stats, warm_stats;
  auto cold = service.Nway(query, f, 8, DhtJoinService::NwayAlgo::kNestedLoop,
                           &cold_stats);
  auto warm = service.Nway(query, f, 8, DhtJoinService::NwayAlgo::kNestedLoop,
                           &warm_stats);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold_stats.table_hits, 0);
  EXPECT_EQ(warm_stats.table_hits, 2);  // both directed edges cached

  ASSERT_EQ(reference->size(), cold->size());
  ASSERT_EQ(reference->size(), warm->size());
  for (std::size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ((*reference)[i].nodes, (*cold)[i].nodes);
    EXPECT_EQ((*reference)[i].nodes, (*warm)[i].nodes);
    EXPECT_EQ((*reference)[i].f, (*cold)[i].f);
    EXPECT_EQ((*reference)[i].f, (*warm)[i].f);
  }
}

TEST(DhtJoinServiceTest, PartialJoinIncrementalThroughStateCache) {
  Graph g = RandomGraph(50, 180, 23, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  QueryGraph query;
  query.AddNodeSet(Range("A", 0, 12));
  query.AddNodeSet(Range("B", 15, 30));
  ASSERT_TRUE(query.AddEdge(0, 1).ok());
  SumAggregate f;

  PartialJoin reference_join(PartialJoin::Options{.incremental = true});
  auto reference = reference_join.Run(g, p, 8, query, f, 10);
  ASSERT_TRUE(reference.ok());

  DhtJoinService service(g, p, 8, {.num_threads = 1});
  for (int round = 0; round < 2; ++round) {
    auto result = service.Nway(
        query, f, 10, DhtJoinService::NwayAlgo::kPartialJoinIncremental);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(reference->size(), result->size());
    for (std::size_t i = 0; i < reference->size(); ++i) {
      EXPECT_EQ((*reference)[i].nodes, (*result)[i].nodes);
      EXPECT_EQ((*reference)[i].f, (*result)[i].f);
    }
  }
  // The deepening walks left states behind and read them back.
  CacheStats stats = service.cache_stats();
  EXPECT_GT(stats.insertions, 0);
  EXPECT_GT(stats.hits, 0);
}

// ------------------------------- one walk-state entry per (q, P) key

/// A 2-way query (P, Q) and a one-edge PJ-i query over the same (P, Q):
/// every target q of Q is one (q, P) walk-state key both of them use.
struct SharedKeyFixture {
  Graph g = RandomGraph(60, 220, 29, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  int d = 8;
  NodeSet P = Range("P", 0, 18);
  NodeSet Q = Range("Q", 22, 50);
  std::size_t k = 12;
  QueryGraph query;
  SumAggregate f;

  SharedKeyFixture() {
    query.AddNodeSet(P);
    query.AddNodeSet(Q);
    DHTJOIN_CHECK(query.AddEdge(0, 1).ok());
  }
};

void ExpectSameTuples(const std::vector<TupleAnswer>& got,
                      const std::vector<TupleAnswer>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].nodes, want[i].nodes) << what << " rank " << i;
    EXPECT_EQ(got[i].edge_scores, want[i].edge_scores) << what << " rank " << i;
    EXPECT_EQ(got[i].f, want[i].f) << what << " rank " << i;
  }
}

/// Resident walk-state entries of `service`'s cache.
std::vector<std::shared_ptr<const serve::CachedBatchState>> BatchStates(
    DhtJoinService& service) {
  std::vector<std::shared_ptr<const serve::CachedBatchState>> out;
  for (const auto& e : service.cache().Export()) {
    if (e.key.kind == CachePayload::kBatchState) {
      out.push_back(
          std::dynamic_pointer_cast<const serve::CachedBatchState>(e.entry));
    }
  }
  return out;
}

TEST(SharedStateTest, TwoWayAndPjiShareStatesInEitherOrder) {
  SharedKeyFixture fx;
  BIdjJoin bidj;
  auto two_way_want = bidj.Run(fx.g, fx.p, fx.d, fx.P, fx.Q, fx.k);
  PartialJoin pji(PartialJoin::Options{.incremental = true});
  auto nway_want = pji.Run(fx.g, fx.p, fx.d, fx.query, fx.f, fx.k);
  ASSERT_TRUE(two_way_want.ok() && nway_want.ok());

  const std::string path = ::testing::TempDir() + "serve_test_shared.snap";
  for (bool two_way_first : {true, false}) {
    auto run_pair = [&](DhtJoinService& service, const char* phase) {
      for (int i = 0; i < 2; ++i) {
        if ((i == 0) == two_way_first) {
          serve::QueryStats qs;
          auto got = service.TwoWay(fx.P, fx.Q, fx.k, &qs);
          ASSERT_TRUE(got.ok());
          ExpectBitIdentical(*got, *two_way_want, phase);
          // Whichever query ran before left a state for every target.
          if (i == 1) EXPECT_EQ(qs.warm_targets, fx.Q.size()) << phase;
        } else {
          auto got = service.Nway(
              fx.query, fx.f, fx.k,
              DhtJoinService::NwayAlgo::kPartialJoinIncremental);
          ASSERT_TRUE(got.ok());
          ExpectSameTuples(*got, *nway_want, phase);
        }
      }
      // One entry per (q, P): the two queries share every key.
      EXPECT_EQ(BatchStates(service).size(), fx.Q.size()) << phase;
    };
    DhtJoinService service(fx.g, fx.p, fx.d, {.num_threads = 1});
    run_pair(service, two_way_first ? "cold, 2-way first" : "cold, PJ-i first");
    run_pair(service, "warm");
    ASSERT_TRUE(service.SaveWarmState(path).ok());
    DhtJoinService restored(fx.g, fx.p, fx.d, {.num_threads = 1});
    Result<int64_t> loaded = restored.LoadWarmState(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_GT(loaded.value(), 0);
    run_pair(restored, "restored");
  }
  std::remove(path.c_str());
}

TEST(SharedStateTest, RowOnlyLevelDEntryAnswersLikeCold) {
  // Nothing advances a walk past the service's d, so write-back keeps
  // only the score row of a level-d state; reading that row must give
  // the cold answer bit for bit.
  SharedKeyFixture fx;
  DhtJoinService service(fx.g, fx.p, fx.d, {.num_threads = 1});
  auto cold = service.TwoWay(fx.P, fx.Q, fx.k);
  ASSERT_TRUE(cold.ok());
  std::size_t row_only = 0;
  for (const auto& entry : BatchStates(service)) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->snap.row.size(), fx.P.size());
    if (entry->snap.level == fx.d) {
      EXPECT_TRUE(entry->snap.mass.empty());
      ++row_only;
    }
  }
  ASSERT_GT(row_only, 0u);

  serve::QueryStats qs;
  auto warm = service.TwoWay(fx.P, fx.Q, fx.k, &qs);
  ASSERT_TRUE(warm.ok());
  ExpectBitIdentical(*warm, *cold, "row-only warm vs cold");
  EXPECT_EQ(qs.warm_targets, fx.Q.size());

  // The same rows through a fresh cold service at d = 1, where the
  // whole schedule IS level d: PJ-i imports row-only states too.
  DhtJoinService shallow(fx.g, fx.p, 1, {.num_threads = 1});
  DhtJoinService shallow_cold(fx.g, fx.p, 1, {.num_threads = 1});
  ASSERT_TRUE(shallow.TwoWay(fx.P, fx.Q, fx.k).ok());
  auto want = shallow_cold.Nway(fx.query, fx.f, fx.k);
  const int64_t hits_before = shallow.cache_stats().hits;
  auto got = shallow.Nway(fx.query, fx.f, fx.k);
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameTuples(*got, *want, "PJ-i from row-only level-d states");
  EXPECT_GE(shallow.cache_stats().hits - hits_before,
            static_cast<int64_t>(fx.Q.size()));
}

// ------------------------------------------------- concurrent sessions

TEST(DhtJoinServiceTest, ConcurrentSessionsAreDeterministic) {
  Graph g = RandomGraph(80, 300, 31, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  const int d = 8;
  struct Template {
    NodeSet P, Q;
  };
  std::vector<Template> templates = {
      {Range("P0", 0, 20), Range("Q0", 30, 60)},
      {Range("P1", 5, 25), Range("Q1", 40, 70)},
      {Range("P2", 0, 20), Range("Q2", 40, 70)},
      {Range("P3", 10, 30), Range("Q3", 30, 60)},
  };
  const std::size_t k = 12;

  std::vector<std::vector<ScoredPair>> expected;
  for (const Template& t : templates) {
    BIdjJoin join;
    auto r = join.Run(g, p, d, t.P, t.Q, k);
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  DhtJoinService service(g, p, d, {.num_threads = 4});
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<Result<std::vector<ScoredPair>>>> futures;
    std::vector<std::size_t> which;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t t = 0; t < templates.size(); ++t) {
        futures.push_back(
            service.SubmitTwoWay(templates[t].P, templates[t].Q, k));
        which.push_back(t);
      }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto result = futures[i].get();
      ASSERT_TRUE(result.ok());
      ExpectBitIdentical(*result, expected[which[i]], "concurrent session");
    }
  }
  EXPECT_GT(service.cache_stats().hits, 0);
}

// --------------------------------------------- sparse forward states

TEST(ForwardBatchStatesTest, SparseSlotsSupportHugeVirtualGrids) {
  Graph g = RandomGraph(40, 130, 53, false, true);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> sources = {ExtNodeId(0), ExtNodeId(2),
                                    ExtNodeId(4), ExtNodeId(6),
                                    ExtNodeId(8), ExtNodeId(10)};
  ExtNodeId target(33);
  ForwardWalkerBatch batch(g);
  std::vector<ExtNodeId> target_vec = {target};
  std::vector<double> scratch = batch.Run(p, 8, sources, target_vec);

  // Slot ids from a virtual 10^9 x 10^9 pair grid: the dense slot
  // vector this replaces could never be allocated.
  ForwardBatchStates states;
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    slots.push_back(i * 1'000'000'000ULL + 777'777'777ULL);
  }
  std::vector<double> resumed(sources.size());
  for (int l : {1, 2, 4, 8}) {
    batch.AdvancePairs(p, l, sources, slots, target, states,
                       [&](std::size_t i, double s) { resumed[i] = s; });
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(resumed[i], scratch[i]) << "i=" << i;
  }
  // Only the live pairs occupy the map — the virtual grid costs nothing.
  EXPECT_EQ(states.size(), sources.size());
}

TEST(ForwardBatchStatesTest, DropAndBytesTrackResidentStates) {
  Graph g = RandomGraph(40, 130, 54, false, true);
  DhtParams p = DhtParams::Lambda(0.3);
  std::vector<ExtNodeId> sources = {ExtNodeId(1), ExtNodeId(3),
                                    ExtNodeId(5)};
  std::vector<std::size_t> slots = {900'000'000'000ULL, 7ULL,
                                    123'456'789'012ULL};
  ForwardWalkerBatch batch(g);
  ForwardBatchStates states;
  batch.AdvancePairs(p, 4, sources, slots, ExtNodeId(20), states,
                     [](std::size_t, double) {});
  EXPECT_EQ(states.size(), 3u);
  EXPECT_GT(states.bytes(), 0u);
  EXPECT_EQ(states.level(slots[0]), 4);
  EXPECT_EQ(states.level(1234567ULL), 0);  // absent slot reads level 0
  states.Drop(slots[0]);
  EXPECT_EQ(states.size(), 2u);
  EXPECT_EQ(states.level(slots[0]), 0);
  states.Drop(slots[0]);  // double-drop is a no-op
  EXPECT_EQ(states.size(), 2u);
}

// ------------------------------------------------------ stats & tuning

TEST(StatsTest, BIdjSurfacesStateCounters) {
  Graph g = RandomGraph(60, 200, 55, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 25, 55);
  BIdjJoin resumed(BIdjJoin::Options{.resume = true});
  BIdjJoin restarted(BIdjJoin::Options{.resume = false});
  ASSERT_TRUE(resumed.Run(g, p, 8, P, Q, 10).ok());
  ASSERT_TRUE(restarted.Run(g, p, 8, P, Q, 10).ok());
  EXPECT_GT(resumed.stats().state_hits, 0);
  EXPECT_GT(resumed.stats().state_misses, 0);
  EXPECT_GT(resumed.stats().state_resident_bytes, 0);
  EXPECT_EQ(restarted.stats().state_hits, 0);
  EXPECT_EQ(restarted.stats().state_misses, 0);
  EXPECT_EQ(restarted.stats().state_resident_bytes, 0);
}

TEST(StatsTest, IncrementalJoinSurfacesPoolCounters) {
  Graph g = RandomGraph(50, 170, 56, true, true);
  DhtParams p = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 15);
  NodeSet Q = Range("Q", 20, 45);
  auto join = IncrementalTwoWayJoin::Create(g, p, 8, P, Q, 10);
  ASSERT_TRUE(join.ok());
  for (int i = 0; i < 20; ++i) {
    if (!(*join)->Next().has_value()) break;
  }
  const TwoWayJoinStats& stats = (*join)->stats();
  EXPECT_GT(stats.state_hits, 0);
  EXPECT_GT(stats.state_misses, 0);
}

TEST(StatsTest, AutotuneBudgetScalesWithGraphAndClamps) {
  const std::size_t tiny = AutotuneStateBudgetBytes(10);
  const std::size_t mid = AutotuneStateBudgetBytes(200'000);
  const std::size_t huge = AutotuneStateBudgetBytes(1'000'000'000);
  EXPECT_EQ(tiny, std::size_t{64} << 20);  // floor
  EXPECT_GT(mid, tiny);
  EXPECT_EQ(huge, std::size_t{1} << 30);  // ceiling
  EXPECT_LE(mid, huge);
}

// ------------------------------------------------------------ workload

TEST(WorkloadTest, ZipfianWorkloadIsDeterministicAndSkewed) {
  Graph g = RandomGraph(60, 200, 57);
  std::vector<NodeSet> sets = {Range("A", 0, 15), Range("B", 15, 30),
                               Range("C", 30, 45), Range("D", 45, 60)};
  serve::WorkloadOptions opts;
  opts.num_requests = 400;
  opts.num_templates = 8;
  opts.zipf_s = 1.2;
  opts.set_size = 10;
  opts.seed = 99;
  auto a = serve::GenerateZipfianTwoWayWorkload(g, sets, opts);
  auto b = serve::GenerateZipfianTwoWayWorkload(g, sets, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->requests.size(), 400u);
  EXPECT_EQ(a->num_templates, 8u);
  for (std::size_t i = 0; i < a->requests.size(); ++i) {
    EXPECT_EQ(a->requests[i].template_id, b->requests[i].template_id);
    EXPECT_EQ(a->requests[i].P.nodes(), b->requests[i].P.nodes());
  }
  // Zipf skew: rank 0 must dominate the tail ranks.
  EXPECT_GT(a->frequency[0], a->frequency[a->frequency.size() - 1]);
  int64_t total = 0;
  for (int64_t f : a->frequency) total += f;
  EXPECT_EQ(total, 400);
  for (const auto& req : a->requests) {
    EXPECT_LE(req.P.size(), 10u);
    EXPECT_FALSE(req.P.empty());
  }
}

TEST(WorkloadTest, RejectsDegenerateInputs) {
  Graph g = RandomGraph(20, 60, 58);
  std::vector<NodeSet> one = {Range("A", 0, 10)};
  std::vector<NodeSet> two = {Range("A", 0, 10), Range("B", 10, 20)};
  EXPECT_FALSE(
      serve::GenerateZipfianTwoWayWorkload(g, one, {}).ok());
  serve::WorkloadOptions zero_requests;
  zero_requests.num_requests = 0;
  EXPECT_FALSE(
      serve::GenerateZipfianTwoWayWorkload(g, two, zero_requests).ok());
}

}  // namespace
}  // namespace dhtjoin
