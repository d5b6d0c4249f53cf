// Tests of the benchmark's own logic: the percentile rule, seed
// determinism of every generator, cache-key freshness of the cold
// stream, the Zipf template frequencies, closed-loop accounting, the
// span scan, and agreement of the metric catalogue with BENCHMARK.json.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalogue.h"
#include "datasets/dblp_like.h"
#include "loop.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "stats.h"
#include "trace_rollup.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dhtjoin::ExtNodeId;
using dhtjoin::StatusCode;

const dhtjoin::datasets::DblpLikeDataset& SmallDblp() {
  static const auto* ds = new dhtjoin::datasets::DblpLikeDataset(
      dhtjoin::datasets::GenerateDblpLike({.num_authors = 2000, .seed = 7})
          .value());
  return *ds;
}

std::vector<NodeSet> NwaySets() {
  std::vector<NodeSet> sets;
  for (std::size_t i = 0; i < 6; ++i) {
    sets.push_back(SmallDblp().areas[i].TopByDegree(SmallDblp().graph, 10));
  }
  return sets;
}

// ------------------------------------------------------------ percentiles

TEST(PercentileTest, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesFor(0.95), 200);
  EXPECT_EQ(MinSamplesFor(0.99), 1000);
  EXPECT_EQ(MinSamplesFor(0.5), 20);

  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  EXPECT_FALSE(Percentile(v, 0.95).has_value());
  v.push_back(200);
  const auto p95 = Percentile(v, 0.95);
  ASSERT_TRUE(p95.has_value());
  int beyond = 0;
  for (double x : v) beyond += x > *p95 ? 1 : 0;
  EXPECT_EQ(beyond, 10);
  EXPECT_DOUBLE_EQ(*p95, 190.0);
}

TEST(PercentileTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back((i * 37) % 400);
  EXPECT_DOUBLE_EQ(*Percentile(v, 0.95), 379.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// ------------------------------------------------------------ generators

std::vector<std::vector<ExtNodeId>> Flatten(const std::vector<TwoWaySets>& v) {
  std::vector<std::vector<ExtNodeId>> out;
  for (const TwoWaySets& s : v) {
    out.push_back(s.P.nodes());
    out.push_back(s.Q.nodes());
  }
  return out;
}

TEST(GeneratorTest, TwoWayTemplatesAreSeedDeterministic) {
  const auto& ds = SmallDblp();
  const auto a = MakeTwoWayTemplates(ds.graph, ds.areas, 64, 20, 5);
  const auto b = MakeTwoWayTemplates(ds.graph, ds.areas, 64, 20, 5);
  const auto c = MakeTwoWayTemplates(ds.graph, ds.areas, 64, 20, 6);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(Flatten(a), Flatten(b));
  EXPECT_NE(Flatten(a), Flatten(c));
  std::set<std::pair<std::vector<ExtNodeId>, std::vector<ExtNodeId>>> distinct;
  for (const TwoWaySets& t : a) {
    EXPECT_EQ(t.P.size(), 20u);
    EXPECT_NE(t.P.nodes(), t.Q.nodes());
    distinct.insert({t.P.nodes(), t.Q.nodes()});
  }
  EXPECT_EQ(distinct.size(), a.size());
}

TEST(GeneratorTest, StreamsAreSeedDeterministic) {
  EXPECT_EQ(DrawZipfStream(64, 1.0, 1000, 9), DrawZipfStream(64, 1.0, 1000, 9));
  EXPECT_NE(DrawZipfStream(64, 1.0, 1000, 9),
            DrawZipfStream(64, 1.0, 1000, 10));

  auto key = [](const std::vector<NwayRequest>& v) {
    std::vector<std::pair<bool, uint32_t>> out;
    for (const NwayRequest& r : v) out.emplace_back(r.nested_loop, r.template_id);
    return out;
  };
  EXPECT_EQ(key(DrawNwayStream(24, 4, 8, 1.0, 1000, 3)),
            key(DrawNwayStream(24, 4, 8, 1.0, 1000, 3)));
  EXPECT_NE(key(DrawNwayStream(24, 4, 8, 1.0, 1000, 3)),
            key(DrawNwayStream(24, 4, 8, 1.0, 1000, 4)));
  const auto stream = DrawNwayStream(24, 4, 8, 1.0, 800, 3);
  int nl = 0;
  for (const NwayRequest& r : stream) {
    nl += r.nested_loop ? 1 : 0;
    EXPECT_LT(r.template_id, r.nested_loop ? 4u : 24u);
  }
  EXPECT_EQ(nl, 100);  // exactly one in eight
}

TEST(GeneratorTest, NwayTemplatesAreSeedDeterministic) {
  const auto sets = NwaySets();
  auto key = [](const std::vector<NwayTemplate>& v) {
    std::vector<std::pair<bool, std::vector<int>>> out;
    for (const NwayTemplate& t : v) out.emplace_back(t.star, t.areas);
    return out;
  };
  const auto a = MakeNwayTemplates(sets, 24, {3, 4}, 1);
  EXPECT_EQ(key(a), key(MakeNwayTemplates(sets, 24, {3, 4}, 1)));
  EXPECT_NE(key(a), key(MakeNwayTemplates(sets, 24, {3, 4}, 2)));
  std::set<std::pair<bool, std::vector<int>>> distinct;
  for (const NwayTemplate& t : a) {
    distinct.insert({t.star, t.areas});
    const int n = static_cast<int>(t.areas.size());
    EXPECT_TRUE(n == 3 || n == 4);
    EXPECT_EQ(t.query.num_sets(), n);
    EXPECT_EQ(static_cast<int>(t.query.edges().size()), n - 1);
    EXPECT_TRUE(t.query.Validate(SmallDblp().graph).ok());
  }
  EXPECT_EQ(distinct.size(), a.size());
}

TEST(GeneratorTest, ColdRequestsAreSeedDeterministic) {
  const auto& ds = SmallDblp();
  const auto a = MakeColdRequests(ds.graph, ds.areas, 50, 60, 20, 8);
  EXPECT_EQ(Flatten(a), Flatten(MakeColdRequests(ds.graph, ds.areas, 50, 60, 20, 8)));
  EXPECT_NE(Flatten(a), Flatten(MakeColdRequests(ds.graph, ds.areas, 50, 60, 20, 9)));
}

TEST(GeneratorTest, ColdRequestsNeverRepeatACacheKey) {
  // Every 2-way cache key (Y-bound table, batch walk state) contains P,
  // so distinct P sets (and distinct Q sets) mean no key repeats. A
  // small pool makes collisions likely unless the generator redraws.
  const auto& ds = SmallDblp();
  const auto requests = MakeColdRequests(ds.graph, ds.areas, 400, 14, 10, 1);
  std::set<std::vector<ExtNodeId>> p_sets, q_sets, all;
  for (const TwoWaySets& r : requests) {
    EXPECT_EQ(r.P.size(), 10u);
    EXPECT_EQ(r.Q.size(), 10u);
    EXPECT_TRUE(p_sets.insert(r.P.nodes()).second);
    EXPECT_TRUE(q_sets.insert(r.Q.nodes()).second);
    EXPECT_TRUE(all.insert(r.P.nodes()).second);
    EXPECT_TRUE(all.insert(r.Q.nodes()).second);
  }
}

TEST(WorkloadTest, ClientCounts) {
  // Untraced runs average over three vCPUs; the traced nway_pji_nl run
  // reads per-request cache lookups as differences of service-wide
  // counters, which is exact only with one client.
  for (const WorkloadSpec& w : AllWorkloads()) {
    EXPECT_EQ(ClientsOf(w, false), 3) << w.name;
  }
  EXPECT_EQ(ClientsOf(*FindWorkload("nway_pji_nl"), true), 1);
  EXPECT_EQ(ClientsOf(*FindWorkload("twoway_cold_l08"), true), 3);
}

/// Chi-squared goodness of fit of observed template counts to the
/// Zipf(s) probabilities; true when the fit is not rejected at 1%.
bool ZipfFits(const std::vector<uint32_t>& stream, std::size_t n, double s) {
  const ZipfSampler zipf(n, s);
  std::vector<double> observed(n, 0.0);
  for (uint32_t id : stream) observed[id] += 1.0;
  double chi2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double expected = zipf.Probability(j) * static_cast<double>(stream.size());
    chi2 += (observed[j] - expected) * (observed[j] - expected) / expected;
  }
  // Wilson-Hilferty approximation of the chi-squared 99% quantile.
  const double df = static_cast<double>(n - 1);
  const double z = 2.326;
  const double t = 1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df));
  return chi2 < df * t * t * t;
}

TEST(GeneratorTest, ZipfTemplateFrequenciesPassChiSquared) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    EXPECT_TRUE(ZipfFits(DrawZipfStream(64, 1.0, 50000, seed), 64, 1.0))
        << "seed " << seed;
    EXPECT_TRUE(ZipfFits(DrawZipfStream(24, 1.0, 50000, seed), 24, 1.0))
        << "seed " << seed;
  }
  // The test has power: a uniform stream is rejected as Zipf(1).
  EXPECT_FALSE(ZipfFits(DrawZipfStream(64, 0.0, 50000, 1), 64, 1.0));
  double total = 0.0;
  const ZipfSampler zipf(64, 1.0);
  for (std::size_t j = 0; j < 64; ++j) total += zipf.Probability(j);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// ------------------------------------------------------------ closed loop

TEST(ClosedLoopTest, CompletedPlusFailedEqualsAttempted) {
  using Answer = std::vector<ScoredPair>;
  const Answer good = {{1, 2, 0.5}, {3, 4, 0.25}};
  Answer bad = good;
  bad[1].score = std::nextafter(0.25, 1.0);  // one ulp: a byte mismatch
  auto issue = [&](int, Record<Answer>& r) {
    if (r.index % 5 == 0) {
      r.status = dhtjoin::Status::ResourceExhausted("shed");
    } else {
      r.answer = r.index % 7 == 0 ? bad : good;
      r.degraded = r.index % 11 == 0;
    }
  };
  const Phase<Answer> phase = RunClosedLoop<Answer>(
      3, 60.0, 1000, 100, {}, issue);
  ASSERT_EQ(phase.records.size(), 100u);
  for (std::size_t i = 0; i < phase.records.size(); ++i) {
    EXPECT_EQ(phase.records[i].index, static_cast<int64_t>(i));
  }
  std::string first_error;
  const LoopAccount acc =
      Verify(phase, [&](int64_t) -> const Answer& { return good; }, &first_error);
  EXPECT_EQ(acc.attempted, 100);
  EXPECT_TRUE(acc.Balanced());
  int expected_failed = 0;
  for (int i = 0; i < 100; ++i) {
    expected_failed += (i % 5 == 0 || i % 7 == 0 || i % 11 == 0) ? 1 : 0;
  }
  EXPECT_EQ(acc.failed, expected_failed);
  EXPECT_EQ(acc.completed, 100 - expected_failed);
  EXPECT_FALSE(first_error.empty());
  EXPECT_DOUBLE_EQ(acc.FailedFrac(), expected_failed / 100.0);

  LoopAccount merged;
  merged.Merge(acc);
  merged.Merge(acc);
  EXPECT_TRUE(merged.Balanced());
  EXPECT_EQ(merged.attempted, 200);
}

TEST(ClosedLoopTest, WindowStretchesUntilEnoughAnswers) {
  using Answer = std::vector<ScoredPair>;
  auto issue = [](int, Record<Answer>& r) {
    if (r.index % 2 == 1) r.status = dhtjoin::Status::Internal("x");
  };
  // A zero-length window still collects the minimum number of answers.
  const Phase<Answer> phase = RunClosedLoop<Answer>(2, 0.0, 40, 1000, {}, issue);
  EXPECT_GE(phase.Answered(), 40);
  EXPECT_EQ(static_cast<int64_t>(phase.AnsweredLatencies().size()),
            phase.Answered());
}

TEST(ClosedLoopTest, TupleAnswersCompareByBytes) {
  dhtjoin::TupleAnswer t;
  t.nodes = {1, 2, 3};
  t.edge_scores = {0.5, 0.25};
  t.f = 0.25;
  std::vector<dhtjoin::TupleAnswer> a = {t}, b = {t};
  EXPECT_TRUE(SameBytes(a, b));
  b[0].edge_scores[0] = std::nextafter(0.5, 0.0);
  EXPECT_FALSE(SameBytes(a, b));
  b = a;
  b[0].nodes[2] = 4;
  EXPECT_FALSE(SameBytes(a, b));
}

// ------------------------------------------------------------ span scan

TEST(SpanScanTest, SumsDurationsByName) {
  if (!dhtjoin::obs::kEnabled) GTEST_SKIP() << "spans compiled out";
  dhtjoin::obs::FakeClock clock(1000);
  dhtjoin::obs::Trace trace(&clock);
  const auto root = trace.Begin("query.twoway");
  const auto y = trace.Begin("ybound");
  clock.AdvanceNanos(70);
  trace.End(y);
  for (int i = 0; i < 3; ++i) {
    const auto round = trace.Begin("round");
    const auto adv = trace.Begin("b.advance_many");
    trace.SetAttr(adv, "bytes", int64_t{64});
    clock.AdvanceNanos(10);
    trace.End(adv);
    clock.AdvanceNanos(5);
    trace.End(round);
  }
  trace.End(root);
  std::map<std::string, int64_t> totals;
  ASSERT_TRUE(AddSpanTotals(trace.ToJson(), &totals));
  EXPECT_EQ(totals["query.twoway"], 115);
  EXPECT_EQ(totals["ybound"], 70);
  EXPECT_EQ(totals["round"], 45);
  EXPECT_EQ(totals["b.advance_many"], 30);
  EXPECT_EQ(totals.size(), 4u);
  EXPECT_FALSE(AddSpanTotals("{}", &totals));
}

// ------------------------------------------------------------ catalogue

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t CountOf(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(CatalogueTest, MatchesBenchmarkJson) {
  const std::string json =
      ReadFile(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_FALSE(json.empty());
  std::size_t names = 0;
  for (const MetricDef& m : kEndToEnd) {
    EXPECT_EQ(CountOf(json, "\"name\": \"" + std::string(m.name) +
                                "\", \"unit\": \"" + m.unit + "\""),
              1u)
        << m.name;
    ++names;
  }
  for (const MetricDef& m : kPerLayer) {
    EXPECT_EQ(CountOf(json, "\"name\": \"" + std::string(m.name) +
                                "\", \"unit\": \"" + m.unit + "\""),
              1u)
        << m.name;
    ++names;
  }
  for (const WorkloadSpec& w : AllWorkloads()) {
    EXPECT_EQ(CountOf(json, "\"name\": \"" + w.name + "\""), 1u) << w.name;
    ++names;
  }
  // Nothing in BENCHMARK.json that the driver does not print.
  EXPECT_EQ(CountOf(json, "\"name\": "), names);
}

}  // namespace
}  // namespace perfbench
