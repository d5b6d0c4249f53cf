#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "util/check.h"

namespace perfbench {

using dhtjoin::ExtNodeId;
using dhtjoin::Rng;

namespace {

/// Fisher-Yates prefix: the first `take` elements become a uniform
/// sample without replacement.
template <typename T>
void ShufflePrefix(std::vector<T>& v, std::size_t take, Rng& rng) {
  take = std::min(take, v.size());
  for (std::size_t i = 0; i < take; ++i) {
    std::swap(v[i], v[i + rng.Below(v.size() - i)]);
  }
}

/// The query graph of a chain (a0 -> a1 -> ...) or a star (a0 -> ai
/// for every i > 0).
QueryGraph MakeNwayQuery(const std::vector<NodeSet>& sets, bool star,
                         const std::vector<int>& areas) {
  QueryGraph q;
  std::vector<int> attr;
  for (int a : areas) attr.push_back(q.AddNodeSet(sets[static_cast<std::size_t>(a)]));
  for (std::size_t i = 1; i < attr.size(); ++i) {
    // Indices are distinct and in range by construction, so AddEdge
    // cannot fail here.
    (void)q.AddEdge(star ? attr[0] : attr[i - 1], attr[i]);
  }
  return q;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {.name = "twoway_zipf_warm", .authors = 15000, .lambda = 0.2, .d = 8,
       .k = 50, .set_size = 100, .templates = 64, .clients = 3,
       .pool_threads = 0, .workers = 0},
      {.name = "twoway_cold_l08", .authors = 2000, .lambda = 0.8, .d = 76,
       .k = 50, .set_size = 50, .templates = 0, .clients = 3,
       .pool_threads = 0, .workers = 0},
      {.name = "nway_pji_nl", .authors = 3000, .lambda = 0.2, .d = 8,
       .k = 50, .set_size = 40, .templates = 24, .clients = 3,
       .traced_clients = 1, .pool_threads = 0, .workers = 0},
      {.name = "twoway_cluster", .authors = 15000, .lambda = 0.2, .d = 8,
       .k = 50, .set_size = 100, .templates = 64, .clients = 3,
       .pool_threads = 2, .workers = 2},
  };
  return kSpecs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    total += std::pow(static_cast<double>(j + 1), -s);
    cdf_[j] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Draw(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto j = static_cast<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(j, cdf_.size() - 1);
}

double ZipfSampler::Probability(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t state = seed ^ (purpose * 0x9e3779b97f4a7c15ULL);
  return dhtjoin::SplitMix64(state);
}

std::vector<TwoWaySets> MakeTwoWayTemplates(const Graph& g,
                                            const std::vector<NodeSet>& areas,
                                            std::size_t count,
                                            std::size_t set_size,
                                            uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < areas.size(); ++a) {
    for (std::size_t b = 0; b < areas.size(); ++b) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  Rng rng(seed);
  ShufflePrefix(pairs, count, rng);
  pairs.resize(std::min(count, pairs.size()));
  std::vector<NodeSet> top;
  top.reserve(areas.size());
  for (const NodeSet& area : areas) top.push_back(area.TopByDegree(g, set_size));
  std::vector<TwoWaySets> out;
  out.reserve(pairs.size());
  for (const auto& [a, b] : pairs) out.push_back({top[a], top[b]});
  return out;
}

std::vector<uint32_t> DrawZipfStream(std::size_t num_templates, double s,
                                     std::size_t length, uint64_t seed) {
  const ZipfSampler zipf(num_templates, s);
  Rng rng(seed);
  std::vector<uint32_t> stream(length);
  for (uint32_t& id : stream) id = static_cast<uint32_t>(zipf.Draw(rng));
  return stream;
}

std::vector<TwoWaySets> MakeColdRequests(const Graph& g,
                                         const std::vector<NodeSet>& areas,
                                         std::size_t count, std::size_t pool,
                                         std::size_t set_size, uint64_t seed) {
  std::vector<std::vector<ExtNodeId>> tops;
  tops.reserve(areas.size());
  for (const NodeSet& area : areas) {
    tops.push_back(area.TopByDegree(g, pool).nodes());
  }
  Rng rng(seed);
  std::set<std::vector<ExtNodeId>> seen;
  auto sample = [&](std::size_t area) {
    for (int attempt = 0;; ++attempt) {
      // Only a pool too small for `count` distinct samples gets here.
      DHTJOIN_CHECK_LT(attempt, 1000);
      std::vector<ExtNodeId> nodes = tops[area];
      ShufflePrefix(nodes, set_size, rng);
      nodes.resize(std::min(set_size, nodes.size()));
      std::sort(nodes.begin(), nodes.end());
      // A repeat would share a cache key with an earlier request;
      // redraw (with C(pool, set_size) choices this almost never runs).
      if (seen.insert(nodes).second) return NodeSet("sample", nodes);
    }
  };
  std::vector<TwoWaySets> out;
  out.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t a = rng.Below(areas.size());
    std::size_t b = rng.Below(areas.size() - 1);
    if (b >= a) ++b;
    NodeSet P = sample(a);
    NodeSet Q = sample(b);
    out.push_back({std::move(P), std::move(Q)});
  }
  return out;
}

std::vector<NwayTemplate> MakeNwayTemplates(const std::vector<NodeSet>& sets,
                                            std::size_t count,
                                            const std::vector<int>& sizes,
                                            uint64_t seed) {
  Rng rng(seed);
  std::set<std::pair<bool, std::vector<int>>> seen;
  std::vector<NwayTemplate> out;
  while (out.size() < count) {
    const int n = sizes[rng.Below(sizes.size())];
    const bool star = rng.Chance(0.5);
    std::vector<int> order(sets.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    ShufflePrefix(order, static_cast<std::size_t>(n), rng);
    order.resize(static_cast<std::size_t>(n));
    if (!seen.insert({star, order}).second) continue;
    NwayTemplate t;
    t.star = star;
    t.areas = order;
    t.query = MakeNwayQuery(sets, star, order);
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<NwayRequest> DrawNwayStream(std::size_t num_pji,
                                        std::size_t num_nl, int nl_every,
                                        double s, std::size_t length,
                                        uint64_t seed) {
  const ZipfSampler zipf(num_pji, s);
  Rng rng(seed);
  std::vector<NwayRequest> stream(length);
  for (std::size_t i = 0; i < length; ++i) {
    NwayRequest& r = stream[i];
    r.nested_loop = (i + 1) % static_cast<std::size_t>(nl_every) == 0;
    r.template_id = static_cast<uint32_t>(r.nested_loop ? rng.Below(num_nl)
                                                        : zipf.Draw(rng));
  }
  return stream;
}

}  // namespace perfbench
