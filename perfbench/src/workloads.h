/// \file perfbench/src/workloads.h
/// \brief Seeded input generators of the four benchmark workloads.
///
/// Every generator is a pure function of its arguments: the same seed
/// gives the same templates and the same request stream, so a run is
/// reproducible from `--seed` alone. The graphs themselves are the
/// fixed-seed DBLP-like stand-ins of bench/bench_common.h; the seed
/// drives only which queries are asked, in which order.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/query_graph.h"
#include "graph/graph.h"
#include "graph/node_set.h"
#include "util/rng.h"

namespace perfbench {

using dhtjoin::Graph;
using dhtjoin::NodeSet;
using dhtjoin::QueryGraph;

/// Fixed parameters of one workload (README.md explains each choice).
struct WorkloadSpec {
  std::string name;
  int authors = 0;        ///< DBLP-like graph size
  double lambda = 0.2;    ///< DHT decay
  int d = 8;              ///< truncation depth (epsilon = 1e-6)
  std::size_t k = 50;
  std::size_t set_size = 0;   ///< |P| = |Q| (2-way) or per-attribute size
  std::size_t templates = 0;  ///< Zipf template pool (0 = no templates)
  int clients = 1;            ///< closed-loop client threads
  /// Clients of a traced run; 0 = `clients`. One where the per-query
  /// counts are read as differences of service-wide counters.
  int traced_clients = 0;
  int pool_threads = 0;       ///< service pool; 0 = hardware concurrency
  int workers = 0;            ///< cluster worker processes
};

/// Client threads of an untraced or a traced run of `spec`.
inline int ClientsOf(const WorkloadSpec& spec, bool traced) {
  return traced && spec.traced_clients > 0 ? spec.traced_clients
                                           : spec.clients;
}

/// The four workloads, by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// Zipf(s) over ranks 0..n-1: P(rank j) proportional to 1/(j+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Draw(dhtjoin::Rng& rng) const;
  double Probability(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
};

/// A 2-way query's operands.
struct TwoWaySets {
  NodeSet P;
  NodeSet Q;
};

/// `count` distinct ordered pairs of areas, each trimmed to its
/// `set_size` top-degree members. Template i has Zipf rank i, so the
/// seed decides which area pairs are popular.
std::vector<TwoWaySets> MakeTwoWayTemplates(const Graph& g,
                                            const std::vector<NodeSet>& areas,
                                            std::size_t count,
                                            std::size_t set_size,
                                            uint64_t seed);

/// A request stream of `length` template ids drawn Zipf(s).
std::vector<uint32_t> DrawZipfStream(std::size_t num_templates, double s,
                                     std::size_t length, uint64_t seed);

/// `count` one-off requests: P and Q are fresh samples of `set_size`
/// nodes from the `pool` top-degree members of two distinct areas. No
/// two requests share a P or a Q, so no cache key repeats (every 2-way
/// payload key contains P).
std::vector<TwoWaySets> MakeColdRequests(const Graph& g,
                                         const std::vector<NodeSet>& areas,
                                         std::size_t count, std::size_t pool,
                                         std::size_t set_size, uint64_t seed);

/// One n-way query template: a chain or a star over n distinct areas.
struct NwayTemplate {
  bool star = false;
  std::vector<int> areas;  ///< indices into the area list; [0] is the hub
  QueryGraph query;
};

/// `count` distinct templates with n drawn from `sizes` and the shape
/// from {chain, star}.
std::vector<NwayTemplate> MakeNwayTemplates(const std::vector<NodeSet>& sets,
                                            std::size_t count,
                                            const std::vector<int>& sizes,
                                            uint64_t seed);

/// One n-way request: an NL request or a PJ-i request, by template.
struct NwayRequest {
  bool nested_loop = false;
  uint32_t template_id = 0;
};

/// Every `nl_every`-th request is NL over a uniformly drawn NL
/// template; the others are PJ-i drawn Zipf(s) over the PJ-i templates.
std::vector<NwayRequest> DrawNwayStream(std::size_t num_pji,
                                        std::size_t num_nl, int nl_every,
                                        double s, std::size_t length,
                                        uint64_t seed);

/// Derives an independent generator seed for one purpose of a run.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
