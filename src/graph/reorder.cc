#include "graph/reorder.h"

#include <algorithm>
#include <numeric>

#include "util/rng.h"

namespace dhtjoin {

Result<ReorderKind> ParseReorderKind(const std::string& name) {
  if (name == "none") return ReorderKind::kNone;
  if (name == "degree") return ReorderKind::kDegree;
  if (name == "rcm") return ReorderKind::kRcm;
  return Status::InvalidArgument("unknown reorder kind '" + name +
                                 "' (expected none|degree|rcm)");
}

const char* ReorderKindName(ReorderKind kind) {
  switch (kind) {
    case ReorderKind::kNone:
      return "none";
    case ReorderKind::kDegree:
      return "degree";
    case ReorderKind::kRcm:
      return "rcm";
  }
  return "?";
}

std::vector<NodeId> DegreeOrder(const Graph& g) {
  std::vector<NodeId> order(static_cast<std::size_t>(g.num_nodes()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    const int64_t da = g.Degree(IntNodeId(a)), db = g.Degree(IntNodeId(b));
    if (da != db) return da > db;
    return g.ToExternal(IntNodeId(a)) < g.ToExternal(IntNodeId(b));
  });
  return order;
}

std::vector<NodeId> RcmOrder(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<uint8_t> visited(static_cast<std::size_t>(n), 0);

  // Component seeds in (degree, external id) order — the classic
  // min-degree start, deterministic across layouts.
  std::vector<NodeId> seeds(static_cast<std::size_t>(n));
  std::iota(seeds.begin(), seeds.end(), 0);
  std::sort(seeds.begin(), seeds.end(), [&g](NodeId a, NodeId b) {
    const int64_t da = g.Degree(IntNodeId(a)), db = g.Degree(IntNodeId(b));
    if (da != db) return da < db;
    return g.ToExternal(IntNodeId(a)) < g.ToExternal(IntNodeId(b));
  });

  std::vector<NodeId> nbrs;
  for (NodeId seed : seeds) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    visited[static_cast<std::size_t>(seed)] = 1;
    std::size_t head = order.size();
    order.push_back(seed);
    while (head < order.size()) {
      NodeId u = order[head++];
      // Symmetrized neighbourhood, deduped (rows are canonically
      // sorted, but out- and in-rows may share nodes).
      nbrs.clear();
      for (const OutEdge& e : g.OutEdges(IntNodeId(u))) nbrs.push_back(e.to);
      for (const InEdge& e : g.InEdges(IntNodeId(u))) nbrs.push_back(e.from);
      std::sort(nbrs.begin(), nbrs.end());
      nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
      std::sort(nbrs.begin(), nbrs.end(), [&g](NodeId a, NodeId b) {
        const int64_t da = g.Degree(IntNodeId(a)), db = g.Degree(IntNodeId(b));
        if (da != db) return da < db;
        return g.ToExternal(IntNodeId(a)) < g.ToExternal(IntNodeId(b));
      });
      for (NodeId v : nbrs) {
        if (visited[static_cast<std::size_t>(v)]) continue;
        visited[static_cast<std::size_t>(v)] = 1;
        order.push_back(v);
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

Result<Graph> ApplyNodePermutation(const Graph& g,
                                   std::span<const NodeId> new_to_old) {
  const NodeId n = g.num_nodes();
  if (static_cast<NodeId>(new_to_old.size()) != n) {
    return Status::InvalidArgument(
        "permutation size " + std::to_string(new_to_old.size()) +
        " != num_nodes " + std::to_string(n));
  }
  // Validate it is a permutation of g's internal ids and build the
  // inverse (g-internal -> new internal).
  std::vector<NodeId> inv(static_cast<std::size_t>(n), kInvalidNode);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId u = new_to_old[static_cast<std::size_t>(i)];
    if (u < 0 || u >= n || inv[static_cast<std::size_t>(u)] != kInvalidNode) {
      return Status::InvalidArgument(
          "new_to_old is not a permutation of [0, num_nodes)");
    }
    inv[static_cast<std::size_t>(u)] = i;
  }

  // Compose the external mapping through g's existing remap: external
  // ids are ALWAYS construction-time ids, no matter how many times a
  // graph is re-laid-out.
  std::vector<NodeId> ext_of_new(static_cast<std::size_t>(n));
  bool identity = true;
  for (NodeId i = 0; i < n; ++i) {
    const NodeId ext =
        g.ToExternal(IntNodeId(new_to_old[static_cast<std::size_t>(i)]))
            .value();
    ext_of_new[static_cast<std::size_t>(i)] = ext;
    identity = identity && ext == i;
  }

  Graph out;
  out.caches_ = std::make_shared<Graph::LazyCaches>();
  if (!identity) {
    out.new_to_old_ = ext_of_new;
    out.old_to_new_.assign(static_cast<std::size_t>(n), kInvalidNode);
    for (NodeId i = 0; i < n; ++i) {
      out.old_to_new_[static_cast<std::size_t>(
          ext_of_new[static_cast<std::size_t>(i)])] = i;
    }
    // Content-derived layout epoch (stable across processes).
    uint64_t state = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(n);
    uint64_t epoch = 0xcbf29ce484222325ULL;
    for (NodeId ext : ext_of_new) {
      state ^= static_cast<uint64_t>(static_cast<uint32_t>(ext));
      epoch = SplitMix64(state) ^ (epoch * 0x100000001b3ULL);
    }
    out.layout_epoch_ = epoch == 0 ? 1 : epoch;
  }

  // Out-CSR: row i is g's row new_to_old[i] with targets relabelled.
  // g's rows are sorted by canonical target and relabelling preserves
  // canonical ids, so the copied order IS the canonical order; weights
  // and probabilities move bit-exactly.
  out.out_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  out.out_edges_.reserve(static_cast<std::size_t>(g.num_edges()));
  out.out_weights_.reserve(static_cast<std::size_t>(g.num_edges()));
  for (NodeId i = 0; i < n; ++i) {
    const NodeId src = new_to_old[static_cast<std::size_t>(i)];
    auto row = g.OutEdges(IntNodeId(src));
    auto weights = g.OutWeights(IntNodeId(src));
    for (std::size_t e = 0; e < row.size(); ++e) {
      out.out_edges_.push_back(
          OutEdge{inv[static_cast<std::size_t>(row[e].to)], row[e].prob});
      out.out_weights_.push_back(weights[e]);
    }
    out.out_offsets_[static_cast<std::size_t>(i) + 1] =
        static_cast<int64_t>(out.out_edges_.size());
  }

  // In-CSR via counting sort, visiting sources in CANONICAL order so
  // every in-row comes out sorted by canonical source.
  out.in_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const OutEdge& e : out.out_edges_) {
    out.in_offsets_[static_cast<std::size_t>(e.to) + 1]++;
  }
  for (NodeId u = 0; u < n; ++u) {
    out.in_offsets_[static_cast<std::size_t>(u) + 1] +=
        out.in_offsets_[static_cast<std::size_t>(u)];
  }
  out.in_edges_.resize(out.out_edges_.size());
  std::vector<int64_t> cursor(out.in_offsets_.begin(),
                              out.in_offsets_.end() - 1);
  for (NodeId ext = 0; ext < n; ++ext) {
    const NodeId u = out.ToInternal(ExtNodeId(ext)).value();
    const auto begin = out.out_offsets_[static_cast<std::size_t>(u)];
    const auto end = out.out_offsets_[static_cast<std::size_t>(u) + 1];
    for (auto e = begin; e < end; ++e) {
      const OutEdge& edge = out.out_edges_[static_cast<std::size_t>(e)];
      out.in_edges_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(edge.to)]++)] =
          InEdge{u, edge.prob};
    }
  }
  return out;
}

Result<Graph> ReorderGraph(const Graph& g, ReorderKind kind) {
  switch (kind) {
    case ReorderKind::kNone: {
      std::vector<NodeId> id(static_cast<std::size_t>(g.num_nodes()));
      std::iota(id.begin(), id.end(), 0);
      return ApplyNodePermutation(g, id);
    }
    case ReorderKind::kDegree:
      return ApplyNodePermutation(g, DegreeOrder(g));
    case ReorderKind::kRcm:
      return ApplyNodePermutation(g, RcmOrder(g));
  }
  return Status::InvalidArgument("unknown reorder kind");
}

}  // namespace dhtjoin
