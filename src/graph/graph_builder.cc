#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace dhtjoin {

GraphBuilder::GraphBuilder(NodeId num_nodes, bool undirected)
    : num_nodes_(num_nodes), undirected_(undirected) {
  DHTJOIN_CHECK_GE(num_nodes, 0);
}

Status GraphBuilder::AddEdge(NodeId u, NodeId v, double w) {
  if (u < 0 || u >= num_nodes_ || v < 0 || v >= num_nodes_) {
    return Status::InvalidArgument(
        "edge (" + std::to_string(u) + ", " + std::to_string(v) +
        ") references a node outside [0, " + std::to_string(num_nodes_) +
        ")");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loop on node " + std::to_string(u));
  }
  if (!(w > 0.0)) {
    return Status::InvalidArgument("edge weight must be positive, got " +
                                   std::to_string(w));
  }
  edges_.push_back(PendingEdge{u, v, w});
  if (undirected_) edges_.push_back(PendingEdge{v, u, w});
  return Status::OK();
}

bool GraphBuilder::HasPendingEdge(NodeId u, NodeId v) const {
  for (const auto& e : edges_) {
    if (e.from == u && e.to == v) return true;
  }
  return false;
}

Result<Graph> GraphBuilder::Build() {
  std::sort(edges_.begin(), edges_.end(),
            [](const PendingEdge& a, const PendingEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });

  Graph g;
  g.out_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  g.out_edges_.reserve(edges_.size());

  // Dedup consecutive duplicates, accumulating weight.
  for (std::size_t i = 0; i < edges_.size();) {
    std::size_t j = i;
    double w = 0.0;
    while (j < edges_.size() && edges_[j].from == edges_[i].from &&
           edges_[j].to == edges_[i].to) {
      w += edges_[j].weight;
      ++j;
    }
    g.out_edges_.push_back(OutEdge{edges_[i].to, 0.0});
    g.out_weights_.push_back(w);
    g.out_offsets_[static_cast<std::size_t>(edges_[i].from) + 1]++;
    i = j;
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    g.out_offsets_[static_cast<std::size_t>(u) + 1] +=
        g.out_offsets_[static_cast<std::size_t>(u)];
  }

  // Transition probabilities p_uv = w_uv / total out-weight.
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto begin = g.out_offsets_[static_cast<std::size_t>(u)];
    auto end = g.out_offsets_[static_cast<std::size_t>(u) + 1];
    double total = 0.0;
    for (auto e = begin; e < end; ++e) {
      total += g.out_weights_[static_cast<std::size_t>(e)];
    }
    if (total > 0.0) {
      for (auto e = begin; e < end; ++e) {
        g.out_edges_[static_cast<std::size_t>(e)].prob =
            g.out_weights_[static_cast<std::size_t>(e)] / total;
      }
    }
  }

  // Transposed adjacency (in-edges with transition probabilities) via
  // counting sort over deduped edges. Runs after the probability pass so
  // each InEdge carries the finalized p_uv of its out-edge twin.
  g.in_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const auto& e : g.out_edges_) {
    g.in_offsets_[static_cast<std::size_t>(e.to) + 1]++;
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    g.in_offsets_[static_cast<std::size_t>(u) + 1] +=
        g.in_offsets_[static_cast<std::size_t>(u)];
  }
  g.in_edges_.resize(g.out_edges_.size());
  std::vector<int64_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto begin = g.out_offsets_[static_cast<std::size_t>(u)];
    auto end = g.out_offsets_[static_cast<std::size_t>(u) + 1];
    for (auto e = begin; e < end; ++e) {
      const OutEdge& edge = g.out_edges_[static_cast<std::size_t>(e)];
      g.in_edges_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(edge.to)]++)] =
          InEdge{u, edge.prob};
    }
  }
  // Sources arrive in ascending order (outer loop over u), rows sorted.

  edges_.clear();
  edges_.shrink_to_fit();
  g.caches_ = std::make_shared<Graph::LazyCaches>();
  return g;
}

}  // namespace dhtjoin
