/// \file graph/reorder.h
/// \brief Cache-conscious graph layouts: degree and reverse-Cuthill–
/// McKee node reordering with external-id remapping.
///
/// The hot paths of every engine in the repo stream the CSR: the dense
/// backward gather reads mass[e.to] for every out-edge, the batch
/// engines do the same 8 lanes at a time, and the sparse pushes scatter
/// into mass[] at the frontier's neighbours. With the insertion-ordered
/// layout those accesses are as scattered as the generator happened to
/// emit ids. Reordering the PHYSICAL layout fixes that without touching
/// any algorithm:
///
///  * kDegree — hubs first (descending total degree). On heavy-tailed
///    graphs most gather traffic targets a few hub rows ("It's all a
///    matter of degree", Joglekar & Ré; "Skew Strikes Back", Ngo et
///    al.): packing them into the first cache lines of mass[] turns the
///    dominant accesses into L1/L2 hits.
///  * kRcm — reverse Cuthill–McKee over the symmetrized adjacency:
///    neighbours get nearby ids, shrinking the bandwidth of the
///    scattered reads for mesh-like regions.
///
/// The reordered Graph carries old<->new remap tables (Graph::
/// ToInternal / ToExternal); the walk engines translate at their
/// public boundaries, and every engine keeps floating-point
/// accumulation in CANONICAL (external-id) order, so all scores,
/// rankings, and tie-breaks are bit-identical to the insertion-ordered
/// graph (DESIGN.md §7). `bench_reorder` gates the speedup and the
/// byte-identity.

#ifndef DHTJOIN_GRAPH_REORDER_H_
#define DHTJOIN_GRAPH_REORDER_H_

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace dhtjoin {

/// Which permutation ReorderGraph computes.
enum class ReorderKind {
  kNone,    ///< keep the current layout (ReorderGraph returns a copy)
  kDegree,  ///< descending total degree, ties by external id
  kRcm,     ///< reverse Cuthill–McKee on the symmetrized adjacency
};

/// Parses "none" | "degree" | "rcm" (the CLI's --reorder values).
Result<ReorderKind> ParseReorderKind(const std::string& name);

const char* ReorderKindName(ReorderKind kind);

/// Degree-descending permutation of `g`: returns new_to_old over g's
/// INTERNAL ids (entry i = the g-node that becomes node i). Ties break
/// by ascending external id, so the permutation is layout-independent.
std::vector<NodeId> DegreeOrder(const Graph& g);

/// Reverse Cuthill–McKee permutation of `g` (same conventions as
/// DegreeOrder). Components are seeded at their minimum-degree node;
/// neighbours expand in (degree, external id) order; the final order is
/// reversed, per RCM.
std::vector<NodeId> RcmOrder(const Graph& g);

/// Rebuilds both CSRs of `g` in the layout given by `new_to_old`
/// (entry i = the g-internal node that becomes internal node i) and
/// composes the external-id remap through any reordering `g` already
/// carries. Edge weights and transition probabilities are copied
/// bit-exactly, and rows keep their canonical (external-id) sort order,
/// so walks on the result are bit-identical to walks on `g`.
/// A permutation composing to the identity returns the insertion-
/// ordered graph (no remap, layout_epoch 0).
Result<Graph> ApplyNodePermutation(const Graph& g,
                                   std::span<const NodeId> new_to_old);

/// DegreeOrder/RcmOrder + ApplyNodePermutation in one call.
Result<Graph> ReorderGraph(const Graph& g, ReorderKind kind);

}  // namespace dhtjoin

#endif  // DHTJOIN_GRAPH_REORDER_H_
