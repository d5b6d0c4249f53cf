/// \file bench/bench_micro_walkers.cc
/// \brief Micro timings of the DHT walk engine against the plain dense
/// reference loops of tests/testing/reference.h:
///   dense    — RefBackwardScores / RefForwardScore, the seed's full
///              O(n + m)-per-step sweep, one walk at a time;
///   adaptive — the frontier-adaptive batch engine driven one walk per
///              call (a single live lane — the shape of PJ-i's Next()
///              refinements and NL's per-tuple fallback);
///   batched  — BackwardWalkerBatch / ForwardWalkerBatch over the whole
///              target set (kLaneWidth walkers per edge pass, blocks
///              fanned across the pool).
/// The d-step backward evaluation on the DBLP-like dataset is the
/// paper-critical inner loop (B-BJ/B-IDJ/PJ-i bottom out in it); the
/// forward pair sweep is the slow side of Fig. 9(a) that the forward
/// batch lifts. Results are printed and also written to
/// BENCH_walkers.json for the perf trajectory (a committed baseline
/// lives at bench/baselines/BENCH_walkers.json). Every engine score is
/// checked against the dense reference to 1e-12 as part of the run (the
/// engine sums in the reference's order, so the observed difference is
/// 0), the Y-bound table is checked against RefYBound exactly at
/// lambda = 0.2 (d = 8) and 0.8 (d = 76), and the resumable deepening
/// paths of B-IDJ / F-IDJ are checked byte-identical to their restart
/// schedules with strictly fewer walk_steps — a fast-but-wrong engine
/// fails loudly here.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "dht/backward_batch.h"
#include "dht/bounds.h"
#include "dht/forward_batch.h"
#include "graph/reorder.h"
#include "join2/b_idj.h"
#include "join2/f_idj.h"
#include "testing/reference.h"

using namespace dhtjoin;         // NOLINT
using namespace dhtjoin::bench;  // NOLINT
using dhtjoin::testing::RefBackwardScores;
using dhtjoin::testing::RefForwardScore;
using dhtjoin::testing::RefYBound;

namespace {

/// Targets/sources used for the backward comparison; big enough to
/// amortize per-walk noise, small enough that the dense loop finishes.
constexpr std::size_t kNumTargets = 64;
constexpr std::size_t kNumSources = 200;

struct BackwardResult {
  double dense_sec_per_target = 0.0;
  double adaptive_sec_per_target = 0.0;
  double batched_sec_per_target = 0.0;
  double max_abs_diff = 0.0;  // adaptive & batched vs dense scores
};

BackwardResult RunBackwardComparison(const Graph& g, const DhtParams& p,
                                     int d,
                                     const std::vector<ExtNodeId>& targets,
                                     const std::vector<ExtNodeId>& sources,
                                     int repeats) {
  BackwardResult r;

  // Dense reference: the plain loop over every CSR row, one target at a
  // time (the seed engine's cost model).
  std::vector<double> dense_scores(targets.size() * sources.size());
  r.dense_sec_per_target = TimeIt(repeats, [&] {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const std::vector<double> row = RefBackwardScores(g, p, d, targets[t]);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        dense_scores[t * sources.size() + s] =
            row[static_cast<std::size_t>(sources[s].value())];
      }
    }
  }) / static_cast<double>(targets.size());

  // Frontier-adaptive engine, one target (one live lane) per call. The
  // engine (and its thread pool) is a fixture, mirroring how joins
  // reuse one evaluator — thread spawn must not be charged per repeat.
  std::vector<double> adaptive_scores(dense_scores.size());
  BackwardWalkerBatch single(g, {.num_threads = 1});
  r.adaptive_sec_per_target = TimeIt(repeats, [&] {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      std::vector<double> row = single.Run(p, d, {&targets[t], 1}, sources);
      std::copy(row.begin(), row.end(),
                adaptive_scores.begin() +
                    static_cast<std::ptrdiff_t>(t * sources.size()));
    }
  }) / static_cast<double>(targets.size());

  // Sparse + batched: the B-BJ/B-IDJ configuration.
  std::vector<double> batched_scores;
  BackwardWalkerBatch batch(g);
  r.batched_sec_per_target = TimeIt(repeats, [&] {
    batched_scores = batch.Run(p, d, targets, sources);
  }) / static_cast<double>(targets.size());

  for (std::size_t i = 0; i < dense_scores.size(); ++i) {
    r.max_abs_diff = std::max(
        r.max_abs_diff, std::abs(adaptive_scores[i] - dense_scores[i]));
    r.max_abs_diff = std::max(
        r.max_abs_diff, std::abs(batched_scores[i] - dense_scores[i]));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: physical layout to run the whole suite under
  // (none|degree|rcm). CI runs the smoke with reordering on AND off;
  // every agreement/parity gate below must hold in every layout
  // (results are bit-identical across layouts by DESIGN.md §7).
  ReorderKind reorder = ReorderKind::kNone;
  if (argc > 1) {
    auto parsed = ParseReorderKind(argv[1]);
    CheckOk(parsed.status(), "parse reorder kind");
    reorder = *parsed;
  }
  auto ds = MakeDblp();
  Graph reordered;
  if (reorder != ReorderKind::kNone) {
    reordered = Unwrap(ReorderGraph(ds.graph, reorder), "ReorderGraph");
  }
  const Graph& g = reorder == ReorderKind::kNone ? ds.graph : reordered;
  DhtParams p = DhtParams::Lambda(0.2);
  std::printf("[setup] n=%d m=%lld layout=%s\n", g.num_nodes(),
              static_cast<long long>(g.num_edges()),
              ReorderKindName(reorder));

  // Spread targets across the id space; sources likewise.
  std::vector<ExtNodeId> targets, sources;
  for (std::size_t i = 0; i < kNumTargets; ++i) {
    targets.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 131 + 17) % static_cast<std::size_t>(g.num_nodes()))));
  }
  for (std::size_t i = 0; i < kNumSources; ++i) {
    sources.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 37 + 5) % static_cast<std::size_t>(g.num_nodes()))));
  }

  std::vector<JsonObject> rows;
  double headline_speedup = 0.0;
  double headline_diff = 0.0;
  std::printf("\nbackward d-step evaluation, per target (DBLP-like):\n");
  std::printf("%4s %14s %14s %14s %9s %9s %12s\n", "d", "dense(ms)",
              "adaptive(ms)", "batched(ms)", "adp x", "batch x", "max|diff|");
  for (int d : {2, 8, 16}) {
    const int repeats = d <= 8 ? 3 : 2;
    BackwardResult r =
        RunBackwardComparison(g, p, d, targets, sources, repeats);
    double adaptive_speedup = r.dense_sec_per_target /
                              std::max(r.adaptive_sec_per_target, 1e-12);
    double batched_speedup = r.dense_sec_per_target /
                             std::max(r.batched_sec_per_target, 1e-12);
    std::printf("%4d %14.3f %14.3f %14.3f %8.1fx %8.1fx %12.2e\n", d,
                r.dense_sec_per_target * 1e3, r.adaptive_sec_per_target * 1e3,
                r.batched_sec_per_target * 1e3, adaptive_speedup,
                batched_speedup, r.max_abs_diff);
    if (r.max_abs_diff > 1e-12) {
      std::fprintf(stderr,
                   "FAIL: engines disagree beyond 1e-12 at d=%d (%.3e)\n", d,
                   r.max_abs_diff);
      return 1;
    }
    if (d == 8) {  // the paper's default depth is the headline number
      headline_speedup = batched_speedup;
      headline_diff = r.max_abs_diff;
    }
    rows.push_back(JsonObject()
                       .Set("d", d)
                       .Set("dense_ms_per_target", r.dense_sec_per_target * 1e3)
                       .Set("adaptive_ms_per_target",
                            r.adaptive_sec_per_target * 1e3)
                       .Set("batched_ms_per_target",
                            r.batched_sec_per_target * 1e3)
                       .Set("adaptive_speedup", adaptive_speedup)
                       .Set("batched_speedup", batched_speedup)
                       .Set("max_abs_score_diff", r.max_abs_diff));
  }

  // Forward single-pair micro numbers (the F-BJ inner loop): the dense
  // reference loop vs the engine on one live lane.
  std::printf("\nforward pair computation (d=8):\n");
  ExtNodeId u = ds.areas[0][0];
  ExtNodeId v = ds.areas[1][0];
  double fwd_dense = 0.0, fwd_adaptive = 0.0;
  {
    double dense_score = 0.0, adaptive_score = 0.0;
    ForwardWalkerBatch single(g, {.num_threads = 1});
    fwd_dense =
        TimeIt(3, [&] { dense_score = RefForwardScore(g, p, 8, u, v); });
    fwd_adaptive = TimeIt(
        3, [&] { adaptive_score = single.Run(p, 8, {&u, 1}, {&v, 1})[0]; });
    if (std::abs(dense_score - adaptive_score) > 1e-12) {
      std::fprintf(stderr, "FAIL: forward engine disagrees with reference\n");
      return 1;
    }
  }
  std::printf("  dense %.3f ms, adaptive %.3f ms (%.1fx)\n", fwd_dense * 1e3,
              fwd_adaptive * 1e3, fwd_dense / std::max(fwd_adaptive, 1e-12));

  // Forward batch vs the per-pair dense reference loop (the F-BJ/F-IDJ
  // inner sweep): same per-pair walks, one out-CSR pass per kLaneWidth
  // lanes.
  constexpr std::size_t kFwdSources = 24;
  constexpr std::size_t kFwdTargets = 12;
  std::vector<ExtNodeId> fwd_sources, fwd_targets;
  for (std::size_t i = 0; i < kFwdSources; ++i) {
    fwd_sources.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 211 + 3) % static_cast<std::size_t>(g.num_nodes()))));
  }
  for (std::size_t i = 0; i < kFwdTargets; ++i) {
    fwd_targets.push_back(ExtNodeId(static_cast<NodeId>(
        (i * 97 + 41) % static_cast<std::size_t>(g.num_nodes()))));
  }
  const double num_pairs =
      static_cast<double>(kFwdSources) * static_cast<double>(kFwdTargets);
  std::vector<double> fwd_reference_scores(fwd_sources.size() *
                                           fwd_targets.size());
  double fwd_reference_sec = TimeIt(2, [&] {
    for (std::size_t s = 0; s < fwd_sources.size(); ++s) {
      for (std::size_t t = 0; t < fwd_targets.size(); ++t) {
        if (fwd_sources[s] == fwd_targets[t]) continue;
        fwd_reference_scores[s * fwd_targets.size() + t] =
            RefForwardScore(g, p, 8, fwd_sources[s], fwd_targets[t]);
      }
    }
  }) / num_pairs;
  std::vector<double> fwd_batch_scores;
  ForwardWalkerBatch fwd_batch(g);
  double fwd_batch_sec = TimeIt(2, [&] {
    fwd_batch_scores = fwd_batch.Run(p, 8, fwd_sources, fwd_targets);
  }) / num_pairs;
  double fwd_batch_diff = 0.0;
  for (std::size_t s = 0; s < fwd_sources.size(); ++s) {
    for (std::size_t t = 0; t < fwd_targets.size(); ++t) {
      if (fwd_sources[s] == fwd_targets[t]) continue;
      fwd_batch_diff = std::max(
          fwd_batch_diff,
          std::abs(fwd_batch_scores[s * fwd_targets.size() + t] -
                   fwd_reference_scores[s * fwd_targets.size() + t]));
    }
  }
  double fwd_batch_speedup =
      fwd_reference_sec / std::max(fwd_batch_sec, 1e-12);
  std::printf("\nforward batch, %zux%zu pairs (d=8): reference %.3f ms/pair, "
              "batched %.3f ms/pair (%.1fx), max|diff| %.2e\n",
              kFwdSources, kFwdTargets, fwd_reference_sec * 1e3,
              fwd_batch_sec * 1e3, fwd_batch_speedup, fwd_batch_diff);
  if (fwd_batch_diff > 1e-12) {
    std::fprintf(stderr,
                 "FAIL: forward batch/reference disagree beyond 1e-12 "
                 "(%.3e)\n",
                 fwd_batch_diff);
    return 1;
  }

  // Resumable deepening acceptance: B-IDJ and F-IDJ must produce
  // byte-identical top-k with strictly fewer walk_steps than the
  // restart schedule, on this DBLP-like graph.
  NodeSet rp = ds.areas[0].TopByDegree(g, 100);
  NodeSet rq = ds.areas[1].TopByDegree(g, 100);
  BIdjJoin bidj_resume(BIdjJoin::Options{.resume = true});
  BIdjJoin bidj_restart(BIdjJoin::Options{.resume = false});
  auto bidj_a = bidj_resume.Run(g, p, 8, rp, rq, 50);
  auto bidj_b = bidj_restart.Run(g, p, 8, rp, rq, 50);
  CheckOk(bidj_a.status(), "B-IDJ resume");
  CheckOk(bidj_b.status(), "B-IDJ restart");
  bool bidj_identical = *bidj_a == *bidj_b;
  int64_t bidj_resume_steps = bidj_resume.stats().walk_steps;
  int64_t bidj_restart_steps = bidj_restart.stats().walk_steps;
  std::printf("\nB-IDJ-Y deepening (|P|=|Q|=100, k=50, d=8): resume %lld "
              "steps vs restart %lld steps (%.2fx fewer), byte-identical=%s\n",
              static_cast<long long>(bidj_resume_steps),
              static_cast<long long>(bidj_restart_steps),
              static_cast<double>(bidj_restart_steps) /
                  std::max<int64_t>(bidj_resume_steps, 1),
              bidj_identical ? "yes" : "NO");
  if (!bidj_identical || bidj_resume_steps >= bidj_restart_steps) {
    std::fprintf(stderr, "FAIL: B-IDJ resume parity/steps check\n");
    return 1;
  }

  NodeSet fp = ds.areas[0].TopByDegree(g, 24);
  NodeSet fq = ds.areas[1].TopByDegree(g, 24);
  FIdjJoin fidj_resume(FIdjJoin::Options{.resume = true});
  FIdjJoin fidj_restart(FIdjJoin::Options{.resume = false});
  auto fidj_a = fidj_resume.Run(g, p, 8, fp, fq, 20);
  auto fidj_b = fidj_restart.Run(g, p, 8, fp, fq, 20);
  CheckOk(fidj_a.status(), "F-IDJ resume");
  CheckOk(fidj_b.status(), "F-IDJ restart");
  bool fidj_identical = *fidj_a == *fidj_b;
  int64_t fidj_resume_steps = fidj_resume.stats().walk_steps;
  int64_t fidj_restart_steps = fidj_restart.stats().walk_steps;
  std::printf("F-IDJ deepening (|P|=|Q|=24, k=20, d=8): resume %lld steps "
              "vs restart %lld steps (%.2fx fewer), byte-identical=%s\n",
              static_cast<long long>(fidj_resume_steps),
              static_cast<long long>(fidj_restart_steps),
              static_cast<double>(fidj_restart_steps) /
                  std::max<int64_t>(fidj_resume_steps, 1),
              fidj_identical ? "yes" : "NO");
  if (!fidj_identical || fidj_resume_steps >= fidj_restart_steps) {
    std::fprintf(stderr, "FAIL: F-IDJ resume parity/steps check\n");
    return 1;
  }

  // Y-bound sweep (B-IDJ-Y and PJ-i pay this d-step sweep up front):
  // the table at the paper's default lambda = 0.2 (d = 8) and at Fig.
  // 10's lambda = 0.8 end (d = 76, where the sweep saturates and runs
  // mostly dense), each checked against the dense reference loop
  // RefYBound — exact agreement, like every other gate here.
  NodeSet yp = ds.areas[0].TopByDegree(g, 100);
  NodeSet yq = ds.areas[1].TopByDegree(g, 100);
  struct YArm {
    double lambda;
    double table_sec = 0.0;
    double reference_sec = 0.0;
    double max_abs_diff = 0.0;
  };
  YArm yarms[] = {{0.2}, {0.8}};
  std::printf("\nY-bound table construction (|P|=|Q|=100):\n");
  for (YArm& arm : yarms) {
    const DhtParams yparams = DhtParams::Lambda(arm.lambda);
    const int yd = yparams.StepsForEpsilon(1e-6);
    std::vector<std::vector<double>> rows;
    arm.table_sec = TimeIt(3, [&] {
      rows = YBoundTable(g, yparams, yd, yp, yq).suffix_rows();
    });
    std::vector<std::vector<double>> want;
    arm.reference_sec =
        TimeIt(1, [&] { want = RefYBound(g, yparams, yd, yp, yq); });
    for (std::size_t qi = 0; qi < want.size(); ++qi) {
      for (std::size_t l = 0; l < want[qi].size(); ++l) {
        arm.max_abs_diff =
            std::max(arm.max_abs_diff, std::abs(rows[qi][l] - want[qi][l]));
      }
    }
    std::printf("  lambda=%.1f d=%d: table %.3f ms, reference %.3f ms, "
                "max|diff| %.2e\n",
                arm.lambda, yd, arm.table_sec * 1e3, arm.reference_sec * 1e3,
                arm.max_abs_diff);
    if (arm.max_abs_diff != 0.0) {
      std::fprintf(stderr,
                   "FAIL: Y-bound table disagrees with the reference at "
                   "lambda=%.1f (%.3e)\n",
                   arm.lambda, arm.max_abs_diff);
      return 1;
    }
  }

  JsonObject doc;
  doc.Set("bench", std::string("micro_walkers"))
      .Set("dataset", std::string("dblp_like"))
      .Set("layout", std::string(ReorderKindName(reorder)))
      .Set("num_nodes", static_cast<int64_t>(g.num_nodes()))
      .Set("num_edges", g.num_edges())
      .Set("num_targets", static_cast<int64_t>(targets.size()))
      .Set("num_sources", static_cast<int64_t>(sources.size()))
      .Set("lane_width", BackwardWalkerBatch::kLaneWidth)
      .SetRaw("backward", JsonArray(rows))
      .Set("forward_pair_dense_ms", fwd_dense * 1e3)
      .Set("forward_pair_adaptive_ms", fwd_adaptive * 1e3)
      .Set("forward_reference_ms_per_pair", fwd_reference_sec * 1e3)
      .Set("forward_batched_ms_per_pair", fwd_batch_sec * 1e3)
      .Set("forward_batched_speedup", fwd_batch_speedup)
      .Set("forward_batched_max_abs_diff", fwd_batch_diff)
      .Set("bidj_resume_walk_steps", bidj_resume_steps)
      .Set("bidj_restart_walk_steps", bidj_restart_steps)
      .Set("fidj_resume_walk_steps", fidj_resume_steps)
      .Set("fidj_restart_walk_steps", fidj_restart_steps)
      .Set("ybound_table_ms", yarms[0].table_sec * 1e3)
      .Set("ybound_reference_ms", yarms[0].reference_sec * 1e3)
      .Set("ybound_table_ms_l08", yarms[1].table_sec * 1e3)
      .Set("ybound_reference_ms_l08", yarms[1].reference_sec * 1e3)
      .Set("ybound_max_abs_diff",
           std::max(yarms[0].max_abs_diff, yarms[1].max_abs_diff))
      .Set("headline_sparse_batched_speedup_d8", headline_speedup)
      .Set("headline_max_abs_score_diff_d8", headline_diff);
  const std::string json_name =
      reorder == ReorderKind::kNone
          ? "BENCH_walkers.json"
          : std::string("BENCH_walkers_") + ReorderKindName(reorder) +
                ".json";
  WriteJsonFile(json_name, doc.ToString());
  std::printf("\nwrote %s (headline d=8 sparse+batched speedup: %.1fx)\n",
              json_name.c_str(), headline_speedup);
  return 0;
}
