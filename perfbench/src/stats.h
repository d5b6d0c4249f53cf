/// \file perfbench/src/stats.h
/// \brief Order statistics and closed-loop accounting of a run.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a percentile needs before it may be reported: at least
/// `beyond` of them must lie above the q-quantile (200 for p95).
int64_t MinSamplesFor(double q, int64_t beyond = 10);

/// Nearest-rank q-quantile (0 < q < 1). Empty when `samples` is too
/// small for MinSamplesFor(q).
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
double Median(std::vector<double> samples);

/// Outcome counts of one closed loop. Every issued query ends as
/// exactly one of completed or failed, so completed + failed ==
/// attempted once all clients have joined.
struct LoopAccount {
  int64_t attempted = 0;
  int64_t completed = 0;  ///< answered, exact and byte-identical
  int64_t failed = 0;     ///< error, shed, degraded or mismatched

  void Issue() { ++attempted; }
  void Complete() { ++completed; }
  void Fail() { ++failed; }
  void Merge(const LoopAccount& other);
  bool Balanced() const { return completed + failed == attempted; }
  /// failed / attempted (0 for an empty loop).
  double FailedFrac() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
