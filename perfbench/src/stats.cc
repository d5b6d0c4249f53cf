#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

int64_t MinSamplesFor(double q, int64_t beyond) {
  // The small slack keeps 10 / (1 - 0.95) at 200, not 201.
  return static_cast<int64_t>(
      std::ceil(static_cast<double>(beyond) / (1.0 - q) - 1e-9));
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const auto n = static_cast<int64_t>(samples.size());
  if (n == 0 || n < MinSamplesFor(q)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  return samples[static_cast<std::size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void LoopAccount::Merge(const LoopAccount& other) {
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
}

double LoopAccount::FailedFrac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
