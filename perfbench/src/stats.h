// Statistics helpers of the benchmark: medians, the nearest-rank
// percentile with its tail-sample rule, and the Gini coefficient.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Median of host-time samples: the middle value, or the mean of the two
// middle values for an even count (Python's statistics.median). 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// 1-based nearest rank of quantile q in (0, 1] over n samples:
// ceil(q * n), at least 1.
inline std::size_t NearestRank(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

// Nearest-rank quantile: the smallest sample with at least q of all samples
// at or below it. The median (q = 0.5) is always reported for a nonempty
// sample; nullopt only when `v` is empty.
template <typename T>
std::optional<T> Quantile(std::vector<T> v, double q) {
  if (v.empty()) return std::nullopt;
  const std::size_t k = NearestRank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// Samples strictly beyond the nearest rank of q.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

// A tail quantile is reported only when at least kMinTailSamples samples lie
// beyond it; with fewer it would describe a handful of events, not a tail.
inline constexpr std::size_t kMinTailSamples = 10;

template <typename T>
std::optional<T> TailQuantile(const std::vector<T>& v, double q) {
  if (SamplesBeyond(v.size(), q) < kMinTailSamples) return std::nullopt;
  return Quantile(v, q);
}

// Gini coefficient of a non-negative load vector: 0 is perfectly even,
// (n-1)/n is all load on one element. 0 for an empty or all-zero vector.
inline double Gini(std::vector<double> x) {
  std::sort(x.begin(), x.end());
  double total = 0;
  for (double v : x) total += v;
  if (x.empty() || total <= 0) return 0;
  const double n = static_cast<double>(x.size());
  double weighted = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    weighted += static_cast<double>(i + 1) * x[i];
  }
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

}  // namespace perfbench
