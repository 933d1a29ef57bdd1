#pragma once
// Order statistics and the verdict fingerprint used by the benchmark's
// reports. Kept free of any repository type so the self-test can pin the
// rules down on plain numbers.

#include <cstdint>
#include <string_view>
#include <vector>

namespace vb {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector.
double median(std::vector<double> values);

/// Nearest-rank percentile of an ascending-sorted, non-empty vector: the
/// value at 1-based rank ceil(p/100 * n).
double nearest_rank(const std::vector<double>& sorted, double percentile);

/// The tail a report may quote: the highest percentile of a fixed ladder
/// (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50) that still has at least
/// `min_beyond` samples ranked strictly above it. With too few samples for
/// even the median, the median is returned with its (short) beyond count.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the quoted one
};
Tail tail_percentile(std::vector<double> values, std::size_t min_beyond = 10);

/// FNV-1a 64-bit hash, chainable through `hash`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace vb
