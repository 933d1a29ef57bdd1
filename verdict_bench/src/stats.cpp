#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace vb {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t rank_of(std::size_t n, double percentile) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double percentile) {
  return sorted[rank_of(sorted.size(), percentile) - 1];
}

Tail tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  static constexpr double kLadder[] = {99.9, 99.5, 99, 98, 95, 90, 80, 75, 50};
  for (const double p : kLadder) {
    const std::size_t beyond = values.size() - rank_of(values.size(), p);
    if (beyond >= min_beyond || p == 50) {
      tail.percentile = p;
      tail.value = nearest_rank(values, p);
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace vb
