#ifndef SPATIALBUFFER_COMMON_RANDOM_H_
#define SPATIALBUFFER_COMMON_RANDOM_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/macros.h"

namespace sdb {

/// splitmix64 finalizer: the output of one SplitMix64 step from state `x`.
/// The project's one integer mixer — Rng's generator, page-id hashing
/// (shards, the page table, redo partitions) and fault draws all use it.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic 64-bit PRNG (SplitMix64). Small, fast, and fully
/// reproducible across platforms — every generator in this project takes an
/// explicit seed so experiments can be replayed bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t NextU64() {
    const uint64_t out = Mix64(state_);
    state_ += 0x9e3779b97f4a7c15ULL;
    return out;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n) {
    SDB_DCHECK(n > 0);
    // Lemire's unbiased bounded generation (rejection on the short range).
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      uint64_t t = (0ULL - n) % n;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Approximately standard-normal variate (Irwin–Hall sum of 12 uniforms).
  /// Adequate for synthetic spatial clustering; avoids libm dependencies in
  /// the hot generation loop.
  double NextGaussian() {
    double s = 0.0;
    for (int i = 0; i < 12; ++i) s += NextDouble();
    return s - 6.0;
  }

  /// Derives an independent child generator; useful for giving each
  /// generated entity its own stream.
  Rng Fork() { return Rng(NextU64() ^ 0xd1b54a32d192ed03ULL); }

 private:
  uint64_t state_;
};

/// Samples indices 0..n-1 with probability proportional to precomputed
/// weights. Built once (O(n)), sampled in O(log n) via a cumulative table.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights) {
    SDB_CHECK(!weights.empty());
    cumulative_.reserve(weights.size());
    double total = 0.0;
    for (double w : weights) {
      SDB_CHECK(w >= 0.0);
      total += w;
      cumulative_.push_back(total);
    }
    SDB_CHECK(total > 0.0);
  }

  /// Draws one index.
  size_t Sample(Rng& rng) const {
    const double target = rng.NextDouble() * cumulative_.back();
    // Binary search for the first cumulative weight > target.
    size_t lo = 0, hi = cumulative_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cumulative_[mid] > target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  double total_weight() const { return cumulative_.back(); }

 private:
  std::vector<double> cumulative_;
};

}  // namespace sdb

#endif  // SPATIALBUFFER_COMMON_RANDOM_H_
