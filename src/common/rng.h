#ifndef QSCHED_COMMON_RNG_H_
#define QSCHED_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qsched {

/// Deterministic PCG32 pseudo-random generator (O'Neill's PCG-XSH-RR).
/// Every stochastic component in the library draws from an explicitly
/// seeded Rng so whole experiments replay bit-identically.
class Rng {
 public:
  explicit Rng(uint64_t seed, uint64_t stream = 0x2545f4914f6cdd1dULL);

  // The per-draw primitives are defined inline: the simulation draws
  // tens of millions of them per run.

  /// Uniform 32-bit value.
  uint32_t NextU32() {
    uint64_t old = state_;
    state_ = old * kPcgMultiplier + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }
  /// Uniform 64-bit value.
  uint64_t NextU64() {
    return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
  }
  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 random bits into [0, 1).
    return (NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Exponential with the given mean (> 0).
  double Exponential(double mean);
  /// Normal via Box-Muller.
  double Normal(double mean, double stddev);
  /// Log-normal parameterized by the mean/stddev of the underlying normal.
  double LogNormal(double mu, double sigma);
  /// Bounded Pareto on [lo, hi] with shape alpha; models the heavy-tailed
  /// OLAP cost distribution.
  double BoundedPareto(double alpha, double lo, double hi);
  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }
  /// Index in [0, weights.size()) drawn proportionally to weights.
  /// Returns 0 when all weights are <= 0 or the vector has one element.
  size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent generator for a component, keyed by `salt`.
  Rng Fork(uint64_t salt);

 private:
  static constexpr uint64_t kPcgMultiplier = 6364136223846793005ULL;

  uint64_t state_;
  uint64_t inc_;
  // Box-Muller carry.
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace qsched

#endif  // QSCHED_COMMON_RNG_H_
