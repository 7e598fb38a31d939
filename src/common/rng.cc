#include "common/rng.h"

#include <cmath>

namespace qsched {

Rng::Rng(uint64_t seed, uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0;
  NextU32();
  state_ += seed;
  NextU32();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t value = NextU64();
  while (value >= limit) value = NextU64();
  return lo + static_cast<int64_t>(value % range);
}

double Rng::Exponential(double mean) {
  double u = NextDouble();
  // Guard log(0).
  if (u <= 0.0) u = 5e-324;
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 5e-324;
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::BoundedPareto(double alpha, double lo, double hi) {
  if (lo >= hi) return lo;
  double u = NextDouble();
  double la = std::pow(lo, alpha);
  double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0 || weights.size() <= 1) return 0;
  double draw = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    acc += weights[i];
    if (draw < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t salt) {
  // splitmix-style scramble of a fresh draw for seed and stream.
  uint64_t z = NextU64() + 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return Rng(z, salt * 2 + 1);
}

}  // namespace qsched
