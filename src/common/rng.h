// Seeded random number generation for fully reproducible experiments.
//
// Every stochastic component (arrival processes, dataset samplers, error
// injection) takes an explicit Rng so that a single top-level seed
// reproduces an entire experiment bit-for-bit.
#pragma once

#include <cstdint>
#include <random>

namespace hetis {

/// Thin wrapper around a 64-bit Mersenne Twister with convenience samplers.
/// Copyable; copies evolve independently (useful to fork substreams).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : gen_(seed) {}

  /// Creates an independent substream; deterministic in (parent seed, salt).
  Rng fork(std::uint64_t salt) {
    std::uint64_t mixed = next_u64() ^ (salt * 0x9E3779B97F4A7C15ULL);
    return Rng(mixed);
  }

  std::uint64_t next_u64() { return gen_(); }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(gen_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

  /// Exponential with the given rate (mean 1/rate).  rate must be > 0.
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(gen_);
  }

  /// Normal with the given mean and stddev.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(gen_);
  }

  /// Truncated log-normal: resamples (up to 64 tries) then clamps into
  /// [lo, hi].  Used by the dataset length samplers.
  double lognormal_trunc(double mu, double sigma, double lo, double hi);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(gen_); }

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace hetis
