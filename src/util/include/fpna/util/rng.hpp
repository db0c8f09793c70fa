#pragma once
// Deterministic, portable random number generation.
//
// The standard library's distributions (std::normal_distribution, ...) are
// implementation-defined: the same seed yields different streams across
// libstdc++/libc++/MSVC. Every experiment in this toolkit must be exactly
// replayable from a 64-bit seed, on any platform, so we implement both the
// generator (xoshiro256++) and all distributions ourselves.

#include <cstdint>
#include <cmath>
#include <limits>

namespace fpna::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Passes BigCrush when used directly; here it only seeds xoshiro.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ (Blackman & Vigna). Satisfies uniform_random_bit_generator,
/// so it can be handed to <algorithm> facilities as well.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// 2^128 decorrelated steps; use to derive independent per-run streams.
  void jump() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Uniform double in [0, 1): uses the top 53 bits, the canonical mapping.
inline double canonical(Xoshiro256pp& rng) noexcept {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi).
class UniformReal {
 public:
  UniformReal(double lo, double hi) noexcept : lo_(lo), span_(hi - lo) {}
  double operator()(Xoshiro256pp& rng) const noexcept {
    return lo_ + span_ * canonical(rng);
  }

 private:
  double lo_;
  double span_;
};

/// Unbiased uniform integer in [lo, hi] (Lemire's multiply-shift rejection).
class UniformInt {
 public:
  UniformInt(std::int64_t lo, std::int64_t hi) noexcept
      : lo_(lo), range_(static_cast<std::uint64_t>(hi - lo) + 1) {}
  // Inline: Fisher-Yates shuffles call this once per element.
  std::int64_t operator()(Xoshiro256pp& rng) const noexcept {
    if (range_ == 0) return static_cast<std::int64_t>(rng());
    // Lemire 2019: multiply-shift with rejection of the biased low region.
    std::uint64_t x = rng();
    __uint128_t m = static_cast<__uint128_t>(x) * range_;
    auto low = static_cast<std::uint64_t>(m);
    if (low < range_) {
      const std::uint64_t threshold = (0 - range_) % range_;
      while (low < threshold) {
        x = rng();
        m = static_cast<__uint128_t>(x) * range_;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return lo_ + static_cast<std::int64_t>(m >> 64);
  }

 private:
  std::int64_t lo_;
  std::uint64_t range_;  // == 0 encodes the full 2^64 range
};

/// Normal(mean, sigma) via Box-Muller; caches the second variate so the
/// consumed stream length is deterministic (2 uint64 per pair).
class Normal {
 public:
  Normal(double mean, double sigma) noexcept : mean_(mean), sigma_(sigma) {}
  double operator()(Xoshiro256pp& rng) noexcept;

 private:
  double mean_;
  double sigma_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

/// Exponential(lambda) via inversion; the paper's "Boltzmann" distribution.
class Exponential {
 public:
  explicit Exponential(double lambda) noexcept : inv_lambda_(1.0 / lambda) {}
  double operator()(Xoshiro256pp& rng) const noexcept {
    // 1 - canonical() is in (0, 1], so the log argument never hits zero.
    return -inv_lambda_ * std::log(1.0 - canonical(rng));
  }

 private:
  double inv_lambda_;
};

}  // namespace fpna::util
