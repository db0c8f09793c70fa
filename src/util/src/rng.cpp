#include "fpna/util/rng.hpp"

namespace fpna::util {

void Xoshiro256pp::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (*this)();
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

double Normal::operator()(Xoshiro256pp& rng) noexcept {
  if (has_cached_) {
    has_cached_ = false;
    return mean_ + sigma_ * cached_;
  }
  // Box-Muller on (0,1] x [0,1): u1 > 0 guarantees a finite log.
  const double u1 = 1.0 - canonical(rng);
  const double u2 = canonical(rng);
  const double radius = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  cached_ = radius * std::sin(kTwoPi * u2);
  has_cached_ = true;
  return mean_ + sigma_ * radius * std::cos(kTwoPi * u2);
}

}  // namespace fpna::util
