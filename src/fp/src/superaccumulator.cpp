#include "fpna/fp/superaccumulator.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "fpna/fp/double_double.hpp"
#include "fpna/fp/simd.hpp"

namespace fpna::fp {

void Superaccumulator::add(double x) noexcept {
  if (x == 0.0) return;
  if (std::isnan(x)) {
    nan_ = true;
    return;
  }
  if (std::isinf(x)) {
    (x > 0 ? pos_inf_ : neg_inf_) = true;
    return;
  }

  if (++pending_ >= kMaxPendingAdds) normalize();

  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, |frac| in [0.5, 1)
  // 53-bit signed integer mantissa: x = m * 2^(exp - 53), exactly.
  const auto m = static_cast<std::int64_t>(std::ldexp(frac, 53));
  const int shifted = exp - 53 - kMinExponent;  // bit position of mantissa LSB
  const int limb = shifted / kLimbBits;
  const int offset = shifted % kLimbBits;

  const std::int64_t sign = m < 0 ? -1 : 1;
  const auto mag = static_cast<unsigned __int128>(m < 0 ? -m : m);
  const unsigned __int128 t = mag << offset;  // <= 84 bits
  constexpr std::uint64_t kMask = 0xffffffffULL;
  limbs_[limb] += sign * static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(t) & kMask);
  limbs_[limb + 1] += sign * static_cast<std::int64_t>(
                                 static_cast<std::uint64_t>(t >> 32) & kMask);
  limbs_[limb + 2] +=
      sign * static_cast<std::int64_t>(static_cast<std::uint64_t>(t >> 64));
}

void Superaccumulator::add(const Superaccumulator& other) noexcept {
  // Normalising both sides first bounds each limb below 2^33, so the
  // limb-wise sum cannot overflow int64.
  normalize();
  Superaccumulator rhs = other;
  rhs.normalize();
  simd_add_i64(limbs_.data(), rhs.limbs_.data(), kNumLimbs);
  pending_ = 2;
  nan_ = nan_ || rhs.nan_;
  pos_inf_ = pos_inf_ || rhs.pos_inf_;
  neg_inf_ = neg_inf_ || rhs.neg_inf_;
}

namespace {

/// Rejects any image serialize() cannot produce. normalize() leaves every
/// limb below the top in [0, 2^32) and carries the sign in the top limb;
/// the flags word holds three bits. The top limb is held to
/// [-2^62, 2^62): 2^62 top-limb units are 2^1080, which a sum of finite
/// doubles reaches only after 2^56 DBL_MAX-sized addends, and the bound
/// keeps the int64 limb add of two accepted images from overflowing.
void check_wire(std::span<const std::uint64_t> words, const char* who) {
  constexpr int kTop = Superaccumulator::kNumLimbs - 1;
  if (words.size() != Superaccumulator::kWireWords) {
    throw std::invalid_argument(std::string(who) +
                                ": need exactly kWireWords words");
  }
  // Four independent OR chains: this pass runs on every received element
  // of the collective reduce-scatter, and one 67-long dependency chain
  // costs about three times as much.
  static_assert(kTop == 67);
  std::uint64_t lanes[4] = {words[64], words[65], words[66], 0};
  for (std::size_t i = 0; i < 64; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) lanes[j] |= words[i + j];
  }
  const std::uint64_t below_top = lanes[0] | lanes[1] | lanes[2] | lanes[3];
  const auto top = static_cast<std::int64_t>(words[kTop]);
  constexpr std::int64_t kTopBound = std::int64_t{1} << 62;
  if ((below_top >> Superaccumulator::kLimbBits) != 0 || top < -kTopBound ||
      top >= kTopBound || words[kTop + 1] > 7u) {
    throw std::invalid_argument(
        std::string(who) +
        ": malformed wire image (non-canonical limb, top limb out of "
        "range or unknown flag bit)");
  }
}

}  // namespace

void Superaccumulator::add_wire(std::span<const std::uint64_t> words) {
  check_wire(words, "Superaccumulator::add_wire");
  // Same op sequence as add(deserialize(words)): the rhs normalize that
  // path performs is the identity on the already-canonical wire limbs
  // (every limb in [0, 2^32) except the sign-carrying top limb, which
  // the floor-div carry chain maps to itself), so only this side
  // normalises. Limb words reinterpret as the two's-complement int64s
  // serialize() wrote.
  normalize();
  static_assert(sizeof(std::uint64_t) == sizeof(std::int64_t));
  simd_add_i64(limbs_.data(),
               reinterpret_cast<const std::int64_t*>(words.data()), kNumLimbs);
  pending_ = 2;
  const std::uint64_t flags = words[kNumLimbs];
  nan_ = nan_ || (flags & 1u) != 0;
  pos_inf_ = pos_inf_ || (flags & 2u) != 0;
  neg_inf_ = neg_inf_ || (flags & 4u) != 0;
}

void Superaccumulator::normalize() noexcept {
  std::int64_t carry = 0;
  constexpr std::int64_t kBase = std::int64_t{1} << kLimbBits;
  for (int i = 0; i < kNumLimbs; ++i) {
    std::int64_t v = limbs_[i] + carry;
    // Floor division/modulo so remainders land in [0, 2^32) even for
    // negative partials; the sign is pushed into the carry chain and ends
    // up in the (conceptually infinite) top limb.
    std::int64_t r = v % kBase;
    if (r < 0) r += kBase;
    carry = (v - r) >> kLimbBits;
    limbs_[i] = r;
  }
  // A nonzero final carry means the true value's sign/overflow lives above
  // the top limb. For sums of finite doubles that stayed in range this is
  // only the sign of a negative total; fold it into the top limb so the
  // representation stays finite. (Magnitudes beyond DBL_MAX round to inf.)
  limbs_[kNumLimbs - 1] += carry << kLimbBits;
  pending_ = 0;
}

void Superaccumulator::serialize(std::span<std::uint64_t> out) const {
  if (out.size() != kWireWords) {
    throw std::invalid_argument(
        "Superaccumulator::serialize: need exactly kWireWords words");
  }
  Superaccumulator tmp = *this;
  tmp.normalize();
  for (int i = 0; i < kNumLimbs; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint64_t>(tmp.limbs_[i]);
  }
  out[kNumLimbs] = (tmp.nan_ ? 1u : 0u) | (tmp.pos_inf_ ? 2u : 0u) |
                   (tmp.neg_inf_ ? 4u : 0u);
}

Superaccumulator Superaccumulator::deserialize(
    std::span<const std::uint64_t> words) {
  check_wire(words, "Superaccumulator::deserialize");
  Superaccumulator acc;
  for (int i = 0; i < kNumLimbs; ++i) {
    acc.limbs_[i] =
        static_cast<std::int64_t>(words[static_cast<std::size_t>(i)]);
  }
  const std::uint64_t flags = words[kNumLimbs];
  acc.nan_ = (flags & 1u) != 0;
  acc.pos_inf_ = (flags & 2u) != 0;
  acc.neg_inf_ = (flags & 4u) != 0;
  // The wire form is normalised; the next merge re-normalises anyway.
  acc.pending_ = 1;
  return acc;
}

bool Superaccumulator::equals(const Superaccumulator& other) const noexcept {
  Superaccumulator a = *this;
  Superaccumulator b = other;
  a.normalize();
  b.normalize();
  if (a.nan_ != b.nan_ || a.pos_inf_ != b.pos_inf_ ||
      a.neg_inf_ != b.neg_inf_) {
    return false;
  }
  return a.limbs_ == b.limbs_;
}

double Superaccumulator::round() const noexcept {
  if (nan_ || (pos_inf_ && neg_inf_)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_) return std::numeric_limits<double>::infinity();
  if (neg_inf_) return -std::numeric_limits<double>::infinity();

  Superaccumulator tmp = *this;
  tmp.normalize();

  // Accumulate limbs from most to least significant in double-double.
  // After normalisation every limb below the top is in [0, 2^32), so the
  // running (hi, lo) pair always has >= 106 bits of headroom over the next
  // limb's contribution: the result is faithfully rounded.
  DoubleDouble acc;
  for (int i = kNumLimbs - 1; i >= 0; --i) {
    if (tmp.limbs_[i] == 0) continue;
    const double scaled = std::ldexp(static_cast<double>(tmp.limbs_[i]),
                                     i * kLimbBits + kMinExponent);
    acc += scaled;
  }
  return acc.to_double();
}

}  // namespace fpna::fp
