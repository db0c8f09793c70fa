#pragma once
// A fixed-point superaccumulator covering the full double exponent range
// (the ExBLAS/Collange-Defour-Graillat-Iakymchuk "long accumulator"
// technique, also the backbone of reproducible BLAS efforts cited by the
// paper [2]). Doubles are exactly decomposed into 32-bit limbs and added
// with *integer* arithmetic, which is associative - so the accumulated
// value, and therefore the rounded result, is bitwise independent of the
// order (or parallel partitioning) of the additions.
//
// This gives the toolkit an order-free "gold" sum: the deterministic GPU
// kernels are certified against it, and it serves as the reproducible
// reduction option in src/reduce.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace fpna::fp {

class Superaccumulator {
 public:
  // Bit positions span [-1126, 1024): denormal mantissa LSB up to the MSB
  // of DBL_MAX, in 32-bit limbs. 68 limbs cover 2176 bits.
  static constexpr int kLimbBits = 32;
  static constexpr int kMinExponent = -1126;  // frexp exponent - 53 lower bound
  static constexpr int kNumLimbs = 68;

  Superaccumulator() = default;

  /// Adds one double exactly. O(1): splits the 53-bit mantissa across at
  /// most three limbs.
  void add(double x) noexcept;

  /// Adds n doubles.
  void add(std::span<const double> values) noexcept {
    for (double v : values) add(v);
  }

  /// Merges another accumulator (exact; used to combine per-thread
  /// partials into an order-independent total). The limb-wise integer
  /// add vectorizes (fp::simd_add_i64) - integer adds are exact, so the
  /// fast path is trivially bitwise identical.
  void add(const Superaccumulator& other) noexcept;

  /// Merges a wire image (serialize()'s kWireWords words) directly,
  /// bitwise identical to `add(deserialize(words))` but skipping the
  /// deserialize copy and the redundant re-normalisation of the rhs (the
  /// wire form is canonical by construction). This is the hot merge of
  /// the collective reduce-scatter: every received shard is one of these
  /// adds per element. Throws std::invalid_argument on a wrong-size span
  /// or a malformed image (see deserialize), so a peer's bad words can
  /// never overflow the limb add.
  void add_wire(std::span<const std::uint64_t> words);

  /// Rounds the accumulated value to the nearest double. Pure function of
  /// the (normalised) limb state: identical limbs give identical bits.
  double round() const noexcept;

  /// Restores every limb to [0, 2^32) canonical form (sign carried by the
  /// most significant nonzero limb). Called automatically when the
  /// unnormalised add count approaches the overflow bound.
  void normalize() noexcept;

  /// True iff both accumulators represent the same exact value.
  bool equals(const Superaccumulator& other) const noexcept;

  /// Wire form: the normalised limbs (two's-complement 64-bit words) plus
  /// one flags word (nan | pos_inf << 1 | neg_inf << 2). Normalisation
  /// makes the encoding canonical: two accumulators holding the same
  /// exact value serialize to identical bytes, so the exact reduction
  /// path can travel point-to-point messages (comm's schedule-based
  /// reduce-scatter) without losing its order-invariance certificate.
  static constexpr std::size_t kWireWords = kNumLimbs + 1;

  /// Writes exactly kWireWords words; throws std::invalid_argument when
  /// `out` is not that size.
  void serialize(std::span<std::uint64_t> out) const;

  /// Rebuilds the exact state from serialize()'s words. Throws
  /// std::invalid_argument on a wrong-size span and on any image
  /// serialize() cannot produce: a limb below the top one outside
  /// [0, 2^32), a top limb outside [-2^62, 2^62) (a magnitude of 2^1080,
  /// which only 2^56 DBL_MAX-sized addends reach), or a flag bit above
  /// the three defined ones.
  static Superaccumulator deserialize(std::span<const std::uint64_t> words);

  /// Exceptional-value state (propagated like IEEE addition would).
  bool has_nan() const noexcept { return nan_; }
  bool has_pos_inf() const noexcept { return pos_inf_; }
  bool has_neg_inf() const noexcept { return neg_inf_; }

  /// One-shot helper: the reproducible sum of a range.
  static double sum(std::span<const double> values) noexcept {
    Superaccumulator acc;
    acc.add(values);
    return acc.round();
  }

 private:
  // Each limb holds a signed partial sum of 32-bit chunks; int64 headroom
  // allows ~2^30 unnormalised adds (each contributes < 2^33 in magnitude
  // per limb) before carries must be propagated.
  static constexpr std::uint64_t kMaxPendingAdds = 1ULL << 29;

  std::array<std::int64_t, kNumLimbs> limbs_{};
  std::uint64_t pending_ = 0;
  bool nan_ = false;
  bool pos_inf_ = false;
  bool neg_inf_ = false;
};

}  // namespace fpna::fp
