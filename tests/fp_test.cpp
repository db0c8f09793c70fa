// Unit and property tests for fpna::fp: bit utilities, error-free
// transforms, compensated/pairwise summation, double-double arithmetic,
// and the reproducible superaccumulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/binned_sum.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/fp/double_double.hpp"
#include "fpna/fp/eft.hpp"
#include "fpna/fp/simd.hpp"
#include "fpna/fp/summation.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/rng.hpp"

namespace fpna::fp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double> random_values(std::size_t n, double lo, double hi,
                                  std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// ---------------------------------------------------------------- bits --

TEST(Bits, RoundTrip) {
  for (const double x : {0.0, -0.0, 1.0, -3.5, 1e300, 5e-324}) {
    EXPECT_EQ(from_bits(to_bits(x)), x);
  }
}

TEST(Bits, BitwiseEqualDistinguishesSignedZero) {
  EXPECT_TRUE(bitwise_equal(0.0, 0.0));
  EXPECT_FALSE(bitwise_equal(0.0, -0.0));
  EXPECT_TRUE(is_negative_zero(-0.0));
  EXPECT_FALSE(is_negative_zero(0.0));
}

TEST(Bits, BitwiseEqualTreatsSameNanAsEqual) {
  EXPECT_TRUE(bitwise_equal(kNaN, kNaN));
  EXPECT_FALSE(kNaN == kNaN);  // contrast with operator==
}

TEST(Bits, UlpDistanceAdjacent) {
  const double x = 1.0;
  const double next = std::nextafter(x, 2.0);
  EXPECT_EQ(ulp_distance(x, next), 1);
  EXPECT_EQ(ulp_distance(next, x), 1);
  EXPECT_EQ(ulp_distance(x, x), 0);
}

TEST(Bits, UlpDistanceAcrossZero) {
  const double tiny = 5e-324;  // smallest denormal
  EXPECT_EQ(ulp_distance(-tiny, tiny), 2);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0);  // zeros collapse
}

TEST(Bits, UlpDistanceNanSaturates) {
  EXPECT_EQ(ulp_distance(kNaN, 1.0), std::numeric_limits<std::int64_t>::max());
}

TEST(Bits, UlpSpacingGrowsWithMagnitude) {
  EXPECT_LT(ulp(1.0), ulp(1e10));
  EXPECT_DOUBLE_EQ(ulp(1.0), std::pow(2.0, -52));
}

// ----------------------------------------------------------------- eft --

TEST(Eft, TwoSumIsExact) {
  util::Xoshiro256pp rng(1);
  const util::UniformReal dist(-1e10, 1e10);
  for (int i = 0; i < 10000; ++i) {
    const double a = dist(rng);
    const double b = dist(rng) * 1e-8;  // widely different magnitudes
    const auto [s, e] = two_sum(a, b);
    // Verify a + b == s + e exactly in double-double.
    DoubleDouble lhs(a);
    lhs += b;
    DoubleDouble rhs(s);
    rhs += e;
    EXPECT_EQ(lhs.to_double(), rhs.to_double());
    EXPECT_EQ(s, a + b);  // s is the rounded sum
  }
}

TEST(Eft, TwoSumRecoversCancellationError) {
  const double a = 1e16;
  const double b = 1.0;
  const auto [s, e] = two_sum(a, b);
  EXPECT_EQ(s, 1e16);  // b vanished from the rounded sum...
  EXPECT_EQ(e, 1.0);   // ...and is exactly the error term
}

TEST(Eft, FastTwoSumAgreesWhenOrdered) {
  const double a = 3.14159e8;
  const double b = 2.71828e-8;
  const auto [s1, e1] = two_sum(a, b);
  const auto [s2, e2] = fast_two_sum(a, b);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(e1, e2);
}

TEST(Eft, TwoProdIsExact) {
  const double a = 1.0 + std::pow(2.0, -30);
  const double b = 1.0 + std::pow(2.0, -29);
  const auto [p, e] = two_prod(a, b);
  EXPECT_EQ(p, a * b);
  // Exact product reconstructed: p + e == a*b in exact arithmetic; verify
  // via long double (80-bit on x86 is enough for 53x2 bits here).
  const long double exact = static_cast<long double>(a) * b;
  EXPECT_EQ(static_cast<long double>(p) + e, exact);
}

// ------------------------------------------------------------ summation --

TEST(Summation, SerialMatchesStdAccumulateOrder) {
  const std::vector<double> v{1.0, 1e-16, 1e-16, 1e-16};
  double expected = 0.0;
  for (const double x : v) expected += x;
  EXPECT_EQ(sum_serial(v), expected);
}

TEST(Summation, EmptyAndSingle) {
  const std::vector<double> empty;
  EXPECT_EQ(sum_serial(empty), 0.0);
  const std::vector<double> one{42.0};
  EXPECT_EQ(sum_serial(one), 42.0);
  EXPECT_EQ(sum_pairwise(one), 42.0);
  EXPECT_EQ(sum_kahan(one), 42.0);
}

TEST(Summation, AllAgreeOnExactlyRepresentableData) {
  // Integers up to 2^20 sum exactly in double: every algorithm must give
  // the identical (exact) result.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const double exact = 500500.0;
  EXPECT_EQ(sum_serial(v), exact);
  EXPECT_EQ(sum_pairwise(v), exact);
  EXPECT_EQ(sum_pairwise(v, 1), exact);
  EXPECT_EQ(sum_kahan(v), exact);
  EXPECT_EQ(sum_neumaier(v), exact);
  EXPECT_EQ(sum_klein(v), exact);
  EXPECT_EQ(sum_double_double(v), exact);
  EXPECT_EQ(sum_vectorized(v), exact);
  EXPECT_EQ(Superaccumulator::sum(v), exact);
}

TEST(Summation, NeumaierHandlesLargeThenSmall) {
  // Classic Kahan failure case: the first element is much larger than
  // the running sum at add time.
  const std::vector<double> v{1.0, 1e100, 1.0, -1e100};
  EXPECT_EQ(sum_neumaier(v), 2.0);
  EXPECT_EQ(sum_klein(v), 2.0);
  EXPECT_EQ(Superaccumulator::sum(v), 2.0);
  EXPECT_EQ(sum_serial(v), 0.0);  // naive sum loses both ones
}

TEST(Summation, CompensatedBeatsSerialOnIllConditioned) {
  const auto v = random_values(100000, -1.0, 1.0, 3);
  const double reference = Superaccumulator::sum(v);
  const double serial_err = std::fabs(sum_serial(v) - reference);
  const double kahan_err = std::fabs(sum_kahan(v) - reference);
  const double dd_err = std::fabs(sum_double_double(v) - reference);
  EXPECT_LE(kahan_err, serial_err);
  EXPECT_LE(dd_err, serial_err);
}

TEST(Summation, PairwiseBaseCaseDoesNotChangeExactness) {
  const auto v = random_values(1237, 0.0, 10.0, 5);
  // Different base cases give different (all deterministic) roundings,
  // each within a tight bound of the exact sum.
  const double exact = Superaccumulator::sum(v);
  for (const std::size_t base : {1u, 2u, 8u, 32u, 128u}) {
    EXPECT_NEAR(sum_pairwise(v, base), exact, 1e-9);
  }
}

TEST(Summation, PairwiseStreamingParityWithOneShot) {
  // Pins the PairwiseAccumulator parity contract (see the header): a
  // whole span streamed through add() reproduces one-shot
  // sum_pairwise(v, 32) bit for bit - the one-shot's power-of-two splits
  // fold the same 32-aligned blocks in the same binary-counter order -
  // for every tail length.
  for (const std::size_t n :
       {1u, 5u, 31u, 32u, 33u, 63u, 64u, 96u, 100u, 1237u, 4096u, 100001u}) {
    const auto v = random_values(n, -1e6, 1e6, 11 + n);
    PairwiseAccumulator<double> acc;
    acc.add(std::span<const double>(v));
    EXPECT_TRUE(bitwise_equal(acc.result(), sum_pairwise(v, 32)))
        << "n = " << n;
  }
}

TEST(Summation, PairwiseMergeAssociatesTailDifferently) {
  // The other half of the contract: merge() folds the other cascade's
  // *rounded* result in as a single element, so chunked accumulation
  // associates the chunk boundary differently from the one-shot over the
  // concatenation. On ill-conditioned data the bits move (while staying
  // deterministic for a fixed chunking) - pinned here so a future
  // "fix" that silently changes merge association fails loudly.
  util::Xoshiro256pp rng(99);
  std::size_t diverged = 0;
  constexpr std::size_t kTrials = 32;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::size_t n = 64 + rng() % 4000;
    std::vector<double> v(n);
    for (auto& x : v) {
      const double mag = std::ldexp(1.0, static_cast<int>(rng() % 80) - 40);
      x = ((rng() & 1) ? mag : -mag) *
          (1.0 + static_cast<double>(rng() % 1000) * 1e-3);
    }
    const std::size_t cut = 1 + rng() % n;
    const auto chunked = [&] {
      PairwiseAccumulator<double> a;
      PairwiseAccumulator<double> b;
      a.add(std::span<const double>(v).first(cut));
      b.add(std::span<const double>(v).subspan(cut));
      a.merge(b);
      return a.result();
    };
    const double merged = chunked();
    if (!bitwise_equal(merged, sum_pairwise(v, 32))) ++diverged;
    // Deterministic for the fixed chunking even where it diverges.
    EXPECT_TRUE(bitwise_equal(merged, chunked()));
  }
  // Empirically >half the trials diverge on this distribution; require a
  // healthy fraction so the property cannot rot into vacuity.
  EXPECT_GE(diverged, kTrials / 4);
}

TEST(Summation, VectorizedLanesChangeRounding) {
  // Demonstrates the TPRC compiler-sensitivity the paper mentions: lane
  // count changes association, and may change the rounded value.
  const auto v = random_values(100001, -1.0, 1.0, 7);
  const double s1 = sum_vectorized(v, 1);
  EXPECT_EQ(s1, sum_serial(v));
  const double exact = Superaccumulator::sum(v);
  for (const std::size_t lanes : {2u, 4u, 8u}) {
    EXPECT_NEAR(sum_vectorized(v, lanes), exact, 1e-10);
  }
}

TEST(Summation, DotSerial) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_EQ(dot_serial(a, b), 32.0);
}

// -------------------------------------------------------- double-double --

TEST(DoubleDouble, TracksTinyIncrements) {
  DoubleDouble acc(1e16);
  for (int i = 0; i < 1000; ++i) acc += 1.0;
  acc += -1e16;
  EXPECT_EQ(acc.to_double(), 1000.0);
}

TEST(DoubleDouble, MergeMatchesSequential) {
  const auto v = random_values(10000, -5.0, 5.0, 11);
  DoubleDouble whole;
  for (const double x : v) whole += x;
  DoubleDouble left, right;
  for (std::size_t i = 0; i < v.size() / 2; ++i) left += v[i];
  for (std::size_t i = v.size() / 2; i < v.size(); ++i) right += v[i];
  left += right;
  EXPECT_NEAR(left.to_double(), whole.to_double(), 1e-18);
}

TEST(DoubleDouble, ScalarProduct) {
  DoubleDouble x(1.0, 1e-20);
  const DoubleDouble y = x * 3.0;
  EXPECT_DOUBLE_EQ(y.hi(), 3.0);
  EXPECT_NEAR(y.lo(), 3e-20, 1e-26);
}

// ------------------------------------------------------ superaccumulator --

TEST(Superaccumulator, ExactForSmallIntegers) {
  Superaccumulator acc;
  for (int i = 1; i <= 10000; ++i) acc.add(static_cast<double>(i));
  EXPECT_EQ(acc.round(), 50005000.0);
}

TEST(Superaccumulator, NegativeTotals) {
  Superaccumulator acc;
  acc.add(1.5);
  acc.add(-4.25);
  EXPECT_EQ(acc.round(), -2.75);
}

TEST(Superaccumulator, CancellationIsExact) {
  Superaccumulator acc;
  acc.add(1e308);
  acc.add(-1e308);
  acc.add(3.0);
  EXPECT_EQ(acc.round(), 3.0);
}

TEST(Superaccumulator, WireFormRoundTripsTheExactState) {
  // The serialized form feeding comm's schedule-based reproducible
  // exchange: canonical (same exact value -> same words), lossless (the
  // deserialized state merges and rounds identically), size-checked.
  util::Xoshiro256pp rng(321);
  const util::UniformReal dist(-1e12, 1e12);
  Superaccumulator acc;
  for (int i = 0; i < 500; ++i) acc.add(dist(rng));

  std::vector<std::uint64_t> words(Superaccumulator::kWireWords);
  acc.serialize(words);
  const Superaccumulator restored = Superaccumulator::deserialize(words);
  EXPECT_TRUE(restored.equals(acc));
  EXPECT_EQ(restored.round(), acc.round());

  // Canonical: a different add order reaching the same exact value
  // serializes to the identical words.
  Superaccumulator reordered;
  reordered.add(acc);  // exact merge into a fresh state
  std::vector<std::uint64_t> words2(Superaccumulator::kWireWords);
  reordered.serialize(words2);
  EXPECT_EQ(words, words2);

  // Merging a deserialized state is the exact merge.
  Superaccumulator sum = restored;
  sum.add(Superaccumulator::deserialize(words));
  Superaccumulator twice = acc;
  twice.add(acc);
  EXPECT_TRUE(sum.equals(twice));

  std::vector<std::uint64_t> wrong(Superaccumulator::kWireWords - 1);
  EXPECT_THROW(acc.serialize(wrong), std::invalid_argument);
  EXPECT_THROW(Superaccumulator::deserialize(wrong), std::invalid_argument);
}

TEST(Superaccumulator, WireFormCarriesExceptionalState) {
  Superaccumulator acc;
  acc.add(std::numeric_limits<double>::infinity());
  std::vector<std::uint64_t> words(Superaccumulator::kWireWords);
  acc.serialize(words);
  const Superaccumulator restored = Superaccumulator::deserialize(words);
  EXPECT_TRUE(restored.has_pos_inf());
  EXPECT_EQ(restored.round(), std::numeric_limits<double>::infinity());

  Superaccumulator nan_acc;
  nan_acc.add(std::numeric_limits<double>::quiet_NaN());
  nan_acc.serialize(words);
  EXPECT_TRUE(Superaccumulator::deserialize(words).has_nan());
}

TEST(Superaccumulator, WireImagesRoundTripAndMalformedOnesThrow) {
  // Seeded property: every serialize() image of a random sum - magnitudes
  // across the whole double range, negative totals, NaN/+-Inf flags -
  // round-trips through deserialize and add_wire, and any image
  // serialize() cannot produce throws before touching the state.
  constexpr std::size_t kWords = Superaccumulator::kWireWords;
  constexpr std::size_t kTop = Superaccumulator::kNumLimbs - 1;
  util::Xoshiro256pp rng(4242);
  const util::UniformReal unit(0.0, 1.0);
  std::vector<std::uint64_t> words(kWords);
  std::vector<std::uint64_t> again(kWords);
  int negative_totals = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Superaccumulator acc;
    const double bias = trial % 2 == 0 ? 1.0 : -1.0;
    const int count = 1 + static_cast<int>(unit(rng) * 64);
    for (int i = 0; i < count; ++i) {
      const int exponent = static_cast<int>(unit(rng) * 2097) - 1074;
      const double sign = unit(rng) < 0.8 ? bias : -bias;
      acc.add(sign * std::ldexp(1.0 + unit(rng), exponent));
    }
    if (trial % 11 == 0) {
      for (int i = 0; i < 64; ++i) {
        acc.add(bias * std::numeric_limits<double>::max());
      }
    }
    if (trial % 7 == 0) acc.add(kNaN);
    if (trial % 5 == 0) acc.add(kInf);
    if (trial % 3 == 0) acc.add(-kInf);
    negative_totals += acc.round() < 0.0;

    acc.serialize(words);
    const Superaccumulator restored = Superaccumulator::deserialize(words);
    EXPECT_TRUE(restored.equals(acc)) << "trial " << trial;
    EXPECT_TRUE(bitwise_equal(restored.round(), acc.round()));
    restored.serialize(again);
    EXPECT_EQ(again, words) << "trial " << trial;
    Superaccumulator merged;
    merged.add_wire(words);
    EXPECT_TRUE(merged.equals(acc)) << "trial " << trial;

    const auto rejects = [&](const std::vector<std::uint64_t>& bad) {
      EXPECT_THROW(Superaccumulator::deserialize(bad), std::invalid_argument)
          << "trial " << trial;
      Superaccumulator sink;
      sink.add(1.0);
      EXPECT_THROW(sink.add_wire(bad), std::invalid_argument)
          << "trial " << trial;
      EXPECT_EQ(sink.round(), 1.0);  // rejected before any merge
    };
    auto bad = words;  // a non-canonical limb below the top one
    bad[static_cast<std::size_t>(trial) % kTop] |=
        std::uint64_t{1} << (32 + trial % 32);
    rejects(bad);
    bad = words;  // an unknown flag bit
    bad[kTop + 1] |= std::uint64_t{1} << (3 + trial % 61);
    rejects(bad);
    bad = words;  // a top limb no reachable sum produces
    bad[kTop] = trial % 2 == 0
                    ? std::uint64_t{1} << 62
                    : static_cast<std::uint64_t>(-(std::int64_t{1} << 62) - 1);
    rejects(bad);
    rejects(std::vector<std::uint64_t>(
        words.begin(), words.end() - 1 - trial % 5));  // truncated
    bad = words;
    bad.push_back(0);  // overlong
    rejects(bad);
  }
  EXPECT_GT(negative_totals, 50);
}

TEST(Superaccumulator, DenormalsAccumulate) {
  const double tiny = 5e-324;
  Superaccumulator acc;
  for (int i = 0; i < 16; ++i) acc.add(tiny);
  EXPECT_EQ(acc.round(), 16 * tiny);
}

TEST(Superaccumulator, HugeAndTinyTogether) {
  Superaccumulator acc;
  acc.add(1e300);
  acc.add(5e-324);
  acc.add(-1e300);
  EXPECT_EQ(acc.round(), 5e-324);
}

TEST(Superaccumulator, InfAndNanSemantics) {
  Superaccumulator pos;
  pos.add(kInf);
  pos.add(1.0);
  EXPECT_EQ(pos.round(), kInf);

  Superaccumulator neg;
  neg.add(-kInf);
  EXPECT_EQ(neg.round(), -kInf);

  Superaccumulator both;
  both.add(kInf);
  both.add(-kInf);
  EXPECT_TRUE(std::isnan(both.round()));

  Superaccumulator nan;
  nan.add(kNaN);
  nan.add(2.0);
  EXPECT_TRUE(std::isnan(nan.round()));
}

TEST(Superaccumulator, MergeEqualsBulkAdd) {
  const auto v = random_values(5000, -100.0, 100.0, 13);
  Superaccumulator whole;
  whole.add(v);

  Superaccumulator a, b;
  a.add(std::span<const double>(v).first(1234));
  b.add(std::span<const double>(v).subspan(1234));
  a.add(b);

  EXPECT_TRUE(a.equals(whole));
  EXPECT_EQ(a.round(), whole.round());
}

TEST(Superaccumulator, RoundIsFaithfulAgainstKlein) {
  const auto v = random_values(50000, -1e6, 1e6, 17);
  const double super = Superaccumulator::sum(v);
  const double klein = sum_klein(v);
  // Klein's result is itself within a couple of ulps of exact; the
  // superaccumulator must land within 1 ulp of it.
  EXPECT_LE(ulp_distance(super, klein), 2);
}

// Property sweep: permutation invariance across sizes and distributions -
// the defining reproducibility property.
struct PermutationCase {
  std::size_t size;
  double lo;
  double hi;
};

class SuperaccumulatorPermutation
    : public ::testing::TestWithParam<PermutationCase> {};

TEST_P(SuperaccumulatorPermutation, BitwiseInvariantUnderShuffles) {
  const auto& param = GetParam();
  auto v = random_values(param.size, param.lo, param.hi, param.size);
  const double reference = Superaccumulator::sum(v);

  util::Xoshiro256pp rng(999);
  for (int trial = 0; trial < 10; ++trial) {
    util::shuffle(v, rng);
    EXPECT_TRUE(bitwise_equal(Superaccumulator::sum(v), reference));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRanges, SuperaccumulatorPermutation,
    ::testing::Values(PermutationCase{10, -1.0, 1.0},
                      PermutationCase{100, 0.0, 10.0},
                      PermutationCase{1000, -1e10, 1e10},
                      PermutationCase{10000, -1e-10, 1e-10},
                      PermutationCase{4096, -1e100, 1e100}));

// ----------------------------------------------------------- binned sum --

TEST(BinnedSum, ExactForSmallIntegers) {
  std::vector<double> v;
  for (int i = 1; i <= 10000; ++i) v.push_back(i);
  EXPECT_EQ(BinnedSum::sum(v), 50005000.0);
}

TEST(BinnedSum, EmptyZerosAndSignedZeros) {
  const std::vector<double> empty;
  EXPECT_EQ(BinnedSum::sum(empty), 0.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_EQ(BinnedSum::sum(zeros), 0.0);
  const std::vector<double> neg_zeros{-0.0, -0.0};
  EXPECT_TRUE(is_negative_zero(BinnedSum::sum(neg_zeros)));
}

TEST(BinnedSum, ExceptionalValues) {
  const std::vector<double> with_nan{1.0, kNaN};
  EXPECT_TRUE(std::isnan(BinnedSum::sum(with_nan)));
  const std::vector<double> with_inf{1.0, kInf};
  EXPECT_EQ(BinnedSum::sum(with_inf), kInf);
  const std::vector<double> with_neg_inf{-kInf, 1.0};
  EXPECT_EQ(BinnedSum::sum(with_neg_inf), -kInf);
  const std::vector<double> both_inf{kInf, -kInf};
  EXPECT_TRUE(std::isnan(BinnedSum::sum(both_inf)));
}

TEST(BinnedSum, FaithfulAgainstSuperaccumulator) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto v = random_values(50000, -1e6, 1e6, seed);
    const double exact = Superaccumulator::sum(v);
    EXPECT_LE(ulp_distance(BinnedSum::sum(v), exact), 2) << "seed " << seed;
  }
}

TEST(BinnedSum, NearOverflowAnchorsFallBackSafely) {
  const std::vector<double> v{1e308, -1e308, 3.0, 4.0};
  EXPECT_EQ(BinnedSum::sum(v), 7.0);
}

TEST(BinnedSum, DistributedBinsMergeExactly) {
  const auto v = random_values(20000, -1e3, 1e3, 4);
  double anchor = 0.0;
  for (const double x : v) anchor = std::max(anchor, std::fabs(x));

  const auto whole = BinnedSum::bin(v, anchor);
  auto left = BinnedSum::bin(std::span<const double>(v).first(7777), anchor);
  const auto right =
      BinnedSum::bin(std::span<const double>(v).subspan(7777), anchor);
  left.merge(right);
  for (int k = 0; k < BinnedSum::kFolds; ++k) {
    EXPECT_TRUE(bitwise_equal(left.total[k], whole.total[k]));
  }
  EXPECT_TRUE(
      bitwise_equal(BinnedSum::round(left), BinnedSum::round(whole)));
}

class BinnedSumPermutation : public ::testing::TestWithParam<PermutationCase> {
};

TEST_P(BinnedSumPermutation, BitwiseInvariantUnderShuffles) {
  const auto& param = GetParam();
  auto v = random_values(param.size, param.lo, param.hi, param.size + 99);
  const double reference = BinnedSum::sum(v);

  util::Xoshiro256pp rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    util::shuffle(v, rng);
    EXPECT_TRUE(bitwise_equal(BinnedSum::sum(v), reference));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRanges, BinnedSumPermutation,
    ::testing::Values(PermutationCase{10, -1.0, 1.0},
                      PermutationCase{1000, 0.0, 10.0},
                      PermutationCase{10000, -1e10, 1e10},
                      PermutationCase{4096, -1e-10, 1e-10}));

// --------------------------------------------------------- catalogue --

/// The name-driven one-shot sum: the spec grammar, then fp::reduce.
double sum_named(std::string_view name, std::span<const double> values) {
  return reduce<double>(parse_reduction_spec(name), values);
}

TEST(AlgorithmCatalogue, AllBuiltinsRegistered) {
  // Exactly the nine built-ins, in the canonical bench/table row order.
  const std::vector<std::string> expected{
      "serial", "pairwise", "vectorized", "kahan", "neumaier", "klein",
      "double_double", "binned", "superaccumulator"};
  ASSERT_EQ(kAlgorithms.size(), expected.size());
  ASSERT_EQ(kNumAlgorithms, expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(kAlgorithms[i].name, expected[i]) << i;
  }
}

TEST(AlgorithmCatalogue, LookupByNameAndIdAgree) {
  for (const auto& entry : kAlgorithms) {
    EXPECT_EQ(algorithm_named(entry.name).id, entry.id);
    EXPECT_EQ(&algorithm_named(entry.name), &entry);
    EXPECT_STREQ(to_string(entry.id), entry.name);
    EXPECT_EQ(&traits_of(entry.id), &entry.traits);
  }
}

TEST(AlgorithmCatalogue, UnknownNameThrowsWithCatalogue) {
  try {
    (void)algorithm_named("kahansum");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    // The error names every algorithm so CLI typos self-explain.
    EXPECT_STREQ(error.what(),
                 "unknown accumulator 'kahansum'; registered: serial "
                 "pairwise vectorized kahan neumaier klein double_double "
                 "binned superaccumulator (each also accepts @simd<L> "
                 "lane-blocked variants, L in {1, 4, 8, 16}, and "
                 "@<storage>[:<accumulate>] dtype qualifiers, e.g. "
                 "kahan@simd8:bf16:f32)");
  }
}

TEST(AlgorithmCatalogue, OneShotMatchesHistoricFreeFunctions) {
  const auto v = random_values(10000, -1e6, 1e6, 77);
  EXPECT_TRUE(bitwise_equal(sum_named("serial", v), sum_serial(v)));
  EXPECT_TRUE(bitwise_equal(sum_named("pairwise", v), sum_pairwise(v, 32)));
  EXPECT_TRUE(bitwise_equal(sum_named("kahan", v), sum_kahan(v)));
  EXPECT_TRUE(bitwise_equal(sum_named("neumaier", v), sum_neumaier(v)));
  EXPECT_TRUE(bitwise_equal(sum_named("klein", v), sum_klein(v)));
  EXPECT_TRUE(bitwise_equal(sum_named("double_double", v),
                            sum_double_double(v)));
  EXPECT_TRUE(bitwise_equal(sum_named("vectorized", v),
                            sum_vectorized(v, 4)));
  EXPECT_TRUE(bitwise_equal(sum_named("binned", v), BinnedSum::sum(v)));
  EXPECT_TRUE(bitwise_equal(sum_named("superaccumulator", v),
                            Superaccumulator::sum(v)));
}

// The property test of the catalogue contract: every algorithm is
// deterministic for a fixed input order; the ones declaring permutation
// invariance are bitwise invariant under shuffles, and the ones declaring
// exact merges are bitwise independent of chunking.
TEST(AlgorithmCatalogue, EveryEntryHonoursItsDeclaredContract) {
  const auto v = random_values(20000, -1e8, 1e8, 321);
  for (const auto& entry : kAlgorithms) {
    SCOPED_TRACE(entry.name);
    EXPECT_TRUE(entry.traits.deterministic_fixed_order);
    const auto one_shot_of = [&](std::span<const double> values) {
      return reduce<double>(entry.id, values);
    };

    // Deterministic for fixed order: one-shot and streaming evaluations
    // both reproduce themselves bitwise.
    const double one_shot = one_shot_of(v);
    EXPECT_TRUE(bitwise_equal(one_shot_of(v), one_shot));
    const double streamed = visit_algorithm(entry.id, [&](auto tag) {
      typename decltype(tag)::template accumulator_t<double> acc;
      for (const double x : v) acc.add(x);
      return acc.result();
    });
    const double streamed_again = visit_algorithm(entry.id, [&](auto tag) {
      typename decltype(tag)::template accumulator_t<double> acc;
      for (const double x : v) acc.add(x);
      return acc.result();
    });
    EXPECT_TRUE(bitwise_equal(streamed, streamed_again));

    // Accuracy sanity: within a loose relative band of the exact sum.
    const double exact = Superaccumulator::sum(v);
    EXPECT_NEAR(one_shot, exact, 1e-6 * std::fabs(exact) + 1e-6);

    // Permutation invariance exactly as declared.
    auto copy = v;
    util::Xoshiro256pp rng(std::string_view(entry.name).size() * 7919 + 3);
    bool any_different = false;
    for (int trial = 0; trial < 8; ++trial) {
      util::shuffle(copy, rng);
      if (!bitwise_equal(one_shot_of(copy), one_shot)) any_different = true;
    }
    if (entry.traits.permutation_invariant) {
      EXPECT_FALSE(any_different)
          << "declared permutation-invariant but a shuffle moved the bits";
    } else if (entry.id == AlgorithmId::kSerial ||
               entry.id == AlgorithmId::kPairwise ||
               entry.id == AlgorithmId::kVectorized) {
      // The first-order algorithms visibly wobble on this data. The
      // compensated family is *declared* order-sensitive but often rounds
      // correctly on benign inputs, so no converse assertion for them.
      EXPECT_TRUE(any_different)
          << "declared order-sensitive but 8 shuffles never moved the bits";
    }

    // Exact merge: chunked accumulators merged in order reproduce the
    // one-shot result bitwise for any chunking.
    if (entry.traits.exact_merge) {
      const double chunked = visit_algorithm(entry.id, [&](auto tag) {
        typename decltype(tag)::template accumulator_t<double> total;
        for (std::size_t begin = 0; begin < v.size(); begin += 1237) {
          typename decltype(tag)::template accumulator_t<double> part;
          part.add(std::span<const double>(v).subspan(
              begin, std::min<std::size_t>(1237, v.size() - begin)));
          total.merge(part);
        }
        return total.result();
      });
      EXPECT_TRUE(bitwise_equal(chunked, one_shot));
    }
  }
}

TEST(AlgorithmCatalogue, StreamingAccumulatorsWorkInFloat) {
  util::Xoshiro256pp rng(9);
  const util::UniformReal dist(-100.0, 100.0);
  std::vector<float> v(5000);
  double exact = 0.0;
  for (auto& x : v) {
    x = static_cast<float>(dist(rng));
    exact += static_cast<double>(x);
  }
  for (const auto& entry : kAlgorithms) {
    SCOPED_TRACE(entry.name);
    const float value = visit_algorithm(entry.id, [&](auto tag) {
      typename decltype(tag)::template accumulator_t<float> acc;
      acc.add(std::span<const float>(v));
      return acc.result();
    });
    EXPECT_NEAR(static_cast<double>(value), exact,
                1e-2 * std::fabs(exact) + 1e-2);
  }
}

// ---------------------------------------------------- bf16 & dtype axis --

TEST(Bf16, RoundTripThroughFloatIsExact) {
  // Every non-NaN bf16 bit pattern survives bf16 -> float -> bf16
  // untouched: the widening is exact and the RNE rounding of an exact
  // value is the identity. (NaN payloads are quieted, tested below.)
  for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
    if ((bits & 0x7FFFu) > 0x7F80u) continue;  // NaN patterns
    const bf16 v = bf16::from_bits(static_cast<std::uint16_t>(bits));
    EXPECT_EQ(bf16(static_cast<float>(v)).to_bits(), bits) << bits;
  }
}

TEST(Bf16, RoundsToNearestEvenOnTies) {
  // Spacing at 1.0 is 2^-7. 1 + 2^-8 sits exactly between 1.0 (even
  // significand) and 1 + 2^-7 (odd): ties go to 1.0. 1 + 3*2^-8 sits
  // between 1 + 2^-7 (odd) and 1 + 2^-6 (even): ties go up.
  EXPECT_EQ(bf16(1.0f + std::ldexp(1.0f, -8)).to_bits(), 0x3F80u);
  EXPECT_EQ(bf16(1.0f + 3.0f * std::ldexp(1.0f, -8)).to_bits(), 0x3F82u);
  // Just below / above the tie round to the nearer neighbour.
  EXPECT_EQ(bf16(std::nextafter(1.0f + std::ldexp(1.0f, -8), 0.0f)).to_bits(),
            0x3F80u);
  EXPECT_EQ(bf16(std::nextafter(1.0f + std::ldexp(1.0f, -8), 2.0f)).to_bits(),
            0x3F81u);
}

TEST(Bf16, SubnormalsRoundExactly) {
  // bf16 shares binary32's exponent range, so float subnormals land on
  // bf16 subnormals through the same carry chain. 2^-133 is the smallest
  // bf16 subnormal.
  const float tiny = std::ldexp(1.0f, -133);
  EXPECT_EQ(bf16(tiny).to_bits(), 0x0001u);
  EXPECT_EQ(static_cast<float>(bf16(tiny)), tiny);
  EXPECT_EQ(bf16(std::ldexp(1.0f, -126)).to_bits(), 0x0080u);  // min normal
  // Halfway between 0 and the smallest subnormal ties to even (zero).
  EXPECT_EQ(bf16(std::ldexp(1.0f, -134)).to_bits(), 0x0000u);
}

TEST(Bf16, OverflowInfNanAndSignedZero) {
  // FLT_MAX exceeds the bf16 RNE overflow threshold (2 - 2^-8) * 2^127.
  EXPECT_TRUE(std::isinf(
      static_cast<float>(bf16(std::numeric_limits<float>::max()))));
  // Infinities and their signs are preserved exactly.
  EXPECT_EQ(bf16(std::numeric_limits<float>::infinity()).to_bits(), 0x7F80u);
  EXPECT_EQ(bf16(-std::numeric_limits<float>::infinity()).to_bits(), 0xFF80u);
  // The largest finite bf16 is preserved, not rounded to inf.
  EXPECT_EQ(bf16(static_cast<float>(bf16::from_bits(0x7F7Fu))).to_bits(),
            0x7F7Fu);
  // NaN stays NaN (quieted), never an infinity.
  EXPECT_TRUE(std::isnan(static_cast<float>(bf16(std::nanf("")))));
  // Signed zero keeps its sign bit.
  EXPECT_EQ(bf16(-0.0f).to_bits(), 0x8000u);
  EXPECT_EQ(bf16(0.0f).to_bits(), 0x0000u);
  EXPECT_EQ(ulp_distance_bf16(bf16(-0.0f), bf16(0.0f)), 0);
}

TEST(Dtype, ParseToStringAndErrors) {
  EXPECT_EQ(parse_dtype("f64"), Dtype::kF64);
  EXPECT_EQ(parse_dtype("double"), Dtype::kF64);
  EXPECT_EQ(parse_dtype("f32"), Dtype::kF32);
  EXPECT_EQ(parse_dtype("float"), Dtype::kF32);
  EXPECT_EQ(parse_dtype("bf16"), Dtype::kBf16);
  EXPECT_EQ(parse_dtype("native"), Dtype::kNative);
  for (const Dtype d :
       {Dtype::kNative, Dtype::kF64, Dtype::kF32, Dtype::kBf16}) {
    EXPECT_EQ(parse_dtype(to_string(d)), d);
  }
  try {
    parse_dtype("fp8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    // The error lists the valid dtype keys.
    EXPECT_NE(std::string(error.what()).find("bf16"), std::string::npos);
  }
}

TEST(ReductionSpec, GrammarRoundTripsAndDefaults) {
  const ReductionSpec bare = parse_reduction_spec("kahan");
  EXPECT_EQ(bare.algorithm, AlgorithmId::kKahan);
  EXPECT_TRUE(bare.native());
  EXPECT_EQ(to_string(bare), "kahan");

  const ReductionSpec mixed = parse_reduction_spec("kahan@bf16:f32");
  EXPECT_EQ(mixed.algorithm, AlgorithmId::kKahan);
  EXPECT_EQ(mixed.storage, Dtype::kBf16);
  EXPECT_EQ(mixed.accumulate, Dtype::kF32);
  EXPECT_EQ(parse_reduction_spec(to_string(mixed)), mixed);

  // Omitted accumulate dtype defaults to the storage dtype.
  const ReductionSpec pure = parse_reduction_spec("serial@bf16");
  EXPECT_EQ(pure.storage, Dtype::kBf16);
  EXPECT_EQ(pure.accumulate, Dtype::kBf16);

  // kNative resolves against the calling kernel's element type.
  const ReductionSpec resolved = bare.resolved(Dtype::kF32);
  EXPECT_EQ(resolved.storage, Dtype::kF32);
  EXPECT_EQ(resolved.accumulate, Dtype::kF32);

  // The implicit AlgorithmId shim means what it always meant.
  const ReductionSpec shimmed = AlgorithmId::kKlein;
  EXPECT_EQ(shimmed, ReductionSpec(AlgorithmId::kKlein, Dtype::kNative,
                                   Dtype::kNative));
}

TEST(ReductionSpec, UnknownKeysThrowListingCatalogues) {
  try {
    parse_reduction_spec("kahansum@bf16:f32");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("superaccumulator"),
              std::string::npos);
  }
  try {
    parse_reduction_spec("kahan@fp8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("bf16"), std::string::npos);
  }
  try {
    parse_reduction_spec("kahan@bf16:int8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("f32"), std::string::npos);
  }
}

TEST(ReductionSpec, FuzzedNamesRoundTripOrThrow) {
  // Random token strings, random character strings and mutated valid
  // names, all over the grammar's alphabet (@simd lane counts included):
  // every parse either round-trips through to_string - with a supported
  // lane count and a fold table - or throws std::invalid_argument. Any
  // other exception fails the test; a crash fails the sanitizer jobs.
  const std::vector<std::string> tokens = {
      "serial", "pairwise", "kahan", "neumaier", "klein", "double_double",
      "vectorized", "binned", "superaccumulator", "@", "@", ":", ":", "simd",
      "simd", "native", "f64", "f32", "bf16", "0", "1", "3", "4", "8", "16",
      "32", "256", "008", "x", "_", "-", " "};
  const std::vector<std::string> valid = {
      "kahan", "kahan@simd8:bf16:f32", "serial@f32", "pairwise@bf16:f64",
      "superaccumulator@simd16", "binned@simd4:native:f32",
      "double_double@f64:bf16", "klein@simd1", "vectorized@native"};
  const std::string alphabet = "abdeiklmnoprstuvz_@:0123456789 -";
  util::Xoshiro256pp rng(1019);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string name;
    const std::size_t kind = pick(3);
    if (kind == 0) {
      for (std::size_t t = pick(6); t > 0; --t) {
        name += tokens[pick(tokens.size())];
      }
    } else if (kind == 1) {
      for (std::size_t c = pick(24); c > 0; --c) {
        name += alphabet[pick(alphabet.size())];
      }
    } else {
      name = valid[pick(valid.size())];
      for (std::size_t m = 1 + pick(3); m > 0; --m) {
        const std::size_t at = pick(name.size() + 1);
        const char c = alphabet[pick(alphabet.size())];
        switch (pick(3)) {
          case 0: name.insert(at, 1, c); break;
          case 1: if (at < name.size()) name.erase(at, 1); break;
          default: if (at < name.size()) name[at] = c; break;
        }
      }
    }
    SCOPED_TRACE("'" + name + "'");
    ReductionSpec spec;
    try {
      spec = parse_reduction_spec(name);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    EXPECT_TRUE(simd_lane_count_supported(spec.lanes));
    EXPECT_TRUE(parse_reduction_spec(to_string(spec)) == spec);
    EXPECT_NO_THROW((void)Fold<double>::of(spec));
  }
  // The generator reaches the grammar, not only its error paths.
  EXPECT_GT(accepted, 200u);
}

TEST(ReductionSpec, NativeSpecIsBitwiseTheScalarApi) {
  const auto v = random_values(10000, -1e6, 1e6, 404);
  for (const auto& entry : kAlgorithms) {
    SCOPED_TRACE(entry.name);
    const ReductionSpec spec{entry.id};
    EXPECT_TRUE(bitwise_equal(reduce(spec, std::span<const double>(v)),
                              reduce(entry.id, std::span<const double>(v))));
    EXPECT_TRUE(bitwise_equal(sum_named(entry.name, v),
                              reduce<double>(entry.id, v)));
  }
}

TEST(ReductionSpec, Bf16StorageMatchesReferenceFp32Accumulate) {
  // The satellite property: `reduce` over bf16 storage must equal the
  // hand-built reference - quantize every addend to bf16, stream the
  // exact widened values through the algorithm's fp32 accumulator.
  const auto v = random_values(5000, -100.0, 100.0, 505);
  for (const auto& entry : kAlgorithms) {
    SCOPED_TRACE(entry.name);
    const ReductionSpec spec{entry.id, Dtype::kBf16, Dtype::kF32};
    const double via_spec = reduce(spec, std::span<const double>(v));
    const float reference = visit_algorithm(entry.id, [&](auto tag) {
      typename decltype(tag)::template accumulator_t<float> acc;
      for (const double x : v) {
        acc.add(static_cast<float>(bf16(static_cast<float>(x))));
      }
      return acc.result();
    });
    EXPECT_TRUE(bitwise_equal(via_spec, static_cast<double>(reference)));

    // And the float kernel's bf16:f32 fold agrees with the same
    // reference.
    const std::vector<float> vf(v.begin(), v.end());
    EXPECT_TRUE(bitwise_equal32(reduce<float>(spec, vf), reference));
  }
}

TEST(AlgorithmCatalogue, PerDtypeSurfacesRegistered) {
  util::Xoshiro256pp rng(11);
  const util::UniformReal dist(-50.0, 50.0);
  std::vector<float> v(4096);
  for (auto& x : v) x = static_cast<float>(dist(rng));
  for (const auto& entry : kAlgorithms) {
    SCOPED_TRACE(entry.name);
    // The f32:f32 fold is the streaming float accumulator - the same
    // value reduce<float>(id) computes.
    const float streamed = visit_algorithm(entry.id, [&](auto tag) {
      typename decltype(tag)::template accumulator_t<float> acc;
      acc.add(std::span<const float>(v));
      return acc.result();
    });
    const ReductionSpec f32{entry.id, Dtype::kF32, Dtype::kF32};
    EXPECT_TRUE(bitwise_equal32(reduce<float>(f32, v), streamed));
    EXPECT_TRUE(bitwise_equal32(reduce<float>(entry.id, v), streamed));
    // Dtype axes do not change the declared contract.
    EXPECT_EQ(traits_of(ReductionSpec{entry.id, Dtype::kBf16, Dtype::kF32})
                  .exact_merge,
              entry.traits.exact_merge);
  }
}

TEST(ReductionSpec, Bf16AccumulateDriftsFurtherThanMixedPrecision) {
  // The motivating inequality of the mixed-precision setting: on a long
  // ill-scaled stream, bf16 storage with fp32 accumulate stays close to
  // the exact quantized sum, while accumulating *in* bf16 drifts.
  const auto v = random_values(20000, 0.0, 1.0, 606);
  const double exact_quantized =
      reduce(ReductionSpec{AlgorithmId::kSuperaccumulator, Dtype::kBf16,
                           Dtype::kF64},
             std::span<const double>(v));
  const double mixed = reduce(
      ReductionSpec{AlgorithmId::kSerial, Dtype::kBf16, Dtype::kF32},
      std::span<const double>(v));
  const double pure = reduce(
      ReductionSpec{AlgorithmId::kSerial, Dtype::kBf16, Dtype::kBf16},
      std::span<const double>(v));
  EXPECT_LT(std::fabs(mixed - exact_quantized),
            std::fabs(pure - exact_quantized));
  // bf16's 8-bit significand saturates a serial accumulation once the
  // running sum dwarfs the addends; fp32 accumulation does not.
  EXPECT_GT(std::fabs(pure - exact_quantized), 1.0);
}

// ------------------------------------------------- SIMD lane blocking --

// Restores the force-scalar override (and therefore the dispatch tier)
// however a test exits.
struct ForceScalarGuard {
  ~ForceScalarGuard() { set_simd_force_scalar(std::nullopt); }
};

TEST(Simd, SupportAndForceScalarRoundTrip) {
  ForceScalarGuard guard;
  const SimdSupport& support = simd_support();
  // AVX-512F implies AVX2 on every real CPU; the detector preserves it.
  if (support.avx512f) {
    EXPECT_TRUE(support.avx2);
  }
  const std::string isa = simd_active_isa();
  EXPECT_TRUE(isa == "avx512f" || isa == "avx2" || isa == "scalar");

  set_simd_force_scalar(true);
  EXPECT_TRUE(simd_force_scalar());
  EXPECT_STREQ(simd_active_isa(), "scalar");
  set_simd_force_scalar(false);
  EXPECT_FALSE(simd_force_scalar());
  set_simd_force_scalar(std::nullopt);  // back to the environment's answer
  EXPECT_TRUE(isa == simd_active_isa());
}

// The certification property behind the whole tier: for every lane
// count, the intrinsics dispatch and the portable scalar lane-emulation
// are the SAME re-association, bit for bit - including when the stream
// arrives in ragged pieces that leave the round-robin cursor mid-phase.
template <typename Base, std::size_t L, typename T>
void expect_intrinsics_match_emulation(std::span<const T> values) {
  ForceScalarGuard guard;
  // Reference: the always-compiled element loop (force-scalar on), fed
  // the same ragged pieces.
  const std::vector<std::size_t> cuts{0, 1, L - 1, L, 3 * L + 1,
                                      values.size()};
  const auto run = [&](bool force) {
    set_simd_force_scalar(force);
    LaneBlockedAccumulator<Base, L> acc;
    std::size_t begin = 0;
    for (const std::size_t cut : cuts) {
      const std::size_t end = std::min(values.size(), std::max(cut, begin));
      acc.add(values.subspan(begin, end - begin));
      begin = end;
    }
    acc.add(values.subspan(begin));
    return acc.result();
  };
  const auto emulated = run(true);
  const auto dispatched = run(false);
  EXPECT_EQ(to_bits(static_cast<double>(emulated)),
            to_bits(static_cast<double>(dispatched)));
}

TEST(Simd, IntrinsicsMatchLaneEmulationBitwise) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000},
                              std::size_t{4097}}) {
    SCOPED_TRACE(n);
    const auto v = random_values(n, -1e12, 1e12, 0xC0FFEE + n);
    std::vector<float> vf(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      vf[i] = static_cast<float>(v[i]);
    }
    const std::span<const double> d(v);
    const std::span<const float> f(vf);

    expect_intrinsics_match_emulation<SerialAccumulator<double>, 4>(d);
    expect_intrinsics_match_emulation<SerialAccumulator<double>, 8>(d);
    expect_intrinsics_match_emulation<SerialAccumulator<double>, 16>(d);
    expect_intrinsics_match_emulation<KahanAccumulator<double>, 4>(d);
    expect_intrinsics_match_emulation<KahanAccumulator<double>, 8>(d);
    expect_intrinsics_match_emulation<KahanAccumulator<double>, 16>(d);
    expect_intrinsics_match_emulation<NeumaierAccumulator<double>, 4>(d);
    expect_intrinsics_match_emulation<NeumaierAccumulator<double>, 8>(d);
    expect_intrinsics_match_emulation<KleinAccumulator<double>, 4>(d);
    expect_intrinsics_match_emulation<KleinAccumulator<double>, 8>(d);
    expect_intrinsics_match_emulation<KleinAccumulator<double>, 16>(d);
    expect_intrinsics_match_emulation<PairwiseAccumulator<double>, 4>(d);
    expect_intrinsics_match_emulation<PairwiseAccumulator<double>, 8>(d);
    expect_intrinsics_match_emulation<SerialAccumulator<float>, 8>(f);
    expect_intrinsics_match_emulation<KahanAccumulator<float>, 8>(f);
    expect_intrinsics_match_emulation<KahanAccumulator<float>, 16>(f);
    expect_intrinsics_match_emulation<NeumaierAccumulator<float>, 16>(f);
    expect_intrinsics_match_emulation<KleinAccumulator<float>, 8>(f);
    expect_intrinsics_match_emulation<PairwiseAccumulator<float>, 16>(f);
  }
}

TEST(Simd, LaneEmulationMatchesHandFoldedLanes) {
  // Pin the reference re-association itself: element i goes to lane
  // i mod L, lanes fold in ascending index order at result().
  const auto v = random_values(1003, -1e6, 1e6, 77);
  constexpr std::size_t kL = 4;
  ForceScalarGuard guard;
  set_simd_force_scalar(true);
  LaneBlockedAccumulator<KahanAccumulator<double>, kL> acc;
  acc.add(std::span<const double>(v));

  std::array<KahanAccumulator<double>, kL> lanes;
  for (std::size_t i = 0; i < v.size(); ++i) lanes[i % kL].add(v[i]);
  KahanAccumulator<double> total = lanes[0];
  for (std::size_t l = 1; l < kL; ++l) total.merge(lanes[l]);
  EXPECT_TRUE(bitwise_equal(acc.result(), total.result()));
}

TEST(Simd, EverySpecInTheLaneGridRunsOnThisHost) {
  // The portability half of the certificate: every catalogue algorithm
  // composed with every lane count (and a dtype axis for good measure)
  // evaluates on ANY host - intrinsics where the CPU has them, the
  // emulation elsewhere - with force-scalar toggling never moving bits.
  ForceScalarGuard guard;
  const auto v = random_values(2048, -1e3, 1e3, 88);
  const std::span<const double> values(v);
  for (const auto& entry : kAlgorithms) {
    for (const std::size_t lanes : kSimdLaneCounts) {
      SCOPED_TRACE(entry.name + ("@simd" + std::to_string(lanes)));
      const ReductionSpec spec{entry.id, Dtype::kNative, Dtype::kNative,
                               static_cast<std::uint8_t>(lanes)};
      set_simd_force_scalar(false);
      const double fast = reduce(spec, values);
      set_simd_force_scalar(true);
      const double emulated = reduce(spec, values);
      EXPECT_TRUE(bitwise_equal(fast, emulated));

      const ReductionSpec mixed{entry.id, Dtype::kBf16, Dtype::kF32,
                                static_cast<std::uint8_t>(lanes)};
      set_simd_force_scalar(false);
      const double fast_mixed = reduce(mixed, values);
      set_simd_force_scalar(true);
      const double emulated_mixed = reduce(mixed, values);
      EXPECT_TRUE(bitwise_equal(fast_mixed, emulated_mixed));
    }
  }
}

TEST(Simd, Simd1IsBitwiseTheBaseScalar) {
  // @simd1 is the base algorithm by construction: the grammar accepts
  // it, the spec normalises back to the bare name, and the bits agree.
  const ReductionSpec one = parse_reduction_spec("kahan@simd1");
  EXPECT_EQ(one.lanes, 1);
  EXPECT_FALSE(one.lane_blocked());
  EXPECT_EQ(one, parse_reduction_spec("kahan"));
  EXPECT_EQ(to_string(one), "kahan");

  const auto v = random_values(4096, -1e9, 1e9, 99);
  EXPECT_TRUE(bitwise_equal(reduce(one, std::span<const double>(v)),
                            reduce(AlgorithmId::kKahan,
                                   std::span<const double>(v))));
}

TEST(Simd, GrammarRoundTripsWithLanes) {
  const ReductionSpec full = parse_reduction_spec("kahan@simd8:bf16:f32");
  EXPECT_EQ(full.algorithm, AlgorithmId::kKahan);
  EXPECT_EQ(full.lanes, 8);
  EXPECT_EQ(full.storage, Dtype::kBf16);
  EXPECT_EQ(full.accumulate, Dtype::kF32);
  EXPECT_EQ(to_string(full), "kahan@simd8:bf16:f32");
  EXPECT_EQ(parse_reduction_spec(to_string(full)), full);

  const ReductionSpec bare = parse_reduction_spec("serial@simd4");
  EXPECT_EQ(bare.lanes, 4);
  EXPECT_TRUE(bare.native());
  EXPECT_EQ(to_string(bare), "serial@simd4");
  EXPECT_EQ(parse_reduction_spec(to_string(bare)), bare);

  // with_lanes is the programmatic spelling of the same axis.
  EXPECT_EQ(parse_reduction_spec("klein").with_lanes(16),
            parse_reduction_spec("klein@simd16"));
}

TEST(Simd, UnsupportedLaneTokensThrowListingTheValidSet) {
  for (const char* bad : {"kahan@simd3", "kahan@simd0", "kahan@simd32",
                          "kahan@simdx", "kahan@simd"}) {
    SCOPED_TRACE(bad);
    try {
      parse_reduction_spec(bad);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find('4'), std::string::npos);
      EXPECT_NE(what.find("16"), std::string::npos);
    }
  }
  EXPECT_THROW(Fold<double>::of(ReductionSpec{AlgorithmId::kKahan,
                                              Dtype::kNative, Dtype::kNative,
                                              3}),
               std::invalid_argument);
}

TEST(Simd, RegistryCatalogueErrorMentionsTheLaneAxis) {
  try {
    (void)algorithm_named("no-such-algorithm");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("@simd"), std::string::npos);
  }
}

TEST(Simd, AddI64MatchesScalarLoop) {
  ForceScalarGuard guard;
  std::vector<std::int64_t> a(137), b(137), reference;
  util::Xoshiro256pp rng(3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int64_t>(rng()) >> 8;
    b[i] = static_cast<std::int64_t>(rng()) >> 8;
  }
  reference = a;
  for (std::size_t i = 0; i < a.size(); ++i) reference[i] += b[i];
  set_simd_force_scalar(false);
  simd_add_i64(a.data(), b.data(), a.size());
  EXPECT_EQ(a, reference);
}

TEST(Superaccumulator, AddWireMatchesDeserializeAdd) {
  const auto v = random_values(512, -1e30, 1e30, 1234);
  Superaccumulator incoming;
  incoming.add(std::span<const double>(v).subspan(0, 256));
  std::vector<std::uint64_t> words(Superaccumulator::kWireWords);
  incoming.serialize(words);

  Superaccumulator via_wire, via_deserialize;
  via_wire.add(std::span<const double>(v).subspan(256));
  via_deserialize.add(std::span<const double>(v).subspan(256));
  via_wire.add_wire(words);
  via_deserialize.add(Superaccumulator::deserialize(words));
  EXPECT_TRUE(via_wire.equals(via_deserialize));
  EXPECT_TRUE(bitwise_equal(via_wire.round(), via_deserialize.round()));

  std::vector<std::uint64_t> wrong(Superaccumulator::kWireWords - 1);
  EXPECT_THROW(via_wire.add_wire(wrong), std::invalid_argument);
}

// Contrast property: the serial sum is NOT permutation invariant on the
// same data (this is the premise of the whole paper).
TEST(Summation, SerialSumIsOrderSensitive) {
  auto v = random_values(100000, -1e10, 1e10, 23);
  const double first = sum_serial(v);
  util::Xoshiro256pp rng(5);
  bool any_different = false;
  for (int trial = 0; trial < 10 && !any_different; ++trial) {
    util::shuffle(v, rng);
    any_different = !bitwise_equal(sum_serial(v), first);
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace fpna::fp
