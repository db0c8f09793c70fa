// Unit tests for fpna::core: the paper's variability metrics (Vs, Vermv,
// Vc), the run context, and the run-to-run variability harness.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "fpna/core/chunking.hpp"
#include "fpna/core/eval_context.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/fp/summation.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------- Vs ----

TEST(Vs, ZeroIffBitwiseEqual) {
  EXPECT_EQ(vs(1.5, 1.5), 0.0);
  EXPECT_EQ(vs(0.0, 0.0), 0.0);
  EXPECT_NE(vs(1.5, 1.5000000000000002), 0.0);
}

TEST(Vs, MatchesPaperFormula) {
  EXPECT_DOUBLE_EQ(vs(3.0, 2.0), 1.0 - 3.0 / 2.0);
  EXPECT_DOUBLE_EQ(vs(-3.0, 2.0), 1.0 - 1.5);  // |nd/d|
}

TEST(Vs, SignedZerosAreNotVariability) {
  EXPECT_EQ(vs(0.0, -0.0), 0.0);
}

TEST(Vs, ZeroReferenceGivesInfinity) {
  EXPECT_TRUE(std::isinf(vs(1.0, 0.0)));
}

TEST(Vs, NanPropagates) {
  EXPECT_TRUE(std::isnan(vs(kNaN, 1.0)));
  EXPECT_TRUE(std::isnan(vs(1.0, kNaN)));
  EXPECT_EQ(vs(kNaN, kNaN), 0.0);  // bitwise-equal NaNs: reproducible
}

TEST(Vs, MagnitudeScalesWithRelativeError) {
  const double d = 1.0;
  EXPECT_LT(std::fabs(vs(1.0 + 1e-15, d)), std::fabs(vs(1.0 + 1e-12, d)));
}

// -------------------------------------------------------------- Vermv ----

TEST(Vermv, ZeroForIdenticalArrays) {
  const std::vector<double> a{1.0, -2.0, 3.5};
  EXPECT_EQ(vermv(a, a), 0.0);
}

TEST(Vermv, MatchesHandComputation) {
  const std::vector<double> a{2.0, 4.0};
  const std::vector<double> b{2.0, 5.0};
  // (0 + |4-5|/4) / 2
  EXPECT_DOUBLE_EQ(vermv(a, b), 0.125);
}

TEST(Vermv, ZeroDenominatorFallsBackToOther) {
  const std::vector<double> a{0.0};
  const std::vector<double> b{7.0};
  EXPECT_DOUBLE_EQ(vermv(a, b), 1.0);
}

TEST(Vermv, SignedZeroPairContributesNothing) {
  const std::vector<double> a{0.0, 1.0};
  const std::vector<double> b{-0.0, 1.0};
  EXPECT_EQ(vermv(a, b), 0.0);
}

TEST(Vermv, ShapeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(vermv(a, b), std::invalid_argument);
}

TEST(Vermv, EmptyArraysAreIdentical) {
  const std::vector<double> empty;
  EXPECT_EQ(vermv(empty, empty), 0.0);
}

TEST(Vermv, FloatOverloadAtFloatScale) {
  // One float ulp at 1.0f is ~1.19e-7: the scale of the paper's Table 5.
  const std::vector<float> a{1.0f, 1.0f};
  const std::vector<float> b{std::nextafter(1.0f, 2.0f), 1.0f};
  const double v = vermv(std::span<const float>(a), std::span<const float>(b));
  EXPECT_NEAR(v, 5.96e-8, 1e-9);
}

// ----------------------------------------------------------------- Vc ----

TEST(Vc, CountsDifferingFraction) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  std::vector<double> b = a;
  b[1] = 2.0000001;
  b[3] = -4.0;
  EXPECT_DOUBLE_EQ(vc(a, b), 0.5);
}

TEST(Vc, BitwiseSensitivity) {
  const std::vector<double> a{0.0};
  const std::vector<double> b{-0.0};
  EXPECT_DOUBLE_EQ(vc(a, b), 1.0);  // count metric is strictly bitwise
}

TEST(Vc, IdenticalNansDoNotCount) {
  const std::vector<double> a{kNaN};
  const std::vector<double> b{kNaN};
  EXPECT_EQ(vc(a, b), 0.0);
}

TEST(BitwiseEqualSpan, LengthMismatchIsUnequal) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_FALSE(bitwise_equal(std::span<const double>(a),
                             std::span<const double>(b)));
}

// Property sweep: the metric axioms of SII hold for arbitrary random
// array pairs - V == 0 iff bitwise identical, Vc symmetric and within
// [0, 1], Vermv non-negative, perturbing one element moves both metrics.
class MetricAxioms : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MetricAxioms, HoldOnRandomArrays) {
  const std::size_t n = GetParam();
  util::Xoshiro256pp rng(n * 2654435761u + 1);
  const util::UniformReal dist(-1e3, 1e3);
  std::vector<double> a(n);
  for (auto& x : a) x = dist(rng);

  // Identity axioms.
  EXPECT_EQ(vermv(a, a), 0.0);
  EXPECT_EQ(vc(a, a), 0.0);
  EXPECT_TRUE(bitwise_equal(std::span<const double>(a),
                            std::span<const double>(a)));

  // Perturb one element by one ulp: both metrics strictly positive, Vc
  // exactly 1/n, Vc symmetric.
  std::vector<double> b = a;
  b[n / 2] = std::nextafter(b[n / 2], 1e9);
  EXPECT_GT(vermv(a, b), 0.0);
  EXPECT_DOUBLE_EQ(vc(a, b), 1.0 / static_cast<double>(n));
  EXPECT_DOUBLE_EQ(vc(a, b), vc(b, a));

  // Range axioms.
  std::vector<double> c(n);
  for (auto& x : c) x = dist(rng);
  const double count = vc(a, c);
  EXPECT_GE(count, 0.0);
  EXPECT_LE(count, 1.0);
  EXPECT_GE(vermv(a, c), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MetricAxioms,
                         ::testing::Values(1u, 2u, 17u, 256u, 4096u));

// ---------------------------------------------------------- RunContext ----

TEST(RunContext, SameIdentitySameStream) {
  RunContext a(123, 7);
  RunContext b(123, 7);
  EXPECT_EQ(a.seed(), b.seed());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.rng()(), b.rng()());
}

TEST(RunContext, DifferentRunsDifferentStreams) {
  RunContext a(123, 7);
  RunContext b(123, 8);
  EXPECT_NE(a.seed(), b.seed());
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.rng()() == b.rng()());
  EXPECT_LT(equal, 3);
}

TEST(RunContext, ForkGivesDecorrelatedComponentStreams) {
  RunContext ctx(55, 0);
  auto s1 = ctx.fork(1);
  auto s2 = ctx.fork(2);
  auto s1_again = RunContext(55, 0).fork(1);
  EXPECT_EQ(s1(), s1_again());
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (s1() == s2());
  EXPECT_LT(equal, 3);
}

// ------------------------------------------------------------- harness ----

// A non-deterministic "kernel": serial sum of a fixed array after a
// run-seeded shuffle (the paper's model of an async reduction).
std::vector<double> fixed_data() {
  std::vector<double> v(2000);
  util::Xoshiro256pp rng(4242);
  const util::UniformReal dist(-1e6, 1e6);
  for (auto& x : v) x = dist(rng);
  return v;
}

double nd_sum_kernel(RunContext& ctx) {
  auto v = fixed_data();
  auto rng = ctx.fork(0);
  util::shuffle(v, rng);
  return fp::sum_serial(v);
}

double d_sum_kernel(RunContext&) { return fp::sum_serial(fixed_data()); }

TEST(ScalarHarness, DetectsVariability) {
  const auto report =
      measure_scalar_variability(d_sum_kernel, nd_sum_kernel, 50, 1);
  EXPECT_EQ(report.runs, 50u);
  EXPECT_EQ(report.vs_samples.size(), 50u);
  EXPECT_GT(report.vs_summary.max, report.vs_summary.min);
  EXPECT_LT(report.reproducible_fraction, 1.0);
  EXPECT_EQ(report.reference_value, fp::sum_serial(fixed_data()));
}

TEST(ScalarHarness, DeterministicKernelScoresZero) {
  const auto report =
      measure_scalar_variability(d_sum_kernel, d_sum_kernel, 20, 1);
  for (const double v : report.vs_samples) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(report.reproducible_fraction, 1.0);
}

TEST(ScalarHarness, FirstRunReferenceMode) {
  const auto report = measure_scalar_variability(
      d_sum_kernel, nd_sum_kernel, 30, 9, Reference::kFirstRun);
  EXPECT_EQ(report.runs, 30u);
  // Reference is B_0, which the ND kernel reproduces only by accident.
  EXPECT_LT(report.reproducible_fraction, 1.0);
}

TEST(ScalarHarness, ReplaysExactly) {
  const auto a = measure_scalar_variability(d_sum_kernel, nd_sum_kernel, 20, 3);
  const auto b = measure_scalar_variability(d_sum_kernel, nd_sum_kernel, 20, 3);
  EXPECT_EQ(a.vs_samples, b.vs_samples);
}

std::vector<double> nd_array_kernel(RunContext& ctx) {
  // Two shuffled sub-sums: an array output with elementwise variability.
  auto v = fixed_data();
  auto rng = ctx.fork(1);
  util::shuffle(v, rng);
  const std::span<const double> s(v);
  return {fp::sum_serial(s.first(1000)), fp::sum_serial(s.subspan(1000)),
          42.0};
}

std::vector<double> d_array_kernel(RunContext&) {
  const auto v = fixed_data();
  const std::span<const double> s(v);
  return {fp::sum_serial(s.first(1000)), fp::sum_serial(s.subspan(1000)),
          42.0};
}

TEST(ArrayHarness, PerElementMetrics) {
  const auto report =
      measure_array_variability(d_array_kernel, nd_array_kernel, 40, 5);
  EXPECT_EQ(report.elements, 3u);
  EXPECT_EQ(report.vc_samples.size(), 40u);
  // The constant third element never differs: Vc <= 2/3.
  for (const double c : report.vc_samples) EXPECT_LE(c, 2.0 / 3.0 + 1e-12);
  EXPECT_GT(report.vc_summary.mean, 0.0);
  EXPECT_GT(report.vermv_summary.mean, 0.0);
}

TEST(ArrayHarness, SizeChangeThrows) {
  int call = 0;
  const ArrayKernel shrinking = [&call](RunContext&) {
    return std::vector<double>(static_cast<std::size_t>(3 - call++), 0.0);
  };
  EXPECT_THROW(measure_array_variability(shrinking, shrinking, 3, 1),
               std::runtime_error);
}

TEST(Certification, PassesDeterministicKernel) {
  const auto result = certify_deterministic(d_array_kernel, 20, 11);
  EXPECT_TRUE(result.deterministic);
}

TEST(Certification, FailsNonDeterministicKernel) {
  const auto result = certify_deterministic(nd_array_kernel, 20, 11);
  EXPECT_FALSE(result.deterministic);
  EXPECT_GT(result.first_divergence, 0u);
}

TEST(Certification, ScalarWrapper) {
  EXPECT_TRUE(certify_deterministic_scalar(d_sum_kernel, 10, 2).deterministic);
  EXPECT_FALSE(
      certify_deterministic_scalar(nd_sum_kernel, 10, 2).deterministic);
}

TEST(CountUnique, CountsDistinctBitPatterns) {
  const std::vector<std::vector<double>> outputs{
      {1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0000000001}, {-0.0, 2.0}, {0.0, 2.0}};
  EXPECT_EQ(count_unique_outputs(outputs), 4u);  // +-0 are distinct patterns
}

TEST(CountUnique, EmptyAndSingleton) {
  EXPECT_EQ(count_unique_outputs({}), 0u);
  EXPECT_EQ(count_unique_outputs({{1.0}}), 1u);
}

// ----------------------------------------- EvalContext reduction specs --

// The ReductionSpec migration contract: a default context is the native
// serial spec; assigning a bare AlgorithmId (the deprecated scalar shim)
// still compiles and still means native dtypes; with_accumulator accepts
// the full spec.
TEST(EvalContext, ReductionSpecDefaultsAndShim) {
  const EvalContext ctx;
  EXPECT_FALSE(ctx.accumulator.has_value());
  EXPECT_EQ(ctx.reduction_in_effect(), fp::ReductionSpec{});

  EvalContext scalar;
  scalar.accumulator = fp::AlgorithmId::kKahan;  // shim: implicit spec
  EXPECT_EQ(scalar.reduction_in_effect().algorithm, fp::AlgorithmId::kKahan);
  EXPECT_TRUE(scalar.reduction_in_effect().native());

  const EvalContext mixed = ctx.with_accumulator(fp::ReductionSpec{
      fp::AlgorithmId::kKahan, fp::Dtype::kBf16, fp::Dtype::kF32});
  EXPECT_EQ(mixed.reduction_in_effect().storage, fp::Dtype::kBf16);
  EXPECT_EQ(mixed.reduction_in_effect().accumulate, fp::Dtype::kF32);
  EXPECT_EQ(mixed.reduction_in_effect().algorithm, fp::AlgorithmId::kKahan);

  // An explicit kSerial stays distinguishable from "unset" (the TPRC
  // historic-default rule).
  const EvalContext serial = ctx.with_accumulator(fp::AlgorithmId::kSerial);
  EXPECT_TRUE(serial.accumulator.has_value());
}

// ------------------------------------------------------------ chunking --

TEST(Chunking, EvenChunksPartitionContiguouslyAndNearEvenly) {
  for (const std::size_t total : {0u, 1u, 7u, 64u, 1000u, 4097u}) {
    for (const std::size_t parts : {1u, 2u, 3u, 7u, 16u, 5000u}) {
      SCOPED_TRACE(std::to_string(total) + "/" + std::to_string(parts));
      const auto ranges = even_chunks(total, parts);
      ASSERT_EQ(ranges.size(), parts);
      std::size_t expect_begin = 0, min_len = total, max_len = 0;
      for (std::size_t c = 0; c < parts; ++c) {
        EXPECT_EQ(ranges[c].first, expect_begin);
        EXPECT_LE(ranges[c].first, ranges[c].second);
        // The closed-form single-chunk accessors agree with the scan.
        EXPECT_EQ(even_chunk(total, parts, c), ranges[c]);
        EXPECT_EQ(even_chunk_size(total, parts, c),
                  ranges[c].second - ranges[c].first);
        const std::size_t len = ranges[c].second - ranges[c].first;
        min_len = std::min(min_len, len);
        max_len = std::max(max_len, len);
        expect_begin = ranges[c].second;
      }
      EXPECT_EQ(expect_begin, total);           // exact partition
      EXPECT_LE(max_len - min_len, 1u);         // near-even
      // Longer chunks come first (the OpenMP static-schedule shape).
      EXPECT_EQ(ranges.front().second - ranges.front().first, max_len);
    }
  }
  EXPECT_THROW(even_chunks(10, 0), std::invalid_argument);
  EXPECT_THROW(even_chunk(10, 4, 4), std::invalid_argument);
}

TEST(Chunking, CeilChunkCoversWithFixedStride) {
  for (const std::size_t total : {0u, 1u, 10u, 63u, 64u, 65u}) {
    for (const std::size_t parts : {1u, 2u, 7u, 100u}) {
      SCOPED_TRACE(std::to_string(total) + "/" + std::to_string(parts));
      const std::size_t stride = (total + parts - 1) / parts;
      std::size_t covered = 0;
      for (std::size_t c = 0; c < parts; ++c) {
        const auto [begin, end] = ceil_chunk(total, parts, c);
        EXPECT_EQ(begin, std::min(total, c * stride));
        EXPECT_EQ(end, std::min(total, begin + stride));
        covered += end - begin;
      }
      EXPECT_EQ(covered, total);
    }
  }
  EXPECT_THROW(ceil_chunk(10, 0, 0), std::invalid_argument);
}

// The invariant the header documents: ThreadPool::parallel_for cannot
// include core/chunking.hpp (util sits below core), so this test pins
// that its hand-rolled near-even split places every boundary exactly
// where core::even_chunk does.
TEST(Chunking, ParallelForBoundariesAgreeWithEvenChunk) {
  util::ThreadPool pool(3);
  for (const std::size_t n : {1u, 5u, 64u, 1001u}) {
    for (const std::size_t chunks : {1u, 2u, 7u, 64u}) {
      SCOPED_TRACE(std::to_string(n) + "/" + std::to_string(chunks));
      // parallel_for clamps the chunk count to n; mirror that policy.
      const std::size_t effective = std::min(chunks, n);
      std::vector<std::pair<std::size_t, std::size_t>> observed(effective);
      std::mutex mutex;
      pool.parallel_for(
          n,
          [&](std::size_t begin, std::size_t end, std::size_t c) {
            const std::lock_guard lock(mutex);
            observed[c] = {begin, end};
          },
          chunks);
      EXPECT_EQ(observed, even_chunks(n, effective));
    }
  }
}

TEST(Chunking, SizeDerivedPartsIsAPureFunctionOfTheShape) {
  // ~64k scalar ops per chunk, at least one row each, never zero chunks
  // for nonzero work.
  EXPECT_EQ(size_derived_parts(0, 100), 0u);
  EXPECT_EQ(size_derived_parts(1, 1), 1u);
  EXPECT_EQ(size_derived_parts(1024, 64), 1u);     // 64k work -> one chunk
  EXPECT_EQ(size_derived_parts(2048, 64), 2u);
  EXPECT_EQ(size_derived_parts(10, 1 << 20), 10u);  // huge rows: 1 row/chunk
  EXPECT_EQ(size_derived_parts(100, 0), 1u);        // zero work clamps
  // Same shape, same count - regardless of any pool or host property.
  EXPECT_EQ(size_derived_parts(12345, 678), size_derived_parts(12345, 678));
}

}  // namespace
}  // namespace fpna::core
