// Unit and property tests for fpna::reduce: the six simulated-GPU sum
// kernels (determinism certification, accuracy, variability) and the CPU
// reductions.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/fp/simd.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/reduce/block_sum.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/reduce/gpu_sum.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/rng.hpp"

namespace fpna::reduce {
namespace {

std::vector<double> test_array(std::size_t n, std::uint64_t seed,
                               double lo = -1e6, double hi = 1e6) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// ----------------------------------------------------------- block sum --

TEST(TreeSum, MatchesSerialForPowerOfTwo) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  // ((1+3) + (2+4)) for the halving tree = 10 exactly here.
  EXPECT_EQ(tree_sum(v), 10.0);
}

TEST(TreeSum, ZeroPadsNonPowerOfTwo) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(tree_sum(v), 6.0);
  EXPECT_EQ(tree_sum(std::vector<double>{}), 0.0);
  EXPECT_EQ(tree_sum(std::vector<double>{5.5}), 5.5);
}

TEST(TreeSum, IsDeterministicButOrderSensitive) {
  auto v = test_array(1000, 1);
  const double first = tree_sum(v);
  EXPECT_EQ(tree_sum(v), first);  // same input, same bits
  // Note: plain reversal would NOT change the value (the halving tree is
  // symmetric under reversal); a rotation genuinely re-associates.
  std::rotate(v.begin(), v.begin() + 1, v.end());
  // Usually differs in the last bits (not guaranteed, but with 1000
  // random values at 1e6 scale the probability of agreement is tiny).
  EXPECT_FALSE(fp::bitwise_equal(tree_sum(v), first));
}

TEST(BlockPartials, PartitionIsExact) {
  // Every element is consumed exactly once: with exactly-representable
  // values the partials sum to the exact total.
  std::vector<double> v(1024);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto partials = all_block_partials(v, 32, 8);
  EXPECT_EQ(partials.size(), 8u);
  double total = 0.0;
  for (const double p : partials) total += p;
  EXPECT_EQ(total, 1024.0 * 1023.0 / 2.0);
}

TEST(BlockPartials, HandlesRaggedSizes) {
  const auto v = test_array(1000, 2);
  const auto partials = all_block_partials(v, 32, 8);  // 1000 < 32*8*ceil
  fp::Superaccumulator acc;
  for (const double p : partials) acc.add(p);
  // Partials lose accuracy individually, but the exact sum of partials
  // must be close to the exact sum of the data (each partial is a
  // correctly-rounded-ish serial/tree sum; allow a loose bound).
  EXPECT_NEAR(acc.round(), fp::Superaccumulator::sum(v), 1e-4);
}

// ------------------------------------------------------------- gpu sum --

class GpuSumMethods : public ::testing::TestWithParam<sim::SumMethod> {};

TEST_P(GpuSumMethods, ValueIsCloseToExact) {
  const auto v = test_array(20000, 3, 0.0, 10.0);
  sim::SimDevice device(sim::DeviceProfile::v100());
  core::RunContext ctx(1, 0);
  const auto result = gpu_sum(device, v, GetParam(), ctx, 64);
  const double exact = fp::Superaccumulator::sum(v);
  EXPECT_NEAR(result.value, exact, std::fabs(exact) * 1e-12 + 1e-9);
  EXPECT_GT(result.modeled_time_us, 0.0);
}

TEST_P(GpuSumMethods, DeterminismMatchesTable2) {
  const auto v = test_array(8192, 4);
  sim::SimDevice device(sim::DeviceProfile::v100());
  const auto kernel = [&](core::RunContext& ctx) {
    return gpu_sum(device, v, GetParam(), ctx, 64, 16).value;
  };
  const auto cert = core::certify_deterministic_scalar(kernel, 30, 99);
  EXPECT_EQ(cert.deterministic, sim::is_deterministic(GetParam()))
      << sim::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, GpuSumMethods,
                         ::testing::Values(sim::SumMethod::kCU,
                                           sim::SumMethod::kSPTR,
                                           sim::SumMethod::kSPRG,
                                           sim::SumMethod::kTPRC,
                                           sim::SumMethod::kSPA,
                                           sim::SumMethod::kAO),
                         [](const auto& info) {
                           return sim::to_string(info.param);
                         });

TEST(GpuSum, DeterministicMethodsAgreeAcrossDevices) {
  // SPTR's value is a pure function of (data, nt, nb): device profiles
  // change scheduling, which deterministic kernels must not see.
  const auto v = test_array(4096, 5);
  core::RunContext ctx1(7, 0), ctx2(7, 1);
  sim::SimDevice v100(sim::DeviceProfile::v100());
  sim::SimDevice mi(sim::DeviceProfile::mi250x());
  const double a = gpu_sum(v100, v, sim::SumMethod::kSPTR, ctx1, 64, 16).value;
  const double b = gpu_sum(mi, v, sim::SumMethod::kSPTR, ctx2, 64, 16).value;
  EXPECT_TRUE(fp::bitwise_equal(a, b));
}

TEST(GpuSum, NdVariabilityIsNonzeroButTiny) {
  const auto v = test_array(20000, 6, 0.0, 10.0);
  sim::SimDevice device(sim::DeviceProfile::v100());
  const auto d_kernel = [&](core::RunContext& ctx) {
    return gpu_sum(device, v, sim::SumMethod::kSPTR, ctx, 64).value;
  };
  const auto nd_kernel = [&](core::RunContext& ctx) {
    return gpu_sum(device, v, sim::SumMethod::kSPA, ctx, 64).value;
  };
  const auto report =
      core::measure_scalar_variability(d_kernel, nd_kernel, 60, 11);
  EXPECT_LT(report.reproducible_fraction, 1.0);
  // Relative variability should sit near the rounding scale (|Vs| well
  // below 1e-10 for 2e4 uniform values).
  EXPECT_LT(std::fabs(report.vs_summary.max), 1e-10);
  EXPECT_NE(report.vs_summary.max, report.vs_summary.min);
}

TEST(GpuSum, AoVariabilityExceedsSpa) {
  const auto v = test_array(20000, 7, 0.0, 10.0);
  sim::SimDevice device(sim::DeviceProfile::v100());
  const auto run_stddev = [&](sim::SumMethod method) {
    const auto d = [&](core::RunContext& ctx) {
      return gpu_sum(device, v, sim::SumMethod::kSPTR, ctx, 64).value;
    };
    const auto nd = [&](core::RunContext& ctx) {
      return gpu_sum(device, v, method, ctx, 64).value;
    };
    return core::measure_scalar_variability(d, nd, 80, 13).vs_summary.stddev;
  };
  // AO permutes all n elements; SPA only the ~n/64 block partials. More
  // reordering freedom => more variability.
  EXPECT_GT(run_stddev(sim::SumMethod::kAO),
            run_stddev(sim::SumMethod::kSPA));
}

// Launch-geometry robustness sweep: every method stays accurate and keeps
// its determinism class for any (nt, nb) combination, including ragged
// grids that leave threads idle.
struct Geometry {
  std::size_t nt;
  std::size_t nb;  // 0 = derive from size
};

class GpuSumGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(GpuSumGeometry, AccuracyAndDeterminismHoldForAllGeometries) {
  const auto [nt, nb] = GetParam();
  const auto v = test_array(10000, 21, 0.0, 10.0);
  const double exact = fp::Superaccumulator::sum(v);
  sim::SimDevice device(sim::DeviceProfile::gh200());

  for (const auto method :
       {sim::SumMethod::kCU, sim::SumMethod::kSPTR, sim::SumMethod::kSPRG,
        sim::SumMethod::kTPRC, sim::SumMethod::kSPA}) {
    const auto kernel = [&, method](core::RunContext& ctx) {
      return gpu_sum(device, v, method, ctx, nt, nb).value;
    };
    core::RunContext ctx(31, 0);
    EXPECT_NEAR(kernel(ctx), exact, std::fabs(exact) * 1e-12 + 1e-9)
        << sim::to_string(method) << " nt=" << nt << " nb=" << nb;
    const auto cert = core::certify_deterministic_scalar(kernel, 10, 33);
    EXPECT_EQ(cert.deterministic, sim::is_deterministic(method))
        << sim::to_string(method) << " nt=" << nt << " nb=" << nb;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GpuSumGeometry,
    ::testing::Values(Geometry{16, 0}, Geometry{64, 0}, Geometry{256, 0},
                      Geometry{64, 7}, Geometry{512, 3}, Geometry{32, 1000}),
    [](const auto& info) {
      return "nt" + std::to_string(info.param.nt) + "_nb" +
             std::to_string(info.param.nb);
    });

TEST(GpuSum, DefaultGridBlocks) {
  EXPECT_EQ(default_grid_blocks(1000, 256), 4u);
  EXPECT_EQ(default_grid_blocks(1024, 256), 4u);
  EXPECT_EQ(default_grid_blocks(1025, 256), 5u);
  EXPECT_EQ(default_grid_blocks(0, 256), 1u);
}

TEST(GpuSum, RejectsZeroThreads) {
  const auto v = test_array(100, 8);
  sim::SimDevice device(sim::DeviceProfile::v100());
  core::RunContext ctx(1, 0);
  EXPECT_THROW(gpu_sum(device, v, sim::SumMethod::kSPA, ctx, 0),
               std::invalid_argument);
}

TEST(GpuSum, MissingFenceInjectionCorruptsResult) {
  const auto v = test_array(16384, 9, 0.0, 10.0);
  sim::SimDevice device(sim::DeviceProfile::v100());
  core::RunContext good_ctx(1, 0);
  const double good =
      gpu_sum(device, v, sim::SumMethod::kSPTR, good_ctx, 64, 64).value;

  // Across runs, the unfenced kernel should (a) sometimes produce values
  // far from the correct sum (dropped partials), (b) vary run to run.
  bool corrupted = false;
  std::vector<double> values;
  for (std::uint64_t r = 0; r < 20; ++r) {
    core::RunContext ctx(33, r);
    const double bad = gpu_sum_sptr_missing_fence(device, v, ctx, 64, 64).value;
    values.push_back(bad);
    if (std::fabs(bad - good) > std::fabs(good) * 1e-6 + 1.0) corrupted = true;
  }
  EXPECT_TRUE(corrupted);
  bool varies = false;
  for (const double x : values) varies |= !fp::bitwise_equal(x, values[0]);
  EXPECT_TRUE(varies);
}

// ------------------------------------------------------------- cpu sum --

TEST(CpuSum, OrderedEqualsSerial) {
  const auto v = test_array(10000, 10);
  EXPECT_TRUE(
      fp::bitwise_equal(cpu_sum_ordered(v, 8), cpu_sum_serial(v)));
}

TEST(CpuSum, UnorderedVariesAcrossRuns) {
  const auto v = test_array(100000, 11);
  std::vector<double> results;
  for (std::uint64_t r = 0; r < 20; ++r) {
    core::RunContext ctx(17, r);
    results.push_back(cpu_sum_unordered(v, ctx, 8));
  }
  bool varies = false;
  for (const double x : results) varies |= !fp::bitwise_equal(x, results[0]);
  EXPECT_TRUE(varies);
  // But every result is a sum of the same chunks: all close to exact.
  const double exact = fp::Superaccumulator::sum(v);
  for (const double x : results) {
    EXPECT_NEAR(x, exact, std::fabs(exact) * 1e-12 + 1e-6);
  }
}

TEST(CpuSum, UnorderedReplaysWithSameRun) {
  const auto v = test_array(10000, 12);
  core::RunContext a(21, 5), b(21, 5);
  EXPECT_TRUE(fp::bitwise_equal(cpu_sum_unordered(v, a, 4),
                                cpu_sum_unordered(v, b, 4)));
}

TEST(CpuSum, ChunkedDeterministicIsSeedFree) {
  const auto v = test_array(50000, 13);
  const double first = cpu_sum_chunked_deterministic(v, 8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fp::bitwise_equal(cpu_sum_chunked_deterministic(v, 8), first));
  }
}

TEST(CpuSum, ChunkedDeterministicDependsOnChunking) {
  const auto v = test_array(50000, 13);
  // Different thread counts change the association (deterministically).
  EXPECT_FALSE(fp::bitwise_equal(cpu_sum_chunked_deterministic(v, 4),
                                 cpu_sum_chunked_deterministic(v, 16)));
}

TEST(CpuSum, ReproducibleInvariantToThreadCountAndOrder) {
  auto v = test_array(30000, 14);
  const double reference = cpu_sum_reproducible(v, 1);
  for (const std::size_t threads : {2u, 3u, 7u, 16u}) {
    EXPECT_TRUE(fp::bitwise_equal(cpu_sum_reproducible(v, threads), reference));
  }
  util::Xoshiro256pp rng(5);
  util::shuffle(v, rng);
  EXPECT_TRUE(fp::bitwise_equal(cpu_sum_reproducible(v, 8), reference));
}

TEST(CpuSum, ThreadsComputeCorrectTotal) {
  const auto v = test_array(100000, 15);
  util::ThreadPool pool(4);
  const double result = cpu_sum_threads(v, pool);
  const double exact = fp::Superaccumulator::sum(v);
  EXPECT_NEAR(result, exact, std::fabs(exact) * 1e-12 + 1e-6);
}

TEST(CpuSum, EmptyInputs) {
  const std::vector<double> empty;
  EXPECT_EQ(cpu_sum_serial(empty), 0.0);
  EXPECT_EQ(cpu_sum_chunked_deterministic(empty, 4), 0.0);
  EXPECT_EQ(cpu_sum_reproducible(empty, 4), 0.0);
  core::RunContext ctx(1, 0);
  EXPECT_EQ(cpu_sum_unordered(empty, ctx, 4), 0.0);
}

TEST(CpuSum, LaneBlockedSpecsAreDeterministicAndHostIndependent) {
  // A lane-blocked spec through the unified entry point: run-to-run
  // stable, identical with and without a pool (same chunks, index-order
  // merge), and - the certification property - identical whether the
  // intrinsics dispatch or the forced scalar lane-emulation executes.
  const auto v = test_array(60000, 17);
  util::ThreadPool pool(4);
  for (const char* name : {"serial@simd4", "kahan@simd8", "klein@simd16"}) {
    SCOPED_TRACE(name);
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec(name);
    const double reference = cpu_sum(v, ctx, 8);
    EXPECT_TRUE(fp::bitwise_equal(cpu_sum(v, ctx, 8), reference));

    core::EvalContext pooled = ctx;
    pooled.pool = &pool;
    EXPECT_TRUE(fp::bitwise_equal(cpu_sum(v, pooled, 8), reference));

    fp::set_simd_force_scalar(true);
    const double emulated = cpu_sum(v, ctx, 8);
    fp::set_simd_force_scalar(std::nullopt);
    EXPECT_TRUE(fp::bitwise_equal(emulated, reference));
  }
}

TEST(CpuSum, LaneBlockingChangesTheAssociationDeterministically) {
  // @simd<L> names a DIFFERENT re-association than the base algorithm
  // (that is the point - it is a new registry name, not an approximation
  // of the old one), picked up deterministically. Wide mixed-sign data:
  // with near-constant positive addends the two associations can round
  // to the same bits by accident.
  const auto v = test_array(50000, 18);
  core::EvalContext base, simd;
  simd.accumulator = fp::parse_reduction_spec("serial@simd8");
  const double lane_blocked = cpu_sum(v, simd, 8);
  EXPECT_FALSE(fp::bitwise_equal(lane_blocked, cpu_sum(v, base, 8)));
  EXPECT_TRUE(fp::bitwise_equal(cpu_sum(v, simd, 8), lane_blocked));
}

// Table 3 scenario: the ordered reduction is bitwise stable over trials,
// the normal one is not (when the data provokes rounding differences).
TEST(CpuSum, Table3Scenario) {
  const auto v = test_array(1000000, 16, 0.0, 1e-13);
  const double ordered_first = cpu_sum_ordered(v, 8);
  bool normal_varies = false;
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    EXPECT_TRUE(fp::bitwise_equal(cpu_sum_ordered(v, 8), ordered_first));
    core::RunContext ctx(1234, trial);
    normal_varies |=
        !fp::bitwise_equal(cpu_sum_unordered(v, ctx, 8),
                           cpu_sum_unordered(v, ctx, 8));
    core::RunContext ctx2(1234, trial + 100);
    normal_varies |= !fp::bitwise_equal(cpu_sum_unordered(v, ctx, 8),
                                        cpu_sum_unordered(v, ctx2, 8));
  }
  EXPECT_TRUE(normal_varies);
}

}  // namespace
}  // namespace fpna::reduce
