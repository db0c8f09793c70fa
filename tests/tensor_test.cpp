// Unit and property tests for fpna::tensor: the tensor container, the
// determinism switch, and every Table 5 operation in both its
// deterministic and non-deterministic implementation.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fpna/core/metrics.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"
#include "fpna/tensor/conv_transpose.hpp"
#include "fpna/tensor/determinism.hpp"
#include "fpna/tensor/extra_ops.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/scan_ops.hpp"
#include "fpna/tensor/tensor.hpp"
#include "fpna/tensor/workload.hpp"

namespace fpna::tensor {
namespace {

TensorI make_index(std::vector<std::int64_t> values) {
  const auto count = static_cast<std::int64_t>(values.size());
  return TensorI::from_data(Shape{count}, std::move(values));
}

// -------------------------------------------------------------- Tensor --

TEST(Tensor, ShapeAndStrides) {
  const TensorD t(Shape{2, 3, 4});
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.stride(0), 12);
  EXPECT_EQ(t.stride(1), 4);
  EXPECT_EQ(t.stride(2), 1);
}

TEST(Tensor, AtAndOffsetAgree) {
  TensorD t(Shape{2, 3});
  t.at({1, 2}) = 7.5;
  EXPECT_EQ(t.flat(5), 7.5);
  const std::vector<std::int64_t> idx{1, 2};
  EXPECT_EQ(t.offset(idx), 5);
}

TEST(Tensor, BoundsChecking) {
  TensorD t(Shape{2, 3});
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at({0, 3}), std::out_of_range);
  EXPECT_THROW(t.at({-1, 0}), std::out_of_range);
  EXPECT_THROW(t.size(5), std::out_of_range);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_THROW(TensorD::from_data(Shape{2, 2}, {1.0, 2.0, 3.0}),
               std::invalid_argument);
  const auto t = TensorD::from_data(Shape{2, 2}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(t.at({1, 0}), 3.0);
}

TEST(Tensor, BitwiseEqualIsStrict) {
  auto a = TensorD::from_data(Shape{2}, {0.0, 1.0});
  auto b = TensorD::from_data(Shape{2}, {-0.0, 1.0});
  EXPECT_FALSE(a.bitwise_equal(b));
  b.flat(0) = 0.0;
  EXPECT_TRUE(a.bitwise_equal(b));
  const auto c = TensorD::from_data(Shape{1, 2}, {0.0, 1.0});
  EXPECT_FALSE(a.bitwise_equal(c));  // shape matters
}

TEST(Tensor, ZeroSizedDims) {
  const TensorD t(Shape{0, 5});
  EXPECT_EQ(t.numel(), 0);
}

// ------------------------------------------------------- determinism ----

TEST(Determinism, GuardRestores) {
  EXPECT_FALSE(DeterminismContext::deterministic());
  {
    const DeterminismGuard guard(true);
    EXPECT_TRUE(DeterminismContext::deterministic());
    {
      const DeterminismGuard inner(false);
      EXPECT_FALSE(DeterminismContext::deterministic());
    }
    EXPECT_TRUE(DeterminismContext::deterministic());
  }
  EXPECT_FALSE(DeterminismContext::deterministic());
}

TEST(Determinism, GlobalSwitchForcesDeterministicPath) {
  // Even with an ND OpContext, use_deterministic_algorithms(true) must
  // route to the deterministic kernel (PyTorch semantics).
  util::Xoshiro256pp rng(1);
  auto w = make_scatter_workload<float>(500, 0.3, rng);
  const auto det = scatter_reduce(w.self, 0, w.index, w.src, Reduce::kSum);

  const DeterminismGuard guard(true);
  core::RunContext run(1, 0);
  const auto ctx = nd_context(run);
  const auto out = scatter_reduce(w.self, 0, w.index, w.src, Reduce::kSum,
                                  true, ctx);
  EXPECT_TRUE(out.bitwise_equal(det));
}

// ----------------------------------------------------------- index_add --

TEST(IndexAdd, MatchesManualComputation) {
  const auto self = TensorF::from_data(Shape{3, 2}, {0, 0, 0, 0, 0, 0});
  const auto source =
      TensorF::from_data(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const auto index = make_index({2, 0});
  const auto out = index_add(self, 0, index, source);
  EXPECT_EQ(out.at({2, 0}), 1.0f);
  EXPECT_EQ(out.at({2, 1}), 2.0f);
  EXPECT_EQ(out.at({0, 0}), 3.0f);
  EXPECT_EQ(out.at({0, 1}), 4.0f);
  EXPECT_EQ(out.at({1, 0}), 0.0f);
}

TEST(IndexAdd, AlphaScaling) {
  const auto self = TensorF::from_data(Shape{2}, {1.0f, 1.0f});
  const auto source = TensorF::from_data(Shape{1}, {2.0f});
  const auto out = index_add(self, 0, make_index({1}), source, 0.5f);
  EXPECT_EQ(out.at({1}), 2.0f);
}

TEST(IndexAdd, DuplicateIndicesAccumulate) {
  const auto self = TensorF::from_data(Shape{2}, {0.0f, 0.0f});
  const auto source = TensorF::from_data(Shape{3}, {1.0f, 2.0f, 4.0f});
  const auto out = index_add(self, 0, make_index({0, 0, 0}), source);
  EXPECT_EQ(out.at({0}), 7.0f);
}

TEST(IndexAdd, Validation) {
  const TensorF self(Shape{3, 2});
  const TensorF source(Shape{2, 2});
  EXPECT_THROW(index_add(self, 2, make_index({0, 1}), source),
               std::out_of_range);
  EXPECT_THROW(index_add(self, 0, make_index({0}), source),
               std::invalid_argument);  // index length != source dim
  EXPECT_THROW(index_add(self, 0, make_index({0, 3}), source),
               std::out_of_range);  // index value out of range
  const TensorF bad_cols(Shape{2, 5});
  EXPECT_THROW(index_add(self, 0, make_index({0, 1}), bad_cols),
               std::invalid_argument);
}

TEST(IndexAdd, PooledDeterministicPathIsBitIdenticalToSerial) {
  // ROADMAP item: the deterministic path consumes EvalContext.pool via
  // parallel_for over destination groups. Bit-identity with the
  // single-thread path must hold for every registered accumulator and
  // any pool size, by construction (per-destination folds are identical
  // streams; destinations never alias).
  util::Xoshiro256pp rng(5);
  auto w = make_index_add_workload<float>(200, 0.2, rng);
  for (const auto& entry : fp::AlgorithmRegistry::instance().entries()) {
    OpContext serial_ctx;
    serial_ctx.accumulator = entry.id;
    const auto serial = index_add(w.self, 0, w.index, w.source, 1.0f,
                                  serial_ctx);
    for (const std::size_t threads : {2u, 5u}) {
      util::ThreadPool pool(threads);
      OpContext pooled_ctx;
      pooled_ctx.accumulator = entry.id;
      pooled_ctx.pool = &pool;
      const auto pooled = index_add(w.self, 0, w.index, w.source, 1.0f,
                                    pooled_ctx);
      EXPECT_TRUE(pooled.bitwise_equal(serial))
          << entry.name << " with " << threads << " threads";
    }
  }
}

TEST(IndexAdd, PooledSerialPathPreservesSignedZero) {
  // (-0.0) + (-0.0) = -0.0, but a +0.0-seeded accumulator would round the
  // destination to +0.0: the pooled serial path must use the in-place
  // fold, like the single-thread serial path.
  const auto self = TensorF::from_data(Shape{2}, {-0.0f, 1.0f});
  const auto source = TensorF::from_data(Shape{3}, {-0.0f, -0.0f, 2.0f});
  const auto index = make_index({0, 0, 1});
  const auto serial = index_add(self, 0, index, source);
  util::ThreadPool pool(2);
  OpContext pooled_ctx;
  pooled_ctx.pool = &pool;
  const auto pooled = index_add(self, 0, index, source, 1.0f, pooled_ctx);
  EXPECT_TRUE(pooled.bitwise_equal(serial));
  EXPECT_TRUE(std::signbit(pooled.at({0})));
}

TEST(ScatterReduce, PooledDeterministicPathIsBitIdenticalToSerial) {
  // The destination-grouped pool path also carries scatter_reduce's
  // sum-family deterministic reduction.
  util::Xoshiro256pp rng(6);
  const auto self = TensorF::from_data(Shape{5}, {1, 2, 3, 4, 5});
  std::vector<std::int64_t> idx(64);
  std::vector<float> src(64);
  const util::UniformReal dist(-100.0, 100.0);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::int64_t>(rng() % 5);
    src[i] = static_cast<float>(dist(rng));
  }
  const auto index = TensorI::from_data(Shape{64}, std::move(idx));
  const auto source = TensorF::from_data(Shape{64}, std::move(src));
  util::ThreadPool pool(3);
  for (const auto id :
       {fp::AlgorithmId::kKahan, fp::AlgorithmId::kSuperaccumulator}) {
    OpContext serial_ctx;
    serial_ctx.accumulator = id;
    OpContext pooled_ctx;
    pooled_ctx.accumulator = id;
    pooled_ctx.pool = &pool;
    for (const bool include_self : {true, false}) {
      const auto serial = scatter_reduce(self, 0, index, source,
                                         Reduce::kSum, include_self,
                                         serial_ctx);
      const auto pooled = scatter_reduce(self, 0, index, source,
                                         Reduce::kSum, include_self,
                                         pooled_ctx);
      EXPECT_TRUE(pooled.bitwise_equal(serial));
    }
  }
}

TEST(IndexAdd, NdPathVariesDPathDoesNot) {
  util::Xoshiro256pp rng(2);
  auto w = make_index_add_workload<float>(60, 0.5, rng);

  const auto det1 = index_add(w.self, 0, w.index, w.source);
  const auto det2 = index_add(w.self, 0, w.index, w.source);
  EXPECT_TRUE(det1.bitwise_equal(det2));

  bool varies = false;
  for (std::uint64_t r = 0; r < 20 && !varies; ++r) {
    core::RunContext run(5, r);
    const auto ctx = nd_context(run);
    const auto out = index_add(w.self, 0, w.index, w.source, 1.0f, ctx);
    varies = !out.bitwise_equal(det1);
  }
  EXPECT_TRUE(varies);
}

TEST(IndexAdd, NdVariabilityIsRoundingOnly) {
  // Same multiset of additions per destination: ND results differ from D
  // by float rounding only, i.e. tiny relative error.
  util::Xoshiro256pp rng(3);
  auto w = make_index_add_workload<float>(60, 0.5, rng);
  const auto det = index_add(w.self, 0, w.index, w.source);
  core::RunContext run(6, 0);
  const auto ctx = nd_context(run);
  const auto out = index_add(w.self, 0, w.index, w.source, 1.0f, ctx);
  const double v = core::vermv(det.data(), out.data());
  EXPECT_LT(v, 1e-5);
}

// ---------------------------------------------------------- index_copy --

TEST(IndexCopy, BasicCopy) {
  const auto self = TensorF::from_data(Shape{3}, {9.0f, 9.0f, 9.0f});
  const auto source = TensorF::from_data(Shape{2}, {1.0f, 2.0f});
  const auto out = index_copy(self, 0, make_index({2, 0}), source);
  EXPECT_EQ(out.at({0}), 2.0f);
  EXPECT_EQ(out.at({1}), 9.0f);
  EXPECT_EQ(out.at({2}), 1.0f);
}

TEST(IndexCopy, DuplicateIndexLastWriterWinsDeterministically) {
  const auto self = TensorF::from_data(Shape{1}, {0.0f});
  const auto source = TensorF::from_data(Shape{3}, {1.0f, 2.0f, 3.0f});
  const auto out = index_copy(self, 0, make_index({0, 0, 0}), source);
  EXPECT_EQ(out.at({0}), 3.0f);  // highest k wins in the D path
}

TEST(IndexCopy, DuplicateIndexNdPathVariesWinner) {
  const auto self = TensorF::from_data(Shape{1}, {0.0f});
  const auto source = TensorF::from_data(Shape{3}, {1.0f, 2.0f, 3.0f});
  std::set<float> winners;
  for (std::uint64_t r = 0; r < 40; ++r) {
    core::RunContext run(7, r);
    auto ctx = nd_context(run);
    ctx.store_race_scale = 1.0;  // make winner races frequent for the test
    winners.insert(
        index_copy(self, 0, make_index({0, 0, 0}), source, ctx).at({0}));
  }
  EXPECT_GT(winners.size(), 1u);
}

TEST(IndexCopy, DefaultStoreRacesAreRare) {
  // With the calibrated default store_race_scale, duplicate-index write
  // winners flip only on rare scheduling coincidences (paper Table 5:
  // index_copy Vermv ~1e-6, implying ~1e-6 of elements differ per run).
  util::Xoshiro256pp rng(21);
  const auto self = random_uniform<float>(Shape{500}, 0, 1, rng);
  const auto source = random_uniform<float>(Shape{1000}, 0, 1, rng);
  const auto index = random_index(1000, 500, rng);
  const auto det = index_copy(self, 0, index, source);
  double vc_total = 0.0;
  constexpr std::uint64_t kRuns = 50;
  for (std::uint64_t r = 0; r < kRuns; ++r) {
    core::RunContext run(31, r);
    const auto ctx = nd_context(run);
    const auto out = index_copy(self, 0, index, source, ctx);
    vc_total += core::vc(det.data(), out.data());
  }
  EXPECT_LT(vc_total / kRuns, 1e-3);
}

// ----------------------------------------------------------- index_put --

TEST(IndexPut, AccumulateModeMatchesIndexAdd) {
  const auto self = TensorF::from_data(Shape{3}, {1.0f, 1.0f, 1.0f});
  const auto values = TensorF::from_data(Shape{2}, {5.0f, 5.0f});
  const auto put = index_put(self, make_index({0, 0}), values, true);
  EXPECT_EQ(put.at({0}), 11.0f);
  const auto write = index_put(self, make_index({0, 0}), values, false);
  EXPECT_EQ(write.at({0}), 5.0f);
}

// ------------------------------------------------------------- scatter --

TEST(Scatter, ElementwisePlacement) {
  const auto self = TensorF::from_data(Shape{2, 2}, {0, 0, 0, 0});
  const auto src = TensorF::from_data(Shape{1, 2}, {5.0f, 6.0f});
  const auto index = TensorI::from_data(Shape{1, 2}, {1, 0});
  const auto out = scatter(self, 0, index, src);
  EXPECT_EQ(out.at({1, 0}), 5.0f);
  EXPECT_EQ(out.at({0, 1}), 6.0f);
}

TEST(Scatter, IndexShapeMustMatchSrc) {
  const TensorF self(Shape{2, 2});
  const TensorF src(Shape{1, 2});
  const auto bad_index = TensorI::from_data(Shape{2}, {0, 1});
  EXPECT_THROW(scatter(self, 0, bad_index, src), std::invalid_argument);
}

// ------------------------------------------------------ scatter_reduce --

TEST(ScatterReduce, SumMatchesManual) {
  const auto self = TensorF::from_data(Shape{3}, {1.0f, 1.0f, 1.0f});
  const auto src = TensorF::from_data(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f});
  const auto index = make_index({0, 0, 2, 2});
  const auto out = scatter_reduce(self, 0, index, src, Reduce::kSum);
  EXPECT_EQ(out.at({0}), 4.0f);   // 1 + 1 + 2
  EXPECT_EQ(out.at({1}), 1.0f);   // untouched
  EXPECT_EQ(out.at({2}), 8.0f);   // 1 + 3 + 4
}

TEST(ScatterReduce, MeanIncludesSelf) {
  const auto self = TensorF::from_data(Shape{2}, {6.0f, 5.0f});
  const auto src = TensorF::from_data(Shape{2}, {3.0f, 0.0f});
  const auto index = make_index({0, 0});
  const auto out = scatter_reduce(self, 0, index, src, Reduce::kMean);
  EXPECT_EQ(out.at({0}), 3.0f);  // (6 + 3 + 0) / 3
  EXPECT_EQ(out.at({1}), 5.0f);  // untouched: not divided
}

TEST(ScatterReduce, MeanExcludeSelf) {
  const auto self = TensorF::from_data(Shape{2}, {6.0f, 5.0f});
  const auto src = TensorF::from_data(Shape{2}, {3.0f, 1.0f});
  const auto index = make_index({0, 0});
  const auto out =
      scatter_reduce(self, 0, index, src, Reduce::kMean, false);
  EXPECT_EQ(out.at({0}), 2.0f);  // (3 + 1) / 2, self discarded
}

TEST(ScatterReduce, ProdAmaxAmin) {
  const auto self = TensorF::from_data(Shape{2}, {2.0f, 2.0f});
  const auto src = TensorF::from_data(Shape{3}, {3.0f, -5.0f, 4.0f});
  const auto index = make_index({0, 0, 0});
  EXPECT_EQ(scatter_reduce(self, 0, index, src, Reduce::kProd).at({0}),
            2.0f * 3.0f * -5.0f * 4.0f);
  EXPECT_EQ(scatter_reduce(self, 0, index, src, Reduce::kAmax).at({0}), 4.0f);
  EXPECT_EQ(scatter_reduce(self, 0, index, src, Reduce::kAmin).at({0}), -5.0f);
}

TEST(ScatterReduce, AmaxIsOrderInsensitiveEvenND) {
  // max/min are associative and commutative: the ND path must still be
  // bitwise reproducible (a useful sanity property of the ND machinery).
  util::Xoshiro256pp rng(4);
  auto w = make_scatter_workload<float>(300, 0.4, rng);
  const auto det = scatter_reduce(w.self, 0, w.index, w.src, Reduce::kAmax);
  for (std::uint64_t r = 0; r < 10; ++r) {
    core::RunContext run(9, r);
    const auto ctx = nd_context(run);
    const auto out =
        scatter_reduce(w.self, 0, w.index, w.src, Reduce::kAmax, true, ctx);
    EXPECT_TRUE(out.bitwise_equal(det));
  }
}

TEST(ScatterReduce, SumNdVaries) {
  util::Xoshiro256pp rng(5);
  auto w = make_scatter_workload<float>(2000, 0.5, rng);
  const auto det = scatter_reduce(w.self, 0, w.index, w.src, Reduce::kSum);
  bool varies = false;
  for (std::uint64_t r = 0; r < 20 && !varies; ++r) {
    core::RunContext run(10, r);
    const auto ctx = nd_context(run);
    varies = !scatter_reduce(w.self, 0, w.index, w.src, Reduce::kSum, true,
                             ctx)
                  .bitwise_equal(det);
  }
  EXPECT_TRUE(varies);
}

// ------------------------------------------------------ ND golden bits --
//
// The simulated-ND commit order is a contract: from the run's generator
// it draws a Fisher-Yates permutation of the n contributions
// (util::random_permutation), then one util::canonical per destination
// with >= 2 contributions, in ascending destination order. These
// fingerprints pin the bits that sequence produces for every indexed op,
// on both paths, so a rewrite of the simulator or of the contribution-list
// builders must reproduce them exactly.

template <typename T>
std::string bits_hex(const Tensor<T>& t) {
  obs::Fingerprint print;
  print.feed(t.data());
  return obs::hex64(print.value());
}

TensorI reshaped_index(Shape shape, std::int64_t out_size,
                       util::Xoshiro256pp& rng) {
  const std::int64_t count = shape_numel(shape);
  return TensorI::from_data(std::move(shape),
                            random_index(count, out_size, rng).vec());
}

std::vector<std::pair<std::string, std::string>> golden_outputs() {
  std::vector<std::pair<std::string, std::string>> out;
  const auto record = [&](std::string name, const auto& tensor) {
    out.emplace_back(std::move(name), bits_hex(tensor));
  };
  std::uint64_t run_index = 0;
  const auto nd = [&](core::RunContext& run) {
    auto ctx = nd_context(run);
    ctx.store_race_scale = 1.0;
    return ctx;
  };

  for (const double ratio : {0.1, 0.5, 1.0}) {
    const std::string r = std::to_string(ratio).substr(0, 3);
    // index_add on dim 0 of the paper's 2-D workload.
    util::Xoshiro256pp rng(31);
    const auto w = make_index_add_workload<float>(48, ratio, rng);
    core::RunContext run2(41, run_index++);
    record("index_add 2d dim0 R=" + r + " nd",
           index_add(w.self, 0, w.index, w.source, 1.0f, nd(run2)));
    record("index_add 2d dim0 R=" + r + " d",
           index_add(w.self, 0, w.index, w.source));

    // index_add on dim 1 of a 3-D tensor, reusing the workload's index.
    const std::int64_t out_dim = w.self.size(0);
    const auto self3 = random_uniform<double>(Shape{3, out_dim, 5}, 0, 1, rng);
    const auto source3 = random_uniform<double>(Shape{3, 48, 5}, 0, 1, rng);
    core::RunContext run3(41, run_index++);
    record("index_add 3d dim1 R=" + r + " nd",
           index_add(self3, 1, w.index, source3, 0.5, nd(run3)));
    record("index_add 3d dim1 R=" + r + " d",
           index_add(self3, 1, w.index, source3, 0.5));
  }

  {
    util::Xoshiro256pp rng(32);
    const auto w = make_index_add_workload<float>(40, 0.5, rng);
    core::RunContext run(41, run_index++);
    record("index_copy 2d dim0 nd",
           index_copy(w.self, 0, w.index, w.source, nd(run)));
    record("index_copy 2d dim0 d", index_copy(w.self, 0, w.index, w.source));
  }

  {
    // src is narrower than self outside dim (4 <= 6 rows).
    util::Xoshiro256pp rng(33);
    const auto self = random_uniform<float>(Shape{6, 10}, 0, 1, rng);
    const auto src = random_uniform<float>(Shape{4, 30}, 0, 1, rng);
    const auto index = reshaped_index(Shape{4, 30}, 10, rng);
    core::RunContext run(41, run_index++);
    record("scatter 2d dim1 nd", scatter(self, 1, index, src, nd(run)));
    record("scatter 2d dim1 d", scatter(self, 1, index, src));
  }

  {
    // src is narrower than self in the inner dim (6 <= 7 columns).
    util::Xoshiro256pp rng(34);
    const auto self = random_uniform<float>(Shape{10, 7}, -1, 1, rng);
    const auto src = random_uniform<float>(Shape{24, 6}, -1, 1, rng);
    const auto index = reshaped_index(Shape{24, 6}, 10, rng);
    for (const Reduce reduce : {Reduce::kSum, Reduce::kMean}) {
      for (const bool include_self : {true, false}) {
        const std::string name = std::string("scatter_reduce 2d dim0 ") +
                                 to_string(reduce) +
                                 (include_self ? " self" : " noself");
        core::RunContext run(41, run_index++);
        record(name + " nd", scatter_reduce(self, 0, index, src, reduce,
                                            include_self, nd(run)));
        record(name + " d",
               scatter_reduce(self, 0, index, src, reduce, include_self));
      }
    }
  }
  return out;
}

TEST(IndexedOpsGolden, SeededBitsArePinned) {
  // Captured from the earlier per-destination sort-and-restore
  // simulator; they must never change.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"index_add 2d dim0 R=0.1 nd", "62253bd0f9858866"},
      {"index_add 2d dim0 R=0.1 d", "576e0513a00f9afd"},
      {"index_add 3d dim1 R=0.1 nd", "0709b182328ce308"},
      {"index_add 3d dim1 R=0.1 d", "ba858fe8eb31f711"},
      {"index_add 2d dim0 R=0.5 nd", "3569297d0256806a"},
      {"index_add 2d dim0 R=0.5 d", "e8ba9bc91c0a5b4f"},
      {"index_add 3d dim1 R=0.5 nd", "82357e5b1d717396"},
      {"index_add 3d dim1 R=0.5 d", "6f79dfa1a539f0eb"},
      {"index_add 2d dim0 R=1.0 nd", "f9a3dc0763da7324"},
      {"index_add 2d dim0 R=1.0 d", "e969c48e5b1c597f"},
      {"index_add 3d dim1 R=1.0 nd", "95bae6f41a81897e"},
      {"index_add 3d dim1 R=1.0 d", "6c1077699c9a9020"},
      {"index_copy 2d dim0 nd", "fe822d71284b01a7"},
      {"index_copy 2d dim0 d", "49bc311bc9af7ee8"},
      {"scatter 2d dim1 nd", "9710876f713b9abc"},
      {"scatter 2d dim1 d", "31479ef36175b4ca"},
      {"scatter_reduce 2d dim0 sum self nd", "d380ff76641dd302"},
      {"scatter_reduce 2d dim0 sum self d", "2c7af8f747e66879"},
      {"scatter_reduce 2d dim0 sum noself nd", "43320ec42f5a35df"},
      {"scatter_reduce 2d dim0 sum noself d", "6a6ead0178fe510a"},
      {"scatter_reduce 2d dim0 mean self nd", "796d4bccd5c998f7"},
      {"scatter_reduce 2d dim0 mean self d", "6fbc81f678031d5b"},
      {"scatter_reduce 2d dim0 mean noself nd", "3934f040cafd93fd"},
      {"scatter_reduce 2d dim0 mean noself d", "d073461fa420a9a1"},
  };
  const auto actual = golden_outputs();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first);
    EXPECT_EQ(actual[i].second, expected[i].second) << actual[i].first;
  }
}

// What an index-validation failure reports, or "" if the call returns.
template <typename Call>
std::string out_of_range_message(Call&& call) {
  try {
    call();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

TEST(IndexedOpsGolden, OutOfRangeIndexMessagesAreStable) {
  core::RunContext run(3);
  for (const OpContext& ctx : {OpContext{}, nd_context(run)}) {
    const TensorF self(Shape{2, 3, 2});
    const TensorF source(Shape{2, 4, 2});
    // The first bad index value in source order is the one reported.
    const auto index = make_index({1, -2, 7, 0});
    EXPECT_EQ(out_of_range_message([&] {
                index_add(self, 1, index, source, 1.0f, ctx);
              }),
              "index_add: index value -2 out of range [0, 3)");
    EXPECT_EQ(out_of_range_message(
                  [&] { index_copy(self, 1, index, source, ctx); }),
              "index_copy: index value -2 out of range [0, 3)");

    const TensorF small(Shape{2, 2});
    const auto elementwise = TensorI::from_data(Shape{2, 2}, {0, 1, 4, 2});
    const TensorF flat_self(Shape{3, 2});
    EXPECT_EQ(out_of_range_message([&] {
                scatter(flat_self, 0, elementwise, small, ctx);
              }),
              "scatter: index value 4 out of range [0, 3)");
    EXPECT_EQ(out_of_range_message([&] {
                scatter_reduce(flat_self, 0, elementwise, small,
                               Reduce::kSum, true, ctx);
              }),
              "scatter_reduce: index value 4 out of range [0, 3)");
  }
}

TEST(IndexedOpsGolden, EmptySourceNeverValidatesIndex) {
  // A zero-sized dim outside `dim` empties the source while the index
  // still holds values: nothing is committed, so nothing is validated.
  core::RunContext run(4);
  for (const OpContext& ctx : {OpContext{}, nd_context(run)}) {
    const auto bad = make_index({5, -1});
    const TensorF no_rows(Shape{0, 3});
    const TensorF no_rows_source(Shape{0, 2});
    EXPECT_TRUE(index_add(no_rows, 1, bad, no_rows_source, 1.0f, ctx)
                    .bitwise_equal(no_rows));
    EXPECT_TRUE(index_copy(no_rows, 1, bad, no_rows_source, ctx)
                    .bitwise_equal(no_rows));
    const TensorF no_cols(Shape{3, 0});
    const TensorF no_cols_source(Shape{2, 0});
    EXPECT_TRUE(index_add(no_cols, 0, bad, no_cols_source, 1.0f, ctx)
                    .bitwise_equal(no_cols));
    EXPECT_TRUE(index_copy(no_cols, 0, bad, no_cols_source, ctx)
                    .bitwise_equal(no_cols));
  }
}

// -------------------------------------------------------------- cumsum --

TEST(Cumsum, DeterministicMatchesManual) {
  const auto t = TensorF::from_data(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f});
  const auto out = cumsum(t, 0);
  EXPECT_EQ(out.at({0}), 1.0f);
  EXPECT_EQ(out.at({1}), 3.0f);
  EXPECT_EQ(out.at({2}), 6.0f);
  EXPECT_EQ(out.at({3}), 10.0f);
}

TEST(Cumsum, AlongInnerDimOfMatrix) {
  const auto t = TensorF::from_data(Shape{2, 3}, {1, 1, 1, 2, 2, 2});
  const auto rows = cumsum(t, 1);
  EXPECT_EQ(rows.at({0, 2}), 3.0f);
  EXPECT_EQ(rows.at({1, 2}), 6.0f);
  const auto cols = cumsum(t, 0);
  EXPECT_EQ(cols.at({1, 0}), 3.0f);
}

TEST(Cumsum, NdPathVariesButStaysClose) {
  util::Xoshiro256pp rng(6);
  const auto t = random_uniform<float>(Shape{4096}, 0.0, 1.0, rng);
  const auto det = cumsum(t, 0);
  bool varies = false;
  for (std::uint64_t r = 0; r < 10; ++r) {
    core::RunContext run(11, r);
    const auto ctx = nd_context(run);
    const auto out = cumsum(t, 0, ctx);
    varies |= !out.bitwise_equal(det);
    EXPECT_LT(core::vermv(det.data(), out.data()), 1e-5);
  }
  EXPECT_TRUE(varies);
}

TEST(Cumsum, DimValidation) {
  const TensorF t(Shape{4});
  EXPECT_THROW(cumsum(t, 1), std::out_of_range);
}

// Parameterized scan sweep: the deterministic path must equal a serial
// reference scan for any length/block-count combination, and the ND path
// must stay within float-rounding distance of it.
struct ScanCase {
  std::int64_t length;
  std::size_t blocks;
};

class CumsumSweep : public ::testing::TestWithParam<ScanCase> {};

TEST_P(CumsumSweep, DeterministicMatchesSerialReference) {
  const auto [length, blocks] = GetParam();
  util::Xoshiro256pp rng(71);
  const auto t = random_uniform<float>(Shape{length}, -1.0, 1.0, rng);

  std::vector<float> reference(static_cast<std::size_t>(length));
  float acc = 0.0f;
  for (std::int64_t i = 0; i < length; ++i) {
    acc += t.flat(i);
    reference[static_cast<std::size_t>(i)] = acc;
  }
  const auto det = cumsum(t, 0, {}, blocks);
  for (std::int64_t i = 0; i < length; ++i) {
    EXPECT_EQ(det.flat(i), reference[static_cast<std::size_t>(i)]);
  }

  core::RunContext run(73, 1);
  const auto ctx = nd_context(run);
  const auto nd = cumsum(t, 0, ctx, blocks);
  EXPECT_LT(core::vermv(det.data(), nd.data()), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(LengthsAndBlocks, CumsumSweep,
                         ::testing::Values(ScanCase{1, 32}, ScanCase{2, 32},
                                           ScanCase{31, 32}, ScanCase{32, 32},
                                           ScanCase{1000, 4},
                                           ScanCase{1000, 32},
                                           ScanCase{4096, 128}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.length) +
                                  "_b" + std::to_string(info.param.blocks);
                         });

// ------------------------------------------------------ conv_transpose --

TEST(ConvTranspose1d, KnownSmallExample) {
  // input [1,1,2] = [1, 2], weight [1,1,3] = [1, 10, 100], stride 1.
  // Output length = 2-1+3 = 4: scatter gives [1, 10+2, 100+20, 200].
  const auto input = TensorF::from_data(Shape{1, 1, 2}, {1.0f, 2.0f});
  const auto weight =
      TensorF::from_data(Shape{1, 1, 3}, {1.0f, 10.0f, 100.0f});
  const auto out = conv_transpose1d(input, weight);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 4}));
  EXPECT_EQ(out.at({0, 0, 0}), 1.0f);
  EXPECT_EQ(out.at({0, 0, 1}), 12.0f);
  EXPECT_EQ(out.at({0, 0, 2}), 120.0f);
  EXPECT_EQ(out.at({0, 0, 3}), 200.0f);
}

TEST(ConvTranspose1d, StridePaddingDilation) {
  ConvTransposeParams<1> p;
  p.stride = {2};
  p.padding = {1};
  p.dilation = {1};
  const auto input = TensorF::from_data(Shape{1, 1, 3}, {1.0f, 1.0f, 1.0f});
  const auto weight = TensorF::from_data(Shape{1, 1, 2}, {1.0f, 1.0f});
  // out size = (3-1)*2 - 2 + (2-1) + 1 = 4.
  const auto out = conv_transpose1d(input, weight, nullptr, p);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 4}));
}

TEST(ConvTranspose1d, BiasInitialisesChannels) {
  const auto input = TensorF::from_data(Shape{1, 1, 1}, {0.0f});
  const auto weight = TensorF::from_data(Shape{1, 2, 1}, {0.0f, 0.0f});
  const auto bias = TensorF::from_data(Shape{2}, {3.0f, -1.0f});
  const auto out = conv_transpose1d(input, weight, &bias);
  EXPECT_EQ(out.at({0, 0, 0}), 3.0f);
  EXPECT_EQ(out.at({0, 1, 0}), -1.0f);
}

TEST(ConvTranspose2d, OutputShape) {
  util::Xoshiro256pp rng(7);
  const auto input = random_uniform<float>(Shape{2, 3, 5, 5}, -1, 1, rng);
  const auto weight = random_uniform<float>(Shape{3, 4, 3, 3}, -1, 1, rng);
  ConvTransposeParams<2> p;
  p.stride = {2, 2};
  const auto out = conv_transpose2d(input, weight, nullptr, p);
  EXPECT_EQ(out.shape(), (Shape{2, 4, 11, 11}));
}

TEST(ConvTranspose2d, MatchesSumOverTapsProperty) {
  // Total mass: sum(out) == sum over (input x kernel sums) per channel
  // pair when no padding discards contributions.
  util::Xoshiro256pp rng(8);
  const auto input = random_uniform<float>(Shape{1, 2, 4, 4}, 0, 1, rng);
  const auto weight = random_uniform<float>(Shape{2, 3, 3, 3}, 0, 1, rng);
  const auto out = conv_transpose2d(input, weight);
  double out_sum = 0.0;
  for (const float v : out.data()) out_sum += v;
  double expected = 0.0;
  for (std::int64_t ci = 0; ci < 2; ++ci) {
    double in_sum = 0.0;
    for (std::int64_t i = 0; i < 16; ++i) in_sum += input.flat(ci * 16 + i);
    for (std::int64_t co = 0; co < 3; ++co) {
      double w_sum = 0.0;
      for (std::int64_t k = 0; k < 9; ++k) {
        w_sum += weight.flat((ci * 3 + co) * 9 + k);
      }
      expected += in_sum * w_sum;
    }
  }
  EXPECT_NEAR(out_sum, expected, 1e-2);
}

TEST(ConvTranspose3d, OutputShapeAndDeterminism) {
  util::Xoshiro256pp rng(9);
  const auto input = random_uniform<float>(Shape{1, 2, 3, 3, 3}, -1, 1, rng);
  const auto weight = random_uniform<float>(Shape{2, 2, 2, 2, 2}, -1, 1, rng);
  const auto a = conv_transpose3d(input, weight);
  const auto b = conv_transpose3d(input, weight);
  EXPECT_EQ(a.shape(), (Shape{1, 2, 4, 4, 4}));
  EXPECT_TRUE(a.bitwise_equal(b));
}

TEST(ConvTranspose2d, NdPathVariesWithinRounding) {
  util::Xoshiro256pp rng(10);
  const auto input = random_uniform<float>(Shape{1, 4, 8, 8}, -1, 1, rng);
  const auto weight = random_uniform<float>(Shape{4, 4, 3, 3}, -1, 1, rng);
  const auto det = conv_transpose2d(input, weight);
  bool varies = false;
  for (std::uint64_t r = 0; r < 10; ++r) {
    core::RunContext run(12, r);
    const auto ctx = nd_context(run);
    const auto out = conv_transpose2d(input, weight, nullptr, {}, ctx);
    varies |= !out.bitwise_equal(det);
    EXPECT_LT(core::vermv(det.data(), out.data()), 1e-4);
  }
  EXPECT_TRUE(varies);
}

TEST(ConvTranspose, Validation) {
  const TensorF bad_input(Shape{1, 1});
  const TensorF weight(Shape{1, 1, 2});
  EXPECT_THROW(conv_transpose1d(bad_input, weight), std::invalid_argument);
  const TensorF input(Shape{1, 2, 3});
  const TensorF mismatched_weight(Shape{3, 1, 2});
  EXPECT_THROW(conv_transpose1d(input, mismatched_weight),
               std::invalid_argument);
}

// ----------------------------------------------------------- extra ops --

TEST(IndexSelect, GathersRows) {
  const auto self =
      TensorF::from_data(Shape{3, 2}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  const auto out = index_select(self, 0, make_index({2, 0, 2}));
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_EQ(out.at({0, 0}), 5.0f);
  EXPECT_EQ(out.at({1, 1}), 2.0f);
  EXPECT_EQ(out.at({2, 0}), 5.0f);
  EXPECT_THROW(index_select(self, 0, make_index({3})), std::out_of_range);
}

TEST(IndexSelect, GatherAlongInnerDim) {
  const auto self =
      TensorF::from_data(Shape{2, 3}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  const auto out = index_select(self, 1, make_index({2, 2}));
  EXPECT_EQ(out.shape(), (Shape{2, 2}));
  EXPECT_EQ(out.at({0, 0}), 3.0f);
  EXPECT_EQ(out.at({1, 1}), 6.0f);
}

TEST(IndexSelect, ForwardDeterministicBackwardNot) {
  util::Xoshiro256pp rng(51);
  const auto self = random_uniform<float>(Shape{40, 8}, -1, 1, rng);
  const auto index = random_index(400, 40, rng);
  const auto grad_out = random_uniform<float>(Shape{400, 8}, -1, 1, rng);

  // Forward: pure gather, bitwise stable.
  const auto a = index_select(self, 0, index);
  const auto b = index_select(self, 0, index);
  EXPECT_TRUE(a.bitwise_equal(b));

  // Backward: an index_add - varies on the ND path (PyTorch documents
  // gather-like backwards as non-deterministic for exactly this reason).
  const auto det =
      index_select_backward(grad_out, 0, index, self.shape());
  bool varies = false;
  for (std::uint64_t r = 0; r < 20 && !varies; ++r) {
    core::RunContext run(53, r);
    const auto ctx = nd_context(run);
    varies = !index_select_backward(grad_out, 0, index, self.shape(), ctx)
                  .bitwise_equal(det);
  }
  EXPECT_TRUE(varies);
}

TEST(EmbeddingBag, SumAndMeanSemantics) {
  const auto weight = TensorF::from_data(
      Shape{3, 2}, {1.0f, 10.0f, 2.0f, 20.0f, 3.0f, 30.0f});
  const auto indices = make_index({0, 2, 1, 1});
  const auto offsets = make_index({0, 2});  // bags: {0,2}, {1,1}
  const auto sum =
      embedding_bag(weight, indices, offsets, BagMode::kSum);
  EXPECT_EQ(sum.at({0, 0}), 4.0f);   // 1 + 3
  EXPECT_EQ(sum.at({0, 1}), 40.0f);  // 10 + 30
  EXPECT_EQ(sum.at({1, 0}), 4.0f);   // 2 + 2
  const auto mean =
      embedding_bag(weight, indices, offsets, BagMode::kMean);
  EXPECT_EQ(mean.at({0, 0}), 2.0f);
  EXPECT_EQ(mean.at({1, 1}), 20.0f);
}

TEST(EmbeddingBag, EmptyBagGivesZeros) {
  const auto weight = TensorF::from_data(Shape{1, 1}, {5.0f});
  const auto indices = make_index({0});
  const auto offsets = make_index({0, 1});  // bag 1 empty
  const auto out = embedding_bag(weight, indices, offsets, BagMode::kMean);
  EXPECT_EQ(out.at({1, 0}), 0.0f);
}

TEST(EmbeddingBag, Validation) {
  const auto weight = TensorF::from_data(Shape{2, 1}, {1.0f, 2.0f});
  EXPECT_THROW(embedding_bag(weight, make_index({0}), make_index({1}),
                             BagMode::kSum),
               std::invalid_argument);  // offsets must start at 0
  EXPECT_THROW(embedding_bag(weight, make_index({5}), make_index({0}),
                             BagMode::kSum),
               std::out_of_range);  // index beyond weight rows
}

TEST(EmbeddingBag, NdPathVariesLikeIndexAdd) {
  util::Xoshiro256pp rng(55);
  const auto weight = random_uniform<float>(Shape{50, 16}, -1, 1, rng);
  const auto indices = random_index(2000, 50, rng);
  // 200 bags of 10 lookups: moderate per-bag contention, where the
  // contention model leaves racy orderings (huge bags drain near-FIFO).
  std::vector<std::int64_t> offset_values;
  for (std::int64_t b = 0; b < 200; ++b) offset_values.push_back(b * 10);
  const auto offsets = make_index(std::move(offset_values));
  const auto det = embedding_bag(weight, indices, offsets, BagMode::kSum);
  bool varies = false;
  for (std::uint64_t r = 0; r < 20 && !varies; ++r) {
    core::RunContext run(57, r);
    const auto ctx = nd_context(run);
    varies = !embedding_bag(weight, indices, offsets, BagMode::kSum, ctx)
                  .bitwise_equal(det);
  }
  EXPECT_TRUE(varies);
}

TEST(Bincount, CountsAndMinlength) {
  const auto values = make_index({0, 1, 1, 3});
  const auto out = bincount(values, 6);
  EXPECT_EQ(out.numel(), 6);
  EXPECT_EQ(out.at({0}), 1);
  EXPECT_EQ(out.at({1}), 2);
  EXPECT_EQ(out.at({2}), 0);
  EXPECT_EQ(out.at({3}), 1);
  EXPECT_THROW(bincount(make_index({-1})), std::invalid_argument);
}

TEST(Bincount, IntegerAtomicsAreDeterministicEvenND) {
  // The instructive contrast with FP ops: integer addition is
  // associative, so ANY commit order yields identical bits.
  util::Xoshiro256pp rng(59);
  const auto values = random_index(5000, 64, rng);
  const auto reference = bincount(values, 64);
  for (std::uint64_t r = 0; r < 10; ++r) {
    core::RunContext run(61, r);
    const auto ctx = nd_context(run);
    const auto out = bincount(values, 64, ctx);
    EXPECT_TRUE(out.bitwise_equal(reference));
  }
}

TEST(Histc, BinningSemantics) {
  const auto values =
      TensorF::from_data(Shape{6}, {0.0f, 0.5f, 1.0f, 2.5f, 4.0f, 9.0f});
  const auto out = histc(values, 4, 0.0f, 4.0f);  // width 1.0
  EXPECT_EQ(out.numel(), 4);
  EXPECT_EQ(out.at({0}), 2);  // 0.0, 0.5
  EXPECT_EQ(out.at({1}), 1);  // 1.0
  EXPECT_EQ(out.at({2}), 1);  // 2.5
  EXPECT_EQ(out.at({3}), 1);  // 4.0 == hi lands in last bin
  // 9.0 dropped (out of range).
  EXPECT_THROW(histc(values, 0, 0.0f, 1.0f), std::invalid_argument);
}

TEST(Histc, DeterministicEvenND) {
  util::Xoshiro256pp rng(63);
  const auto values = random_uniform<float>(Shape{10000}, 0, 1, rng);
  const auto reference = histc(values, 32, 0.0f, 1.0f);
  for (std::uint64_t r = 0; r < 5; ++r) {
    core::RunContext run(67, r);
    const auto ctx = nd_context(run);
    EXPECT_TRUE(histc(values, 32, 0.0f, 1.0f, ctx).bitwise_equal(reference));
  }
}

// ------------------------------------------------------------ workload --

TEST(Workload, OutputDimForRatio) {
  EXPECT_EQ(output_dim_for_ratio(1000, 0.5), 500);
  EXPECT_EQ(output_dim_for_ratio(1000, 1.0), 1000);
  EXPECT_EQ(output_dim_for_ratio(10, 0.001), 1);
  EXPECT_THROW(output_dim_for_ratio(10, 0.0), std::invalid_argument);
  EXPECT_THROW(output_dim_for_ratio(10, 1.5), std::invalid_argument);
}

TEST(Workload, ScatterWorkloadShapes) {
  util::Xoshiro256pp rng(11);
  const auto w = make_scatter_workload<float>(2000, 0.25, rng);
  EXPECT_EQ(w.src.shape(), (Shape{2000}));
  EXPECT_EQ(w.self.shape(), (Shape{500}));
  EXPECT_EQ(w.index.shape(), (Shape{2000}));
  for (const auto i : w.index.data()) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 500);
  }
}

TEST(Workload, IndexAddWorkloadShapes) {
  util::Xoshiro256pp rng(12);
  const auto w = make_index_add_workload<float>(100, 0.5, rng);
  EXPECT_EQ(w.source.shape(), (Shape{100, 100}));
  EXPECT_EQ(w.self.shape(), (Shape{50, 100}));
  EXPECT_EQ(w.index.numel(), 100);
}

TEST(Workload, SeededReproducibility) {
  util::Xoshiro256pp rng1(13), rng2(13);
  const auto a = make_scatter_workload<float>(100, 0.5, rng1);
  const auto b = make_scatter_workload<float>(100, 0.5, rng2);
  EXPECT_TRUE(a.src.bitwise_equal(b.src));
  EXPECT_EQ(a.index.data()[0], b.index.data()[0]);
}

}  // namespace
}  // namespace fpna::tensor
