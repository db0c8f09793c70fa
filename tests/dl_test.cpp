// Unit tests for fpna::dl: graph, synthetic dataset, linear algebra,
// layers (with numerical gradient checks), Adam, and the trainer.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/fp/simd.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"
#include "fpna/dl/adam.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/graph.hpp"
#include "fpna/dl/layers.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/dl/loss_scale.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/sim/lpu.hpp"
#include "fpna/tensor/workload.hpp"

namespace fpna::dl {
namespace {

// --------------------------------------------------------------- graph --

TEST(Graph, DegreesAndValidity) {
  Graph g;
  g.num_nodes = 4;
  g.add_undirected_edge(0, 1);
  g.add_edge(2, 1);
  EXPECT_EQ(g.num_edges(), 3);
  const auto deg = g.in_degrees();
  EXPECT_EQ(deg[1], 2);
  EXPECT_EQ(deg[0], 1);
  EXPECT_EQ(deg[3], 0);
  EXPECT_TRUE(g.valid());
  EXPECT_THROW(g.add_edge(0, 7), std::out_of_range);
}

// ------------------------------------------------------------- dataset --

TEST(Dataset, ShapesMatchConfig) {
  const auto config = DatasetConfig::small();
  const auto ds = make_synthetic_citation_dataset(config);
  EXPECT_EQ(ds.num_nodes(), config.num_nodes);
  EXPECT_EQ(ds.num_features(), config.num_features);
  EXPECT_EQ(ds.graph.num_edges(), 2 * config.num_undirected_edges);
  EXPECT_EQ(ds.num_classes, config.num_classes);
  EXPECT_TRUE(ds.graph.valid());
  EXPECT_GT(ds.train_count(), 0);
  EXPECT_LT(ds.train_count(), ds.num_nodes());
}

TEST(Dataset, IsDeterministicInSeed) {
  const auto a = make_synthetic_citation_dataset(DatasetConfig::small());
  const auto b = make_synthetic_citation_dataset(DatasetConfig::small());
  EXPECT_TRUE(a.features.bitwise_equal(b.features));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.graph.edge_src, b.graph.edge_src);
}

TEST(Dataset, DifferentSeedsDiffer) {
  auto config = DatasetConfig::small();
  const auto a = make_synthetic_citation_dataset(config);
  config.seed += 1;
  const auto b = make_synthetic_citation_dataset(config);
  EXPECT_FALSE(a.features.bitwise_equal(b.features));
}

TEST(Dataset, EdgesAreHomophilous) {
  const auto ds = make_synthetic_citation_dataset(DatasetConfig::small());
  std::int64_t same = 0;
  for (std::int64_t e = 0; e < ds.graph.num_edges(); ++e) {
    const auto u = static_cast<std::size_t>(ds.graph.edge_src[e]);
    const auto v = static_cast<std::size_t>(ds.graph.edge_dst[e]);
    same += ds.labels[u] == ds.labels[v];
  }
  const double fraction =
      static_cast<double>(same) / static_cast<double>(ds.graph.num_edges());
  EXPECT_GT(fraction, 0.6);  // homophily makes classes learnable
}

TEST(Dataset, FeaturesAreRowNormalisedIndicators) {
  const auto config = DatasetConfig::small();
  const auto ds = make_synthetic_citation_dataset(config);
  for (std::int64_t v = 0; v < 5; ++v) {
    double norm_sq = 0.0;
    for (std::int64_t f = 0; f < ds.num_features(); ++f) {
      norm_sq += ds.features.at({v, f}) * ds.features.at({v, f});
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-5);
  }
}

// -------------------------------------------------------------- linalg --

TEST(Linalg, MatmulIdentity) {
  const auto a = Matrix::from_data(tensor::Shape{2, 2}, {1, 2, 3, 4});
  const auto eye = Matrix::from_data(tensor::Shape{2, 2}, {1, 0, 0, 1});
  EXPECT_TRUE(matmul(a, eye).bitwise_equal(a));
}

TEST(Linalg, MatmulKnown) {
  const auto a = Matrix::from_data(tensor::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const auto b = Matrix::from_data(tensor::Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const auto c = matmul(a, b);
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Linalg, TransposeVariantsAgree) {
  util::Xoshiro256pp rng(1);
  const auto a = tensor::random_uniform<float>(tensor::Shape{5, 4}, -1, 1, rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{5, 6}, -1, 1, rng);
  // a^T b via matmul_transpose_a must equal manual transpose + matmul.
  Matrix at(tensor::Shape{4, 5});
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) at.at({j, i}) = a.at({i, j});
  }
  const auto direct = matmul(at, b);
  const auto fused = matmul_transpose_a(a, b);
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(direct.flat(i), fused.flat(i), 1e-5);
  }
}

TEST(Linalg, MatmulTransposeB) {
  util::Xoshiro256pp rng(2);
  const auto a = tensor::random_uniform<float>(tensor::Shape{3, 4}, -1, 1, rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{5, 4}, -1, 1, rng);
  const auto c = matmul_transpose_b(a, b);  // [3,5]
  EXPECT_EQ(c.shape(), (tensor::Shape{3, 5}));
  float manual = 0.0f;
  for (std::int64_t k = 0; k < 4; ++k) manual += a.at({1, k}) * b.at({2, k});
  EXPECT_NEAR(c.at({1, 2}), manual, 1e-6);
}

TEST(Linalg, BiasAndColumnSums) {
  auto a = Matrix::from_data(tensor::Shape{2, 2}, {1, 2, 3, 4});
  const auto bias = Matrix::from_data(tensor::Shape{2}, {10, 20});
  add_bias_rows(a, bias);
  EXPECT_EQ(a.at({1, 1}), 24.0f);
  const auto sums = column_sums(a);
  EXPECT_EQ(sums.at({0}), 24.0f);
  EXPECT_EQ(sums.at({1}), 46.0f);
}

TEST(Linalg, GatherRows) {
  const auto x = Matrix::from_data(tensor::Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  const auto out = gather_rows(x, {2, 0, 2});
  EXPECT_EQ(out.shape(), (tensor::Shape{3, 2}));
  EXPECT_EQ(out.at({0, 0}), 5.0f);
  EXPECT_EQ(out.at({1, 1}), 2.0f);
  EXPECT_EQ(out.at({2, 0}), 5.0f);
  EXPECT_THROW(gather_rows(x, {3}), std::out_of_range);
}

// ------------------------------------------- pool-parallel dense kernels --

// The tentpole contract: routing the dense kernel family through
// EvalContext.pool is bitwise identical to serial *by construction* - for
// every registry accumulator and every thread count. Row-blocked outer
// loops mean each output element's accumulation stream never crosses a
// chunk boundary.
TEST(Linalg, PooledKernelsBitwiseEqualSerialForEveryAccumulator) {
  util::Xoshiro256pp rng(321);
  auto a = tensor::random_uniform<float>(tensor::Shape{37, 23}, -1e4, 1e4,
                                         rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{23, 19}, -1e4,
                                               1e4, rng);
  const auto d = tensor::random_uniform<float>(tensor::Shape{37, 19}, -1e4,
                                               1e4, rng);
  const auto bt = tensor::random_uniform<float>(tensor::Shape{19, 23}, -1e4,
                                                1e4, rng);
  // Exact zeros exercise the kernels' sparsity skip on both paths.
  for (std::int64_t i = 0; i < a.numel(); i += 7) a.flat(i) = 0.0f;

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    for (const auto& entry : fp::kAlgorithms) {
      core::EvalContext serial_ctx;
      serial_ctx.accumulator = entry.id;
      const core::EvalContext pool_ctx = serial_ctx.with_pool(&pool);
      const std::string label =
          entry.name + (" @" + std::to_string(threads));

      EXPECT_TRUE(matmul(a, b, pool_ctx)
                      .bitwise_equal(matmul(a, b, serial_ctx)))
          << label;
      EXPECT_TRUE(matmul_transpose_a(a, d, pool_ctx)
                      .bitwise_equal(matmul_transpose_a(a, d, serial_ctx)))
          << label;
      EXPECT_TRUE(matmul_transpose_b(a, bt, pool_ctx)
                      .bitwise_equal(matmul_transpose_b(a, bt, serial_ctx)))
          << label;
      EXPECT_TRUE(
          add(d, d, pool_ctx).bitwise_equal(add(d, d, serial_ctx)))
          << label;
      EXPECT_TRUE(column_sums(a, pool_ctx)
                      .bitwise_equal(column_sums(a, serial_ctx)))
          << label;
      EXPECT_TRUE(gather_rows(a, {5, 0, 5, 36}, pool_ctx)
                      .bitwise_equal(gather_rows(a, {5, 0, 5, 36})))
          << label;
    }
  }
}

// The dtype axis: pooled execution stays bitwise identical to serial for
// mixed-precision specs too - the storage/accumulate dtypes change which
// value every element takes, never how the row blocks partition it.
TEST(Linalg, PooledKernelsBitwiseEqualSerialForDtypeSpecs) {
  util::Xoshiro256pp rng(654);
  const auto a = tensor::random_uniform<float>(tensor::Shape{29, 31}, -1e3,
                                               1e3, rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{31, 17}, -1e3,
                                               1e3, rng);
  for (const char* name : {"serial@bf16:f32", "kahan@bf16:f32",
                           "serial@bf16:bf16", "serial@f32:f64",
                           "superaccumulator@bf16:f32"}) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(name);
    for (const std::size_t threads : {2u, 8u}) {
      util::ThreadPool pool(threads);
      core::EvalContext serial_ctx;
      serial_ctx.accumulator = spec;
      const core::EvalContext pool_ctx = serial_ctx.with_pool(&pool);
      const std::string label =
          std::string(name) + " @" + std::to_string(threads);
      EXPECT_TRUE(matmul(a, b, pool_ctx)
                      .bitwise_equal(matmul(a, b, serial_ctx)))
          << label;
      EXPECT_TRUE(column_sums(a, pool_ctx)
                      .bitwise_equal(column_sums(a, serial_ctx)))
          << label;
    }
  }
}

// The SIMD lane axis: a lane-blocked spec names one re-association, so
// pooled execution must still equal serial bit for bit at every thread
// count, and the forced scalar lane-emulation must equal whatever the
// host's intrinsics dispatch produced.
TEST(Linalg, PooledKernelsBitwiseEqualSerialForLaneBlockedSpecs) {
  util::Xoshiro256pp rng(777);
  const auto a = tensor::random_uniform<float>(tensor::Shape{33, 27}, -1e3,
                                               1e3, rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{27, 21}, -1e3,
                                               1e3, rng);
  for (const char* name : {"serial@simd4", "serial@simd8", "kahan@simd4",
                           "kahan@simd8", "klein@simd16",
                           "kahan@simd8:bf16:f32"}) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(name);
    core::EvalContext serial_ctx;
    serial_ctx.accumulator = spec;
    const dl::Matrix reference = matmul(a, b, serial_ctx);
    const dl::Matrix ref_cols = column_sums(a, serial_ctx);

    fp::set_simd_force_scalar(true);
    const bool emul_matmul = matmul(a, b, serial_ctx).bitwise_equal(reference);
    const bool emul_cols =
        column_sums(a, serial_ctx).bitwise_equal(ref_cols);
    fp::set_simd_force_scalar(std::nullopt);
    EXPECT_TRUE(emul_matmul) << name;
    EXPECT_TRUE(emul_cols) << name;

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      const core::EvalContext pool_ctx = serial_ctx.with_pool(&pool);
      const std::string label =
          std::string(name) + " @" + std::to_string(threads);
      EXPECT_TRUE(matmul(a, b, pool_ctx).bitwise_equal(reference)) << label;
      EXPECT_TRUE(column_sums(a, pool_ctx).bitwise_equal(ref_cols)) << label;
    }
  }
}

// Lanes survive the split-k chunk spec reconstruction (the bf16 path
// rebuilds the spec with native storage - it must keep the lane count,
// or splits would silently fall back to the scalar association).
TEST(Linalg, SplitKPreservesLaneBlockingUnderBf16Storage) {
  util::Xoshiro256pp rng(778);
  const auto a = tensor::random_uniform<float>(tensor::Shape{17, 40}, -1e3,
                                               1e3, rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{40, 11}, -1e3,
                                               1e3, rng);
  core::EvalContext ctx;
  ctx.accumulator = fp::parse_reduction_spec("kahan@simd8:bf16:f32");
  // splits == 1 copies the single partial: bitwise the plain matmul under
  // the same spec, which only holds if the chunk spec kept lanes == 8.
  EXPECT_TRUE(dl::matmul_split_k(a, b, 1, ctx)
                  .bitwise_equal(dl::matmul(a, b, ctx)));
  // And the deterministic multi-split path stays run-to-run stable.
  EXPECT_TRUE(dl::matmul_split_k(a, b, 4, ctx)
                  .bitwise_equal(dl::matmul_split_k(a, b, 4, ctx)));
}

// bf16 storage semantics are operand quantization: running the native
// serial kernel on pre-quantized operands must reproduce the
// serial@bf16:f32 kernel bit for bit (products of bf16 values are exact
// in binary32, and both paths fold them in the same ascending-p order).
TEST(Linalg, Bf16StorageMatmulMatchesQuantizedOperandReference) {
  util::Xoshiro256pp rng(987);
  auto a = tensor::random_uniform<float>(tensor::Shape{13, 21}, -50.0, 50.0,
                                         rng);
  auto b = tensor::random_uniform<float>(tensor::Shape{21, 9}, -50.0, 50.0,
                                         rng);
  for (std::int64_t i = 0; i < a.numel(); i += 5) a.flat(i) = 0.0f;

  core::EvalContext bf16_ctx;
  bf16_ctx.accumulator = fp::parse_reduction_spec("serial@bf16:f32");
  const auto mixed = matmul(a, b, bf16_ctx);

  auto qa = a;
  auto qb = b;
  for (std::int64_t i = 0; i < qa.numel(); ++i) {
    qa.flat(i) = static_cast<float>(fp::bf16(qa.flat(i)));
  }
  for (std::int64_t i = 0; i < qb.numel(); ++i) {
    qb.flat(i) = static_cast<float>(fp::bf16(qb.flat(i)));
  }
  const auto reference = matmul(qa, qb, core::EvalContext{});
  EXPECT_TRUE(mixed.bitwise_equal(reference));
}

// The defaulted context reproduces the seed's hand-rolled loops: pooled
// kSerial lands on the same pinned values as MatmulKnown.
TEST(Linalg, PooledSerialDefaultMatchesKnownValues) {
  const auto a = Matrix::from_data(tensor::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const auto b = Matrix::from_data(tensor::Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  util::ThreadPool pool(4);
  core::EvalContext ctx;
  ctx.pool = &pool;
  const auto c = matmul(a, b, ctx);
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Linalg, SplitKDeterministicPathIsStableAndSplitsOneIsMatmul) {
  util::Xoshiro256pp rng(77);
  const auto a = tensor::random_uniform<float>(tensor::Shape{12, 64}, -1e8,
                                               1e8, rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{64, 9}, -1e8,
                                               1e8, rng);
  const core::EvalContext det;
  EXPECT_TRUE(matmul_split_k(a, b, 1, det).bitwise_equal(matmul(a, b, det)));
  const auto once = matmul_split_k(a, b, 8, det);
  EXPECT_TRUE(matmul_split_k(a, b, 8, det).bitwise_equal(once));
  // Pooled split-k re-associates identically (the combine order is fixed
  // per call, not per thread).
  util::ThreadPool pool(4);
  core::EvalContext pool_ctx;
  pool_ctx.pool = &pool;
  EXPECT_TRUE(matmul_split_k(a, b, 8, pool_ctx).bitwise_equal(once));
  EXPECT_THROW(matmul_split_k(a, b, 0, det), std::invalid_argument);
}

// Paper Table 1, extended to the dense kernels: shuffling the k-split
// combine order moves the low bits of ill-conditioned products.
TEST(Linalg, SplitKShufflesProduceDistinctBitPatterns) {
  util::Xoshiro256pp rng(78);
  const auto a = tensor::random_uniform<float>(tensor::Shape{16, 96}, -1e8,
                                               1e8, rng);
  const auto b = tensor::random_uniform<float>(tensor::Shape{96, 8}, -1e8,
                                               1e8, rng);
  std::set<std::vector<float>> patterns;
  for (std::uint64_t r = 0; r < 10; ++r) {
    core::RunContext run(55, r);
    const auto ctx = core::EvalContext::nondeterministic_on(run);
    const auto shuffled = matmul_split_k(a, b, 8, ctx);
    patterns.insert(
        std::vector<float>(shuffled.data().begin(), shuffled.data().end()));
  }
  EXPECT_GE(patterns.size(), 2u);
}

// ------------------------------------------------------- linalg golden --

// Seeded finite values with exact zeros of both signs mixed in, so the
// pinned bits cover the sparsity skip and signed-zero handling too.
Matrix golden_operand(std::int64_t rows, std::int64_t cols,
                      util::Xoshiro256pp& rng) {
  const util::UniformReal value(-4.0, 4.0);
  Matrix m(tensor::Shape{rows, cols}, 0.0f);
  for (float& v : m.vec()) {
    const double u = util::canonical(rng);
    v = u < 0.15 ? 0.0f : u < 0.3 ? -0.0f : static_cast<float>(value(rng));
  }
  return m;
}

std::string bits_hex(std::span<const float> values) {
  obs::Fingerprint print;
  print.feed(values);
  return obs::hex64(print.value());
}

// Every fold has more nonzero terms than pairwise's 32-element base
// block, so the pairwise rows pin a different association from the
// serial ones.
std::vector<std::pair<std::string, std::string>> linalg_golden_outputs() {
  std::vector<std::pair<std::string, std::string>> out;
  util::Xoshiro256pp rng(1414);
  const std::int64_t m = 64, k = 72, n = 6;
  const Matrix a = golden_operand(m, k, rng);
  const Matrix b = golden_operand(k, n, rng);
  const Matrix c = golden_operand(m, n, rng);
  const Matrix d = golden_operand(n, k, rng);
  const std::vector<std::int64_t> ids = {
      3,  0,  7,  7,  63, 12, 1,  1,  1,  20, 33, 2,  9,  9,
      30, 4,  18, 5,  6,  27, 8,  10, 41, 13, 14, 55, 16, 17,
      19, 21, 22, 23, 24, 25, 26, 28, 29, 31, 32, 34};
  for (const char* name : {"default", "pairwise", "kahan@bf16:f32"}) {
    const core::EvalContext ctx =
        std::string(name) == "default"
            ? core::EvalContext{}
            : core::EvalContext{}.with_accumulator(
                  fp::parse_reduction_spec(name));
    const std::string spec = std::string(" ") + name;
    const auto record = [&](const std::string& kernel, const Matrix& result) {
      out.emplace_back(kernel + spec, bits_hex(result.data()));
    };
    const Matrix logits = matmul(a, b, ctx);
    record("matmul", logits);
    record("matmul_transpose_a", matmul_transpose_a(a, c, ctx));
    record("matmul_transpose_b", matmul_transpose_b(a, d, ctx));
    record("column_sums", column_sums(a, ctx));
    record("matmul_split_k 1", matmul_split_k(a, b, 1, ctx));
    record("matmul_split_k 3", matmul_split_k(a, b, 3, ctx));
    const auto row_of = [](auto span, std::int64_t r, std::int64_t width) {
      return span.subspan(static_cast<std::size_t>(r * width),
                          static_cast<std::size_t>(width));
    };
    Matrix rows(tensor::Shape{m, n}, 0.0f);
    for (std::int64_t i = 0; i < m; ++i) {
      linear_row(row_of(a.data(), i, k), b, row_of(rows.data(), i, n), ctx);
    }
    record("linear_row", rows);
    // All 40 ids, the first 7, none.
    Matrix means(tensor::Shape{3, k}, 0.0f);
    const std::span<const std::int64_t> all(ids);
    for (const std::int64_t r : {0, 1, 2}) {
      mean_rows_into(a, all.first(r == 0 ? 40 : r == 1 ? 7 : 0),
                     row_of(means.data(), r, k), ctx);
    }
    record("mean_rows_into", means);
    record("log_softmax_rows", log_softmax_rows(logits));
  }
  return out;
}

TEST(LinalgGolden, SeededBitsArePinned) {
  // Captured from the kernels with hand-written native-serial loops;
  // they must never change.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"matmul default", "0fd9ec71fd84fbcc"},
      {"matmul_transpose_a default", "f907fa52eab7867f"},
      {"matmul_transpose_b default", "86392f4467626e9e"},
      {"column_sums default", "589e423002aba99d"},
      {"matmul_split_k 1 default", "0fd9ec71fd84fbcc"},
      {"matmul_split_k 3 default", "1e50c390c7393208"},
      {"linear_row default", "0fd9ec71fd84fbcc"},
      {"mean_rows_into default", "0b79599f2fa12b52"},
      {"log_softmax_rows default", "73afe24832053ef6"},
      {"matmul pairwise", "9b053579fc7cccdc"},
      {"matmul_transpose_a pairwise", "eec279f9e1ec2846"},
      {"matmul_transpose_b pairwise", "0d5813598c9b5230"},
      {"column_sums pairwise", "47a4c3f73da6e45e"},
      {"matmul_split_k 1 pairwise", "9b053579fc7cccdc"},
      {"matmul_split_k 3 pairwise", "1e50c390c7393208"},
      {"linear_row pairwise", "9b053579fc7cccdc"},
      {"mean_rows_into pairwise", "1dbe5223072256b5"},
      {"log_softmax_rows pairwise", "2dcaa82279df16b3"},
      {"matmul kahan@bf16:f32", "504f2e615c089c2a"},
      {"matmul_transpose_a kahan@bf16:f32", "3fe8f004221b7d61"},
      {"matmul_transpose_b kahan@bf16:f32", "22356165dbe056bb"},
      {"column_sums kahan@bf16:f32", "6f2b01abc21afd5d"},
      {"matmul_split_k 1 kahan@bf16:f32", "504f2e615c089c2a"},
      {"matmul_split_k 3 kahan@bf16:f32", "7491272176577704"},
      {"linear_row kahan@bf16:f32", "504f2e615c089c2a"},
      {"mean_rows_into kahan@bf16:f32", "f9799e535d027407"},
      {"log_softmax_rows kahan@bf16:f32", "aa98008f0c133bfe"},
  };
  const auto actual = linalg_golden_outputs();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first);
    EXPECT_EQ(actual[i].second, expected[i].second) << actual[i].first;
  }
}

// -------------------------------------------------------------- layers --

Graph line_graph(std::int64_t n) {
  Graph g;
  g.num_nodes = n;
  for (std::int64_t i = 0; i + 1 < n; ++i) g.add_undirected_edge(i, i + 1);
  return g;
}

TEST(Layers, MeanAggregateAveragesNeighbours) {
  const Graph g = line_graph(3);  // 0-1-2
  const auto x = Matrix::from_data(tensor::Shape{3, 1}, {1.0f, 2.0f, 4.0f});
  const tensor::OpContext ctx;
  const auto h = mean_aggregate(x, g, ctx);
  EXPECT_EQ(h.at({0, 0}), 2.0f);   // neighbour of 0 is 1
  EXPECT_EQ(h.at({1, 0}), 2.5f);   // mean(1, 4)
  EXPECT_EQ(h.at({2, 0}), 2.0f);   // neighbour of 2 is 1
}

TEST(Layers, IsolatedNodeAggregatesToZero) {
  Graph g;
  g.num_nodes = 2;
  const auto x = Matrix::from_data(tensor::Shape{2, 1}, {3.0f, 4.0f});
  const tensor::OpContext ctx;
  const auto h = mean_aggregate(x, g, ctx);
  EXPECT_EQ(h.at({0, 0}), 0.0f);
  EXPECT_EQ(h.at({1, 0}), 0.0f);
}

TEST(Layers, ReluAndBackward) {
  const auto x = Matrix::from_data(tensor::Shape{1, 3}, {-1.0f, 0.0f, 2.0f});
  const auto y = relu(x);
  EXPECT_EQ(y.at({0, 0}), 0.0f);
  EXPECT_EQ(y.at({0, 2}), 2.0f);
  const auto d = Matrix::from_data(tensor::Shape{1, 3}, {5.0f, 5.0f, 5.0f});
  const auto dz = relu_backward(x, d);
  EXPECT_EQ(dz.at({0, 0}), 0.0f);
  EXPECT_EQ(dz.at({0, 1}), 0.0f);  // derivative at 0 defined as 0
  EXPECT_EQ(dz.at({0, 2}), 5.0f);
}

TEST(Layers, LogSoftmaxRowsNormalises) {
  const auto x = Matrix::from_data(tensor::Shape{1, 3}, {1.0f, 2.0f, 3.0f});
  const auto lp = log_softmax_rows(x);
  double total = 0.0;
  for (std::int64_t c = 0; c < 3; ++c) total += std::exp(lp.at({0, c}));
  EXPECT_NEAR(total, 1.0, 1e-6);
  // Shift invariance.
  const auto y = Matrix::from_data(tensor::Shape{1, 3}, {101.f, 102.f, 103.f});
  const auto lp2 = log_softmax_rows(y);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(lp.at({0, c}), lp2.at({0, c}), 1e-5);
  }
}

TEST(Layers, NllLossGradientIsSoftmaxMinusOnehot) {
  const auto logits = Matrix::from_data(tensor::Shape{1, 2}, {0.0f, 0.0f});
  const auto lp = log_softmax_rows(logits);
  const auto r = nll_loss_masked(lp, {1}, {1});
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-6);
  EXPECT_NEAR(r.d_logits.at({0, 0}), 0.5f, 1e-6);
  EXPECT_NEAR(r.d_logits.at({0, 1}), -0.5f, 1e-6);
}

TEST(Layers, NllLossRespectsMask) {
  const auto logits =
      Matrix::from_data(tensor::Shape{2, 2}, {0.0f, 10.0f, 0.0f, 10.0f});
  const auto lp = log_softmax_rows(logits);
  const auto r = nll_loss_masked(lp, {0, 1}, {0, 1});  // only row 1 counts
  EXPECT_NEAR(r.loss, -lp.at({1, 1}), 1e-6);
  EXPECT_EQ(r.d_logits.at({0, 0}), 0.0f);
}

// The GNN aggregation pair (gather + index_add + row scaling) on the pool
// is bitwise identical to serial for every accumulator and thread count -
// the backward direction is the paper's index_add with edge roles swapped.
TEST(Layers, PooledAggregationBitwiseEqualsSerialForEveryAccumulator) {
  auto config = DatasetConfig::small();
  config.num_nodes = 60;
  config.num_undirected_edges = 150;
  config.num_features = 9;
  const auto ds = make_synthetic_citation_dataset(config);
  util::Xoshiro256pp rng(9);
  const auto d_out = tensor::random_uniform<float>(
      tensor::Shape{ds.num_nodes(), 9}, -1e3, 1e3, rng);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    for (const auto& entry : fp::kAlgorithms) {
      core::EvalContext serial_ctx;
      serial_ctx.accumulator = entry.id;
      const core::EvalContext pool_ctx = serial_ctx.with_pool(&pool);
      const std::string label =
          entry.name + (" @" + std::to_string(threads));
      EXPECT_TRUE(
          mean_aggregate(ds.features, ds.graph, pool_ctx)
              .bitwise_equal(mean_aggregate(ds.features, ds.graph,
                                            serial_ctx)))
          << label;
      EXPECT_TRUE(mean_aggregate_backward(d_out, ds.graph, pool_ctx)
                      .bitwise_equal(mean_aggregate_backward(d_out, ds.graph,
                                                             serial_ctx)))
          << label;
    }
  }
}

// Numerical gradient check of the full model loss w.r.t. a few weights.
TEST(Layers, GradientCheckThroughModel) {
  auto config = DatasetConfig::small();
  config.num_nodes = 24;
  config.num_undirected_edges = 40;
  config.num_features = 12;
  config.words_per_node = 4;
  const auto ds = make_synthetic_citation_dataset(config);

  GraphSageModel model(ds.num_features(), 5, ds.num_classes, 7);
  const tensor::OpContext ctx;

  const auto loss_at = [&]() {
    const Matrix lp = model.forward(ds.features, ds.graph, ctx, nullptr);
    return nll_loss_masked(lp, ds.labels, ds.train_mask).loss;
  };

  GraphSageModel::ForwardCache cache;
  const Matrix lp = model.forward(ds.features, ds.graph, ctx, &cache);
  const auto loss = nll_loss_masked(lp, ds.labels, ds.train_mask);
  model.zero_grad();
  model.backward(cache, loss.d_logits, ds.graph, ctx);

  // Check a scatter of weight coordinates in both layers.
  struct Probe {
    Matrix* w;
    Matrix* g;
    std::int64_t i;
  };
  const std::vector<Probe> probes{
      {&model.conv1.lin_self.weight, &model.conv1.lin_self.grad_weight, 3},
      {&model.conv1.lin_neigh.weight, &model.conv1.lin_neigh.grad_weight, 11},
      {&model.conv2.lin_self.weight, &model.conv2.lin_self.grad_weight, 0},
      {&model.conv2.lin_self.bias, &model.conv2.lin_self.grad_bias, 2},
      {&model.conv2.lin_neigh.weight, &model.conv2.lin_neigh.grad_weight, 8},
  };
  for (const auto& probe : probes) {
    const float eps = 1e-3f;
    const float original = probe.w->flat(probe.i);
    probe.w->flat(probe.i) = original + eps;
    const double up = loss_at();
    probe.w->flat(probe.i) = original - eps;
    const double down = loss_at();
    probe.w->flat(probe.i) = original;
    const double numeric = (up - down) / (2.0 * eps);
    const double analytic = probe.g->flat(probe.i);
    EXPECT_NEAR(analytic, numeric, 5e-3 + 0.05 * std::fabs(numeric));
  }
}

// ---------------------------------------------------------------- adam --

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise f(w) = 0.5 * (w - 3)^2 elementwise.
  Matrix w(tensor::Shape{4}, 0.0f);
  Matrix g(tensor::Shape{4}, 0.0f);
  Adam opt(AdamConfig{.lr = 0.1f});
  opt.add_parameter(&w, &g);
  for (int step = 0; step < 500; ++step) {
    for (std::int64_t i = 0; i < 4; ++i) g.flat(i) = w.flat(i) - 3.0f;
    opt.step();
  }
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(w.flat(i), 3.0f, 1e-2);
}

TEST(Adam, ValidatesShapes) {
  Matrix w(tensor::Shape{4}, 0.0f);
  Matrix g(tensor::Shape{3}, 0.0f);
  Adam opt;
  EXPECT_THROW(opt.add_parameter(&w, &g), std::invalid_argument);
  EXPECT_THROW(opt.add_parameter(nullptr, &g), std::invalid_argument);
}

TEST(Adam, DeterministicUpdates) {
  const auto run_once = [] {
    Matrix w(tensor::Shape{8}, 1.0f);
    Matrix g(tensor::Shape{8}, 0.0f);
    Adam opt(AdamConfig{.lr = 0.05f});
    opt.add_parameter(&w, &g);
    for (int s = 0; s < 50; ++s) {
      for (std::int64_t i = 0; i < 8; ++i) {
        g.flat(i) = 0.3f * w.flat(i) + static_cast<float>(i) * 0.01f;
      }
      opt.step();
    }
    return w;
  };
  EXPECT_TRUE(run_once().bitwise_equal(run_once()));
}

// --------------------------------------------------------------- model --

TEST(Model, InitialisationIsSeedDeterministic) {
  const GraphSageModel a(32, 8, 7, 99);
  const GraphSageModel b(32, 8, 7, 99);
  EXPECT_EQ(a.flattened_weights(), b.flattened_weights());
  const GraphSageModel c(32, 8, 7, 100);
  EXPECT_NE(a.flattened_weights(), c.flattened_weights());
}

TEST(Model, LayersUseDifferentInitStreams) {
  const GraphSageModel m(8, 8, 8, 1);
  // conv1 and conv2 have same-shape self weights here; they must differ.
  EXPECT_FALSE(m.conv1.lin_self.weight.bitwise_equal(m.conv2.lin_self.weight));
}

TEST(Model, GradientSinkEmitsEveryParameterInReverseLayerOrder) {
  // The DDP readiness signal: backward must announce each parameter's
  // gradient exactly once, in backward_gradient_order() (conv2 before
  // conv1), with the buffer already holding its final value, and the
  // sink-instrumented backward must not move any bits.
  util::Xoshiro256pp rng(7);
  const util::UniformReal dist(-1.0, 1.0);
  const std::int64_t nodes = 12;
  Graph graph;
  graph.num_nodes = nodes;
  for (std::int64_t v = 0; v + 1 < nodes; ++v) {
    graph.edge_src.push_back(v);
    graph.edge_dst.push_back(v + 1);
    graph.edge_src.push_back(v + 1);
    graph.edge_dst.push_back(v);
  }
  Matrix features(tensor::Shape{nodes, 6}, 0.0f);
  for (auto& x : features.vec()) x = static_cast<float>(dist(rng));
  Matrix d_logits(tensor::Shape{nodes, 3}, 0.0f);
  for (auto& x : d_logits.vec()) x = static_cast<float>(dist(rng));

  GraphSageModel model(6, 4, 3, 11);
  const tensor::OpContext ctx;
  GraphSageModel::ForwardCache cache;
  (void)model.forward(features, graph, ctx, &cache);

  model.zero_grad();
  model.backward(cache, d_logits, graph, ctx);
  std::vector<Matrix> reference;
  for (auto& [param, grad] : model.parameters()) {
    (void)param;
    reference.push_back(*grad);
  }

  model.zero_grad();
  std::vector<std::size_t> emitted;
  std::vector<Matrix> at_emission;
  const auto params = model.parameters();
  model.backward(cache, d_logits, graph, ctx, [&](const Matrix* grad) {
    for (std::size_t t = 0; t < params.size(); ++t) {
      if (params[t].second == grad) {
        emitted.push_back(t);
        at_emission.push_back(*grad);
        return;
      }
    }
    FAIL() << "sink saw an unknown gradient buffer";
  });
  EXPECT_EQ(emitted, model.backward_gradient_order());
  ASSERT_EQ(at_emission.size(), reference.size());
  for (std::size_t k = 0; k < emitted.size(); ++k) {
    // The buffer was final at emission time: identical to the plain
    // backward's result for that parameter.
    EXPECT_TRUE(at_emission[k].bitwise_equal(reference[emitted[k]]))
        << "parameter " << emitted[k];
  }
}

// ------------------------------------------------------------- trainer --

DatasetConfig tiny_config() {
  auto config = DatasetConfig::small();
  config.num_nodes = 120;
  config.num_undirected_edges = 300;
  config.num_features = 32;
  config.words_per_node = 5;
  return config;
}

TEST(Trainer, DeterministicTrainingIsBitwiseReproducible) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  TrainConfig config;
  config.epochs = 5;
  config.hidden = 8;
  config.deterministic = true;

  const auto kernel = [&](core::RunContext& run) {
    return train(ds, config, run).final_weights;
  };
  const auto cert = core::certify_deterministic(kernel, 4, 17);
  EXPECT_TRUE(cert.deterministic);
}

// End to end: a trainer given a thread pool produces the exact bits of
// the serial trainer - for the default and a non-trivial accumulator.
TEST(Trainer, PooledTrainingBitwiseEqualsSerial) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  util::ThreadPool pool(4);
  for (const auto accumulator :
       {fp::AlgorithmId::kSerial, fp::AlgorithmId::kPairwise}) {
    TrainConfig config;
    config.epochs = 3;
    config.hidden = 8;
    config.accumulator = accumulator;

    core::RunContext run_serial(19, 0);
    const auto serial = train(ds, config, run_serial);

    config.pool = &pool;
    core::RunContext run_pooled(19, 0);
    const auto pooled = train(ds, config, run_pooled);

    EXPECT_EQ(pooled.final_weights, serial.final_weights);
    EXPECT_EQ(pooled.epoch_losses, serial.epoch_losses);
    EXPECT_DOUBLE_EQ(pooled.train_accuracy, serial.train_accuracy);
  }
}

// The paper's DL dtype setting end to end: training under
// kahan@bf16:f32 is run-to-run reproducible, pool-invariant bit for bit,
// and actually engages the dtype axis (the trained weights differ from
// the native f32 run).
TEST(Trainer, MixedPrecisionTrainingIsReproducibleAndPoolInvariant) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  util::ThreadPool pool(4);
  TrainConfig config;
  config.epochs = 2;
  config.hidden = 8;
  config.accumulator =
      fp::ReductionSpec{fp::AlgorithmId::kKahan, fp::Dtype::kBf16,
                        fp::Dtype::kF32};

  core::RunContext run_serial(29, 0);
  const auto serial = train(ds, config, run_serial);

  config.pool = &pool;
  core::RunContext run_pooled(29, 0);
  const auto pooled = train(ds, config, run_pooled);
  EXPECT_EQ(pooled.final_weights, serial.final_weights);
  EXPECT_EQ(pooled.epoch_losses, serial.epoch_losses);

  core::RunContext run_again(29, 1);
  config.pool = nullptr;
  const auto again = train(ds, config, run_again);
  EXPECT_EQ(again.final_weights, serial.final_weights);

  TrainConfig native = config;
  native.accumulator = fp::AlgorithmId::kKahan;
  core::RunContext run_native(29, 0);
  const auto native_result = train(ds, native, run_native);
  EXPECT_NE(native_result.final_weights, serial.final_weights);
}

TEST(Trainer, NonDeterministicTrainingProducesUniqueModels) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  TrainConfig config;
  config.epochs = 5;
  config.hidden = 8;
  config.deterministic = false;

  std::vector<std::vector<double>> weights;
  for (std::uint64_t r = 0; r < 8; ++r) {
    core::RunContext run(23, r);
    weights.push_back(train(ds, config, run).final_weights);
  }
  // Paper SV.B: every ND-trained model is unique.
  EXPECT_EQ(core::count_unique_outputs(weights), weights.size());
}

TEST(Trainer, LossDecreasesAndFits) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  TrainConfig config;
  config.epochs = 30;
  config.hidden = 16;
  config.deterministic = true;
  core::RunContext run(29, 0);
  const auto result = train(ds, config, run);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  // Homophilous features + labels are learnable well above chance (1/7).
  EXPECT_GT(result.train_accuracy, 0.5);
}

TEST(Trainer, SnapshotsPerEpoch) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  TrainConfig config;
  config.epochs = 3;
  config.hidden = 4;
  config.snapshot_epochs = true;
  core::RunContext run(31, 0);
  const auto result = train(ds, config, run);
  EXPECT_EQ(result.epoch_weights.size(), 3u);
  EXPECT_EQ(result.epoch_weights.back(), result.final_weights);
}

// -------------------------------------------------------- loss scaling --

TEST(LossScale, ScalerValidatesConfig) {
  EXPECT_NO_THROW(LossScaler{LossScaleConfig::none()});
  EXPECT_NO_THROW(LossScaler{LossScaleConfig::static_scale(1536.0f)});
  EXPECT_THROW(LossScaler{LossScaleConfig::static_scale(0.0f)},
               std::invalid_argument);
  EXPECT_THROW(LossScaler{LossScaleConfig::static_scale(-2.0f)},
               std::invalid_argument);
  auto bad = LossScaleConfig::dynamic(1024.0f);
  bad.backoff_factor = 1.5f;
  EXPECT_THROW(LossScaler{bad}, std::invalid_argument);
  bad = LossScaleConfig::dynamic(1024.0f);
  bad.growth_interval = 0;
  EXPECT_THROW(LossScaler{bad}, std::invalid_argument);
  bad = LossScaleConfig::dynamic(1024.0f);
  bad.min_scale = 8.0f;
  bad.max_scale = 4.0f;
  EXPECT_THROW(LossScaler{bad}, std::invalid_argument);
}

// The dynamic state machine is a pure function of the finiteness
// sequence: backoff halves on a non-finite step (which is skipped),
// growth doubles after growth_interval consecutive finite steps, and
// both respect the [min_scale, max_scale] clamp.
TEST(LossScale, DynamicBackoffHalvesAndGrowthRecovers) {
  auto config = LossScaleConfig::dynamic(1024.0f);
  config.growth_interval = 4;
  LossScaler scaler(config);
  EXPECT_FLOAT_EQ(scaler.scale(), 1024.0f);

  EXPECT_FALSE(scaler.update(false));  // overflow: skip + backoff
  EXPECT_FLOAT_EQ(scaler.scale(), 512.0f);
  EXPECT_FALSE(scaler.update(false));
  EXPECT_FLOAT_EQ(scaler.scale(), 256.0f);
  EXPECT_EQ(scaler.skipped_steps(), 2);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(scaler.update(true));
    EXPECT_FLOAT_EQ(scaler.scale(), 256.0f);  // streak not yet complete
  }
  EXPECT_TRUE(scaler.update(true));  // 4th finite step: grow
  EXPECT_FLOAT_EQ(scaler.scale(), 512.0f);

  // A non-finite step resets the streak as well as backing off.
  EXPECT_FALSE(scaler.update(false));
  EXPECT_FLOAT_EQ(scaler.scale(), 256.0f);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(scaler.update(true));
  EXPECT_FLOAT_EQ(scaler.scale(), 256.0f);
  EXPECT_TRUE(scaler.update(true));
  EXPECT_FLOAT_EQ(scaler.scale(), 512.0f);
  EXPECT_EQ(scaler.skipped_steps(), 3);
}

TEST(LossScale, DynamicClampsToMinAndMax) {
  auto config = LossScaleConfig::dynamic(4.0f);
  config.min_scale = 2.0f;
  config.max_scale = 8.0f;
  config.growth_interval = 1;
  LossScaler scaler(config);
  (void)scaler.update(false);
  (void)scaler.update(false);
  EXPECT_FLOAT_EQ(scaler.scale(), 2.0f);  // clamped at min
  for (int i = 0; i < 4; ++i) (void)scaler.update(true);
  EXPECT_FLOAT_EQ(scaler.scale(), 8.0f);  // clamped at max
}

TEST(LossScale, StaticModeSkipsButKeepsScale) {
  LossScaler scaler(LossScaleConfig::static_scale(1536.0f));
  EXPECT_FALSE(scaler.update(false));
  EXPECT_FLOAT_EQ(scaler.scale(), 1536.0f);
  EXPECT_TRUE(scaler.update(true));
  EXPECT_EQ(scaler.skipped_steps(), 1);
}

TEST(LossScale, UnscaleQuantizesThroughAccumulateDtype) {
  // Pure-bf16 spec: the unscaled gradient is re-quantized onto the bf16
  // grid (the accumulate dtype's grid, where the unscaled run's
  // gradients already live).
  Matrix grad(tensor::Shape{1, 3}, 0.0f);
  grad.flat(0) = static_cast<float>(fp::bf16(0.625f)) * 3.0f;
  grad.flat(1) = static_cast<float>(fp::bf16(-1.375f)) * 3.0f;
  grad.flat(2) = 0.0f;
  unscale_gradient(grad, 3.0f,
                   fp::parse_reduction_spec("serial@bf16:bf16"));
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    EXPECT_EQ(grad.flat(i),
              static_cast<float>(fp::bf16(grad.flat(i))))
        << "element " << i << " left the bf16 grid";
  }

  // bf16:f32 spec: f32 accumulate makes the quantize the identity; a
  // power-of-two unscale is then exact, off-grid values stay put.
  Matrix mixed(tensor::Shape{1, 2}, 0.0f);
  const float off_grid = 0.6254321f;  // not a bf16 value
  mixed.flat(0) = off_grid * 4.0f;
  mixed.flat(1) = -off_grid * 4.0f;
  unscale_gradient(mixed, 4.0f,
                   fp::parse_reduction_spec("serial@bf16:f32"));
  EXPECT_EQ(mixed.flat(0), off_grid);
  EXPECT_EQ(mixed.flat(1), -off_grid);
}

// scale == 1 in static mode must be a bitwise no-op on training: the
// entire scaling path (the d_logits multiply, the finiteness scan, the
// unscale) degenerates to the historic trainer.
TEST(Trainer, StaticScaleOneIsBitwiseIdentity) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  for (const char* spec : {"serial", "serial@bf16:bf16"}) {
    TrainConfig config;
    config.epochs = 4;
    config.hidden = 8;
    config.accumulator = fp::parse_reduction_spec(spec);

    core::RunContext run_plain(37, 0);
    const auto plain = train(ds, config, run_plain);

    config.loss_scale = LossScaleConfig::static_scale(1.0f);
    core::RunContext run_scaled(37, 1);
    const auto scaled = train(ds, config, run_scaled);

    EXPECT_EQ(scaled.final_weights, plain.final_weights) << spec;
    EXPECT_EQ(scaled.epoch_losses, plain.epoch_losses) << spec;
    EXPECT_EQ(scaled.skipped_steps, 0);
  }
}

// Binary floating point is exactly homogeneous under multiplication by
// 2^k: a power-of-two loss scale shifts every exponent in the gradient
// path and never touches a mantissa, so (absent overflow) the scaled
// training reproduces the unscaled training bit for bit - for the
// native, mixed bf16:f32 and pure bf16 regimes alike. This is the
// certified floor that makes a *non*-power-of-two scale the interesting
// knob.
TEST(Trainer, PowerOfTwoScaleIsBitwiseNeutral) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  for (const char* spec :
       {"serial", "serial@bf16:f32", "serial@bf16:bf16", "kahan@bf16:bf16"}) {
    TrainConfig config;
    config.epochs = 4;
    config.hidden = 8;
    config.accumulator = fp::parse_reduction_spec(spec);

    core::RunContext run_plain(41, 0);
    const auto plain = train(ds, config, run_plain);

    for (const float scale : {2.0f, 1024.0f, 0.5f}) {
      config.loss_scale = LossScaleConfig::static_scale(scale);
      core::RunContext run_scaled(41, 1);
      const auto scaled = train(ds, config, run_scaled);
      EXPECT_EQ(scaled.final_weights, plain.final_weights)
          << spec << " scale " << scale;
      EXPECT_EQ(scaled.epoch_loss_scale.back(), scale);
    }
  }
}

// A non-power-of-two scale changes every mantissa, so every bf16
// quantization in the backward pass rounds on a shifted grid: the
// trajectory genuinely diverges - deterministically, pool-invariantly
// and identically for scales sharing a mantissa (1536 = 3 * 2^9).
TEST(Trainer, NonPowerOfTwoScaleReroundsDeterministically) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  util::ThreadPool pool(4);
  TrainConfig config;
  config.epochs = 4;
  config.hidden = 8;
  config.accumulator = fp::parse_reduction_spec("serial@bf16:bf16");

  core::RunContext run_plain(43, 0);
  const auto plain = train(ds, config, run_plain);

  config.loss_scale = LossScaleConfig::static_scale(1536.0f);
  core::RunContext run_scaled(43, 1);
  const auto scaled = train(ds, config, run_scaled);
  EXPECT_NE(scaled.final_weights, plain.final_weights);

  // Run-to-run bitwise stable...
  core::RunContext run_again(43, 2);
  const auto again = train(ds, config, run_again);
  EXPECT_EQ(again.final_weights, scaled.final_weights);

  // ...pool-invariant...
  config.pool = &pool;
  core::RunContext run_pooled(43, 3);
  const auto pooled = train(ds, config, run_pooled);
  EXPECT_EQ(pooled.final_weights, scaled.final_weights);
  config.pool = nullptr;

  // ...and a function of the scale's mantissa only: 3 and 3 * 2^9
  // produce the same bits.
  config.loss_scale = LossScaleConfig::static_scale(3.0f);
  core::RunContext run_three(43, 4);
  const auto three = train(ds, config, run_three);
  EXPECT_EQ(three.final_weights, scaled.final_weights);
}

// End to end overflow drill: an absurdly large initial scale overflows
// the scaled gradients to inf, the dynamic scaler skips those steps and
// backs off until the gradients are finite again, and training then
// proceeds normally - deterministically, with the whole scale
// trajectory recorded.
TEST(Trainer, DynamicScalerRecoversFromEngineeredOverflow) {
  auto ds = make_synthetic_citation_dataset(tiny_config());
  // The tiny model's gradients are too tame to overflow even at the
  // largest representable power-of-two scale, so amplify the input
  // features: the first layer's dW = X^T dL picks up the factor
  // directly, pushing the scaled gradients past f32's 3.4e38.
  for (auto& v : ds.features.vec()) v *= 4096.0f;
  TrainConfig config;
  config.epochs = 12;
  config.hidden = 8;
  config.accumulator = fp::parse_reduction_spec("serial@bf16:bf16");
  config.loss_scale = LossScaleConfig::dynamic(0x1p127f);
  config.loss_scale.growth_interval = 1 << 20;  // no growth inside the run

  core::RunContext run(47, 0);
  const auto result = train(ds, config, run);

  EXPECT_GT(result.skipped_steps, 0);
  EXPECT_LT(result.epoch_loss_scale.back(), 0x1p127f);
  // The recorded scale trajectory is the backoff staircase: each skipped
  // epoch halves the next epoch's scale.
  for (int e = 1; e < config.epochs; ++e) {
    const float prev = result.epoch_loss_scale[static_cast<std::size_t>(e - 1)];
    const float curr = result.epoch_loss_scale[static_cast<std::size_t>(e)];
    EXPECT_TRUE(curr == prev || curr == 0.5f * prev);
  }
  // Once recovered, the trainer actually trains: finite weights, loss
  // drops from the first post-recovery epoch to the last.
  for (const double w : result.final_weights) {
    EXPECT_TRUE(std::isfinite(w));
  }
  const auto first_kept =
      static_cast<std::size_t>(result.skipped_steps);  // epochs skipped first
  ASSERT_LT(first_kept, result.epoch_losses.size());
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses[first_kept]);

  // Same seed, same config: the recovery path itself is reproducible.
  core::RunContext run_again(47, 1);
  const auto again = train(ds, config, run_again);
  EXPECT_EQ(again.final_weights, result.final_weights);
  EXPECT_EQ(again.epoch_loss_scale, result.epoch_loss_scale);
  EXPECT_EQ(again.skipped_steps, result.skipped_steps);
}

// The trainer reports the scaler's state through the obs metrics
// registry when a recorder is attached (and the nullptr default stays
// the certified zero-event path).
TEST(Trainer, LossScaleMetricsLandInRecorder) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  obs::Recorder recorder;
  TrainConfig config;
  config.epochs = 2;
  config.hidden = 4;
  config.loss_scale = LossScaleConfig::static_scale(1536.0f);
  config.recorder = &recorder;
  core::RunContext run(53, 0);
  (void)train(ds, config, run);

  bool saw_scale_gauge = false;
  for (const auto& row : recorder.metrics().snapshot()) {
    if (row.name == "dl.loss_scale.scale") saw_scale_gauge = true;
  }
  EXPECT_TRUE(saw_scale_gauge);
}

TEST(Trainer, InferenceDvsNd) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  TrainConfig config;
  config.epochs = 3;
  config.hidden = 8;
  core::RunContext train_run(37, 0);
  const auto result = train(ds, config, train_run);

  const tensor::OpContext det;
  const Matrix a = infer(result.model, ds, det);
  const Matrix b = infer(result.model, ds, det);
  EXPECT_TRUE(a.bitwise_equal(b));

  bool varies = false;
  for (std::uint64_t r = 0; r < 10 && !varies; ++r) {
    core::RunContext run(41, r);
    const auto ctx = tensor::nd_context(run);
    varies = !infer(result.model, ds, ctx).bitwise_equal(a);
  }
  EXPECT_TRUE(varies);
}

TEST(Trainer, AccuracyHelper) {
  const auto scores =
      Matrix::from_data(tensor::Shape{2, 2}, {0.9f, 0.1f, 0.2f, 0.8f});
  EXPECT_DOUBLE_EQ(accuracy(scores, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(scores, {1, 0}), 0.0);
  const std::vector<char> mask{1, 0};
  EXPECT_DOUBLE_EQ(accuracy(scores, {0, 0}, &mask), 1.0);
}

// ---------------------------------------------------------- timing model --

TEST(TimingModel, Table8Shape) {
  const auto h100 = sim::DeviceProfile::h100();
  const auto ds = make_synthetic_citation_dataset(DatasetConfig::cora());
  const auto dims = ModelDims::of(ds, 16);

  const double nd_ms = modeled_gpu_inference_ms(h100, dims, false);
  const double d_ms = modeled_gpu_inference_ms(h100, dims, true);
  EXPECT_GT(d_ms, nd_ms);              // determinism costs time on GPU
  EXPECT_GT(d_ms / nd_ms, 1.3);
  EXPECT_LT(d_ms / nd_ms, 3.0);
  EXPECT_NEAR(nd_ms, 2.17, 1.0);       // paper magnitudes

  const sim::LpuDevice lpu;
  const double lpu_ms = lpu_inference_ms(lpu, dims);
  EXPECT_LT(lpu_ms, nd_ms / 10.0);     // LPU ~30x faster than GPU
  EXPECT_NEAR(lpu_ms, 0.066, 0.05);
}

TEST(TimingModel, MeasuredDenseForwardIsPositiveAndCached) {
  ModelDims dims;
  dims.nodes = 128;
  dims.edges = 256;
  dims.features = 32;
  dims.hidden = 8;
  dims.classes = 4;
  const double first = measured_dense_forward_us(dims);
  EXPECT_GT(first, 0.0);
  // Cached per (dims, pool width): the second lookup returns the same
  // measurement instead of re-timing.
  EXPECT_EQ(measured_dense_forward_us(dims), first);
}

TEST(TimingModel, TrainingShape) {
  const auto h100 = sim::DeviceProfile::h100();
  const auto ds = make_synthetic_citation_dataset(DatasetConfig::cora());
  const auto dims = ModelDims::of(ds, 16);
  const double d = modeled_gpu_training_s(h100, dims, 10, true);
  const double nd = modeled_gpu_training_s(h100, dims, 10, false);
  EXPECT_GT(d, nd);
  EXPECT_GT(d / nd, 2.0);
  EXPECT_LT(d / nd, 4.0);
  EXPECT_NEAR(nd, 0.18, 0.1);
}

}  // namespace
}  // namespace fpna::dl
