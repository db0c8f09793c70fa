// FoldGolden: the bits of every kernel that folds through the
// accumulator registry, over the spec grid - every algorithm at lanes
// {1, 4, 8, 16}, plus dtype-qualified specs for a few of them. Inputs
// include -0.0 seeds (the serial-from-the-seed rule keeps -0.0 where a
// +0.0-seeded stream would not) and +-Inf/NaN. Combinations that throw
// (binned cumsum, a non-exact-merge spec on an exact path) are fed into
// the fingerprint as a marker and asserted to throw.
//
// NaN payloads are not pinned (which NaN an add propagates follows the
// compiler's operand order); NaN-ness is.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpna/comm/bucketed_allreduce.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/core/eval_context.hpp"
#include "fpna/dl/layers.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/reduce/block_sum.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/reduce/gpu_sum.hpp"
#include "fpna/sim/device.hpp"
#include "fpna/tensor/indexed_ops.hpp"
#include "fpna/tensor/scan_ops.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Every algorithm at every lane count, then dtype-qualified specs.
std::vector<fp::ReductionSpec> spec_grid() {
  std::vector<fp::ReductionSpec> grid;
  for (const auto& entry : fp::kAlgorithms) {
    for (const std::size_t lanes : {1u, 4u, 8u, 16u}) {
      fp::ReductionSpec spec{entry.id};
      spec.lanes = lanes;
      grid.push_back(spec);
    }
  }
  for (const char* name :
       {"serial@f32:f32", "serial@bf16:f32", "serial@bf16:bf16",
        "pairwise@f32:f32", "pairwise@bf16:f32", "kahan@f32:f32",
        "kahan@bf16:f32", "kahan@bf16:bf16", "kahan@simd8:bf16:f32",
        "neumaier@simd4:f32:f32", "superaccumulator@f32:f32",
        "superaccumulator@bf16:f32", "superaccumulator@bf16:bf16",
        "binned@bf16:f32"}) {
    grid.push_back(fp::parse_reduction_spec(name));
  }
  return grid;
}

/// Seeded inputs: a wide-exponent stream with cancellation, -0.0 seeds,
/// and non-finite values.
std::vector<std::vector<double>> datasets() {
  util::Xoshiro256pp rng(1807);
  std::vector<double> wide(1000);
  for (double& x : wide) {
    const double mag =
        std::ldexp(1.0, static_cast<int>(util::canonical(rng) * 40.0) - 20);
    x = (util::canonical(rng) * 2.0 - 1.0) * mag;
  }
  wide[0] = -0.0;
  return {wide,
          {-0.0},
          {-0.0, -0.0, -0.0},
          {-0.0, 1.0, -1.0},
          {1.0, kInf, 2.0},
          {kInf, -kInf, 1.0},
          {1.0, kNaN, 3.0},
          {}};
}

std::vector<float> to_float(const std::vector<double>& v) {
  return {v.begin(), v.end()};
}

/// Fingerprint over values, with NaN canonicalised and a marker for a
/// call that threw std::invalid_argument.
class Print {
 public:
  void add(double x) { print_.feed(std::isnan(x) ? kNaN : x); }
  void add(float x) {
    print_.feed(std::isnan(x) ? std::numeric_limits<float>::quiet_NaN() : x);
  }
  template <typename T>
  void add(std::span<T> values) {
    for (const T x : values) add(x);
  }
  template <typename T>
  void add(const std::vector<T>& values) {
    add(std::span<const T>(values));
  }
  template <typename F>
  void attempt(F&& f) {
    try {
      f();
    } catch (const std::invalid_argument&) {
      print_.feed(std::uint64_t{0x7468726f776e});
    }
  }
  void word(std::uint64_t w) { print_.feed(w); }
  std::string hex() const { return obs::hex64(print_.value()); }

 private:
  obs::Fingerprint print_;
};

core::EvalContext with_spec(const fp::ReductionSpec& spec) {
  core::EvalContext ctx;
  ctx.accumulator = spec;
  return ctx;
}

bool exact_merge(const fp::ReductionSpec& spec) {
  return fp::traits_of(spec).exact_merge;
}

TEST(FoldGolden, FpReduce) {
  Print print;
  for (const auto& spec : spec_grid()) {
    for (const auto& data : datasets()) {
      print.add(fp::reduce<double>(spec, data));
      const auto f = to_float(data);
      print.add(fp::reduce<float>(spec, f));
    }
  }
  EXPECT_EQ(print.hex(), "3b3190214ea4b74b");
}

TEST(FoldGolden, CpuSum) {
  util::ThreadPool pool(3);
  Print print;
  for (const auto& spec : spec_grid()) {
    const core::EvalContext ctx = with_spec(spec);
    for (const auto& data : datasets()) {
      for (const std::size_t chunks : {1u, 3u, 7u}) {
        print.add(reduce::cpu_sum(data, ctx, chunks));
        print.add(reduce::cpu_sum(data, ctx.with_pool(&pool), chunks));
        core::RunContext run(41, chunks);
        core::EvalContext nd = core::EvalContext::nondeterministic_on(run);
        nd.accumulator = spec;
        print.add(reduce::cpu_sum(data, nd, chunks));
      }
    }
  }
  EXPECT_EQ(print.hex(), "91c3c15e7d10e68c");
}

TEST(FoldGolden, CpuSumChunkProvenance) {
  util::ThreadPool pool(3);
  Print print;
  const auto data = datasets().front();
  for (const auto& spec : spec_grid()) {
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      obs::Recorder recorder;
      const core::EvalContext ctx =
          with_spec(spec).with_pool(p).with_recorder(&recorder);
      print.add(reduce::cpu_sum(data, ctx, 7));
      for (const auto& stamped : recorder.sorted_provenance()) {
        print.word(stamped.record.bits);
      }
    }
  }
  EXPECT_EQ(print.hex(), "5f13cd4e77f468b7");
}

template <typename T>
void cumsum_prints(Print& print, const fp::ReductionSpec& spec) {
  for (const auto& data : datasets()) {
    if (data.empty()) continue;
    std::vector<T> line(data.begin(), data.end());
    if (line.size() > 64) line.resize(64);
    const auto n = static_cast<std::int64_t>(line.size());
    // The line twice: along dim 1 of a [2, n] tensor and along dim 0 of
    // its [n, 2] transpose (a strided scan).
    std::vector<T> rows = line, cols(line.size() * 2);
    rows.insert(rows.end(), line.rbegin(), line.rend());
    for (std::size_t i = 0; i < line.size(); ++i) {
      cols[2 * i] = line[i];
      cols[2 * i + 1] = line[line.size() - 1 - i];
    }
    const auto a = tensor::Tensor<T>::from_data(tensor::Shape{2, n}, rows);
    const auto b = tensor::Tensor<T>::from_data(tensor::Shape{n, 2}, cols);
    const tensor::OpContext d = with_spec(spec);
    print.attempt([&] { print.add(tensor::cumsum(a, 1, d).data()); });
    print.attempt([&] { print.add(tensor::cumsum(b, 0, d).data()); });
    core::RunContext run(43);
    tensor::OpContext nd = core::EvalContext::nondeterministic_on(run);
    nd.accumulator = spec;
    print.attempt([&] { print.add(tensor::cumsum(a, 1, nd, 4).data()); });
    print.attempt([&] { print.add(tensor::cumsum(b, 0, nd, 3).data()); });
  }
}

TEST(FoldGolden, Cumsum) {
  Print print;
  for (const auto& spec : spec_grid()) {
    cumsum_prints<double>(print, spec);
    cumsum_prints<float>(print, spec);
    if (spec.algorithm == fp::AlgorithmId::kBinned) {
      const auto t = tensor::Tensor<double>::from_data(tensor::Shape{2},
                                                       {1.0, 2.0});
      EXPECT_THROW(tensor::cumsum(t, 0, with_spec(spec)),
                   std::invalid_argument);
    }
  }
  EXPECT_EQ(print.hex(), "b6f142a6dec439d5");
}

TEST(FoldGolden, GpuSum) {
  Print print;
  sim::SimDevice device(sim::DeviceProfile::v100());
  const auto all = datasets();
  for (const auto& spec : spec_grid()) {
    for (const auto& data : all) {
      if (data.empty()) continue;  // a zero-sized launch throws
      for (const auto method :
           {sim::SumMethod::kAO, sim::SumMethod::kSPA, sim::SumMethod::kSPTR,
            sim::SumMethod::kSPRG, sim::SumMethod::kTPRC}) {
        core::RunContext run(47);
        core::EvalContext ctx = core::EvalContext::nondeterministic_on(run);
        ctx.accumulator = spec;
        print.add(reduce::gpu_sum(device, data, method, ctx, 32, 8).value);
        print.add(reduce::gpu_sum(device, data, method, ctx, 4).value);
      }
    }
  }
  EXPECT_EQ(print.hex(), "c310e5709253a38a");
}

TEST(FoldGolden, BlockPartialSum) {
  Print print;
  for (const auto& spec : spec_grid()) {
    for (const auto& data : datasets()) {
      print.add(reduce::all_block_partials(data, 16, 4, spec));
      print.add(reduce::all_block_partials(data, 3, 2, spec));
    }
  }
  EXPECT_EQ(print.hex(), "0e8e6a2fa999d9b2");
}

template <typename T>
void scatter_prints(Print& print, const fp::ReductionSpec& spec,
                    util::ThreadPool& pool) {
  util::Xoshiro256pp rng(53);
  const auto wide = datasets().front();
  std::vector<T> self(24), src(60);
  for (std::size_t i = 0; i < self.size(); ++i) {
    self[i] = static_cast<T>(wide[i]);
  }
  self[1] = self[5] = static_cast<T>(-0.0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<T>(wide[100 + i]);
  }
  src[7] = static_cast<T>(-0.0);
  src[13] = static_cast<T>(kInf);
  src[22] = static_cast<T>(-kInf);
  src[41] = static_cast<T>(kNaN);
  std::vector<std::int64_t> index(src.size());
  for (auto& k : index) k = static_cast<std::int64_t>(rng() % 6);
  index[0] = index[6] = 1;  // destination 1 holds -0.0 and sees -0.0
  const auto s = tensor::Tensor<T>::from_data(tensor::Shape{6, 4}, self);
  const auto v = tensor::Tensor<T>::from_data(tensor::Shape{15, 4}, src);
  const auto idx = tensor::Tensor<std::int64_t>::from_data(
      tensor::Shape{15, 4}, index);
  std::vector<std::int64_t> rows(15);
  for (auto& k : rows) k = static_cast<std::int64_t>(rng() % 6);
  rows[0] = rows[3] = 1;
  const auto row_idx =
      tensor::Tensor<std::int64_t>::from_data(tensor::Shape{15}, rows);
  const tensor::OpContext ctx = with_spec(spec);
  for (const tensor::OpContext& c : {ctx, ctx.with_pool(&pool)}) {
    for (const bool self_in : {true, false}) {
      for (const auto mode : {tensor::Reduce::kMean, tensor::Reduce::kSum}) {
        print.add(
            tensor::scatter_reduce(s, 0, idx, v, mode, self_in, c).data());
      }
    }
    print.add(tensor::index_add(s, 0, row_idx, v, T{1}, c).data());
    print.add(
        tensor::index_add(s, 0, row_idx, v, static_cast<T>(0.5), c).data());
  }
}

TEST(FoldGolden, ScatterReduceAndIndexAdd) {
  util::ThreadPool pool(3);
  Print print;
  for (const auto& spec : spec_grid()) {
    scatter_prints<double>(print, spec, pool);
    scatter_prints<float>(print, spec, pool);
  }
  EXPECT_EQ(print.hex(), "3072311e889b087b");
}

TEST(FoldGolden, ExactElementwiseAllreduce) {
  Print print;
  const auto all = datasets();
  collective::RankData ranks;
  for (std::size_t r = 0; r < 5; ++r) {
    ranks.push_back({all[0][r], all[0][10 + r], -0.0, all[4][r % 3],
                     all[6][r % 3], all[5][r % 3]});
  }
  collective::RankDataF ranks_f;
  for (const auto& r : ranks) ranks_f.push_back(to_float(r));
  for (const auto& spec : spec_grid()) {
    if (!exact_merge(spec)) {
      EXPECT_THROW(comm::exact_elementwise_allreduce(ranks, spec),
                   std::invalid_argument);
      EXPECT_THROW(comm::exact_elementwise_allreduce(ranks_f, spec),
                   std::invalid_argument);
      continue;
    }
    print.add(comm::exact_elementwise_allreduce(ranks, spec));
    print.add(comm::exact_elementwise_allreduce(ranks_f, spec));
    core::EvalContext ctx = with_spec(spec);
    // The schedule wires carry superaccumulator states only.
    for (const auto wire : {comm::WirePath::kRing, comm::WirePath::kButterfly}) {
      comm::SimProcessGroup pg(5, wire);
      const auto exchange = [&] {
        print.add(
            pg.allreduce(ranks, collective::Algorithm::kReproducible, ctx));
        print.add(
            pg.allreduce(ranks_f, collective::Algorithm::kReproducible, ctx));
      };
      if (spec.algorithm == fp::AlgorithmId::kSuperaccumulator) {
        exchange();
      } else {
        EXPECT_THROW(exchange(), std::invalid_argument);
      }
    }
  }
  EXPECT_EQ(print.hex(), "3ebdfc5c367c7622");
}

TEST(FoldGolden, ShardedBucketedAllreduce) {
  Print print;
  const auto wide = datasets().front();
  std::vector<comm::TensorList<double>> samples(7);
  std::size_t next = 0;
  for (auto& sample : samples) {
    sample = {std::vector<double>(5), std::vector<double>(3)};
    for (auto& t : sample) {
      for (double& x : t) x = wide[next++];
    }
  }
  samples[2][0][1] = kInf;
  samples[4][1][2] = -0.0;
  const std::vector<std::size_t> owner = {0, 2, 1, 1, 0, 2, 0};
  comm::SimProcessGroup pg(3);
  for (const auto& spec : spec_grid()) {
    const core::EvalContext ctx = with_spec(spec);
    print.add(comm::sharded_bucketed_allreduce(
                  pg, samples, owner, collective::Algorithm::kRing, ctx)
                  .front());
    const auto attempt = [&] {
      const auto out = comm::sharded_bucketed_allreduce(
          pg, samples, owner, collective::Algorithm::kReproducible, ctx,
          comm::BucketedConfig{.bucket_cap_elements = 4});
      for (const auto& t : out) print.add(t);
    };
    if (exact_merge(spec)) {
      attempt();
    } else {
      EXPECT_THROW(attempt(), std::invalid_argument);
    }
  }
  EXPECT_EQ(print.hex(), "89bf63f36cc99f41");
}

TEST(FoldGolden, DenseKernels) {
  util::ThreadPool pool(3);
  Print print;
  const auto wide = datasets().front();
  const auto matrix = [&](std::int64_t rows, std::int64_t cols,
                          std::size_t offset) {
    std::vector<float> v(static_cast<std::size_t>(rows * cols));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(wide[offset + i]);
    }
    v[2] = 0.0f;  // the sparsity skip
    v[3] = -0.0f;
    return dl::Matrix::from_data(tensor::Shape{rows, cols}, v);
  };
  const dl::Matrix a = matrix(5, 7, 0), b = matrix(7, 6, 100);
  const dl::Matrix at = matrix(5, 6, 200), bt = matrix(6, 7, 300);
  const std::vector<std::int64_t> ids = {3, 0, 3, 6};
  for (const auto& spec : spec_grid()) {
    const core::EvalContext ctx = with_spec(spec);
    for (const core::EvalContext& c : {ctx, ctx.with_pool(&pool)}) {
      print.add(dl::matmul(a, b, c).data());
      print.add(dl::matmul_split_k(a, b, 3, c).data());
      print.add(dl::matmul_transpose_a(a, at, c).data());
      print.add(dl::matmul_transpose_b(a, bt, c).data());
      print.add(dl::column_sums(b, c).data());
    }
    std::vector<float> row(6);
    dl::linear_row(a.data().subspan(7, 7), b, row, ctx);
    print.add(row);
    dl::mean_rows_into(b, ids, row, ctx);
    print.add(row);
  }
  EXPECT_EQ(print.hex(), "93e3106d55498aca");
}

}  // namespace
}  // namespace fpna
