// ISSUE 3 tentpole bench: deterministic pool-parallel dense kernels.
//
// Four tables:
//   1. thread sweep   - matmul family at the full shape, serial vs pool
//                       at 1/2/4/8 threads, under the --accumulator spec
//                       (full ReductionSpec grammar, e.g. kahan@bf16:f32).
//                       Speedup is free to move with the host; the "max
//                       ulps vs serial" column must read 0 on every row
//                       (bitwise identity is checked in-process and the
//                       bench exits non-zero if any pooled result
//                       deviates).
//   2. accumulator sweep - every fp::kAlgorithms row at a reduced
//                       shape, serial vs 4-thread pool. Same 0-ulp gate.
//   3. dtype sweep    - the dtype axis at the reduced shape: native f32,
//                       bf16-storage/f32-accumulate (tensor-core mixed
//                       precision), pure bf16, and f64 accumulate, each
//                       serial vs 4-thread pool (0-ulp gate) with the
//                       ulp distance from the native f32 kernel - the
//                       precision cost the paper's DL dtype setting pays.
//   4. split-k        - matmul_split_k re-associates the inner dimension:
//                       deterministic contexts are run-to-run stable,
//                       shuffled combine orders produce multiple distinct
//                       bit patterns on ill-conditioned inputs (the dense
//                       analogue of the paper's Table 1).
//
// Flags: --size (cube edge, default 512), --reps, --shuffles, --seed,
//        --accumulator=<spec> (thread-sweep reduction spec, default
//        serial), --csv, --json=<path> (machine-readable dump for the CI
//        determinism gate, see scripts/bench_json_diff.py)

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/fp/simd.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/table.hpp"
#include "fpna/util/thread_pool.hpp"
#include "fpna/util/timer.hpp"

using namespace fpna;
using dl::Matrix;

namespace {

std::string fingerprint(const Matrix& m) {
  obs::Fingerprint fp;
  fp.feed(std::span<const float>(m.data()));
  return obs::hex64(fp.value());
}

std::int64_t max_ulps(const Matrix& a, const Matrix& b) {
  std::int64_t worst = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, fp::ulp_distance32(a.flat(i), b.flat(i)));
  }
  return worst;
}

std::string shape_string(std::int64_t m, std::int64_t k, std::int64_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

struct Kernel {
  std::string name;
  std::string shape;
  std::function<Matrix(const core::EvalContext&)> run;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto size =
      std::max<std::int64_t>(8, cli.integer("size", 512));
  const auto reps = static_cast<std::size_t>(cli.integer("reps", 2));
  const auto shuffles = static_cast<std::size_t>(cli.integer("shuffles", 12));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const fp::ReductionSpec sweep_spec =
      fp::parse_reduction_spec(cli.text("accumulator", "serial"));
  const bool csv = cli.flag("csv");
  const std::string json = cli.text("json", "");
  // --trace / --provenance attach a recorder to the *correctness* passes
  // only; the timing lambdas keep recorder-free contexts so tracing never
  // skews the measured numbers.
  const bench::ObsOptions obs_opts(cli);
  obs::Recorder* const recorder = obs_opts.recorder();

  util::banner(std::cout, "Deterministic pool-parallel dense kernels (" +
                              std::to_string(size) + "^3, " +
                              fp::to_string(sweep_spec) + ")");

  util::Xoshiro256pp rng(seed);
  const auto x = tensor::random_uniform<float>(tensor::Shape{size, size},
                                               -1.0, 1.0, rng);
  const auto y = tensor::random_uniform<float>(tensor::Shape{size, size},
                                               -1.0, 1.0, rng);
  const std::int64_t rm = 2 * size, rk = std::max<std::int64_t>(8, size / 4);
  const auto rx = tensor::random_uniform<float>(tensor::Shape{rm, rk}, -1.0,
                                                1.0, rng);
  const auto ry = tensor::random_uniform<float>(tensor::Shape{rk, rk}, -1.0,
                                                1.0, rng);

  const std::vector<Kernel> kernels{
      {"matmul", shape_string(size, size, size),
       [&](const core::EvalContext& ctx) { return dl::matmul(x, y, ctx); }},
      {"matmul (rect)", shape_string(rm, rk, rk),
       [&](const core::EvalContext& ctx) { return dl::matmul(rx, ry, ctx); }},
      {"matmul_transpose_a", shape_string(size, size, size),
       [&](const core::EvalContext& ctx) {
         return dl::matmul_transpose_a(x, y, ctx);
       }},
      {"matmul_transpose_b", shape_string(size, size, size),
       [&](const core::EvalContext& ctx) {
         return dl::matmul_transpose_b(x, y, ctx);
       }},
      {"add", shape_string(size, size, 1),
       [&](const core::EvalContext& ctx) { return dl::add(x, y, ctx); }},
  };

  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const std::size_t t : thread_counts) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  }

  bool gate_ok = true;

  // ---- Table 1: thread sweep (--accumulator spec) -----------------------
  util::Table threads_table({"kernel", "shape", "accumulator", "threads",
                             "serial ms", "pool ms", "speedup",
                             "max ulps vs serial", "bits", "reproducible"});
  for (const auto& kernel : kernels) {
    core::EvalContext serial_ctx;
    serial_ctx.accumulator = sweep_spec;
    const Matrix serial = kernel.run(serial_ctx.with_recorder(recorder));
    const auto serial_stats = util::time_repeated(
        [&] { (void)kernel.run(serial_ctx); }, reps, 1);
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      const core::EvalContext ctx = serial_ctx.with_pool(pools[t].get());
      const Matrix pooled = kernel.run(ctx.with_recorder(recorder));
      const auto pooled_stats =
          util::time_repeated([&] { (void)kernel.run(ctx); }, reps, 1);
      const std::int64_t ulps = max_ulps(serial, pooled);
      if (!pooled.bitwise_equal(serial)) gate_ok = false;
      threads_table.add_row(
          {kernel.name, kernel.shape, fp::to_string(sweep_spec),
           std::to_string(thread_counts[t]),
           util::fixed(serial_stats.mean_ms(), 3),
           util::fixed(pooled_stats.mean_ms(), 3),
           util::fixed(serial_stats.mean_seconds /
                           std::max(1e-12, pooled_stats.mean_seconds),
                       2),
           std::to_string(ulps), fingerprint(pooled), "yes"});
    }
  }

  // ---- Table 2: accumulator sweep (4-thread pool) -----------------------
  const std::int64_t asz = std::max<std::int64_t>(8, size / 4);
  const auto ax = tensor::random_uniform<float>(tensor::Shape{asz, asz},
                                                -1e4, 1e4, rng);
  const auto ay = tensor::random_uniform<float>(tensor::Shape{asz, asz},
                                                -1e4, 1e4, rng);
  util::ThreadPool& pool4 = *pools[2];
  util::Table acc_table({"accumulator", "shape", "serial ms", "pool ms",
                         "max ulps vs serial", "bits", "reproducible"});
  for (const auto& entry : fp::kAlgorithms) {
    core::EvalContext serial_ctx;
    serial_ctx.accumulator = entry.id;
    const core::EvalContext pool_ctx = serial_ctx.with_pool(&pool4);
    const Matrix serial = dl::matmul(ax, ay, serial_ctx);
    const Matrix pooled = dl::matmul(ax, ay, pool_ctx);
    const auto serial_stats = util::time_repeated(
        [&] { (void)dl::matmul(ax, ay, serial_ctx); }, 1, 0);
    const auto pooled_stats = util::time_repeated(
        [&] { (void)dl::matmul(ax, ay, pool_ctx); }, 1, 0);
    if (!pooled.bitwise_equal(serial)) gate_ok = false;
    acc_table.add_row({entry.name, shape_string(asz, asz, asz),
                       util::fixed(serial_stats.mean_ms(), 3),
                       util::fixed(pooled_stats.mean_ms(), 3),
                       std::to_string(max_ulps(serial, pooled)),
                       fingerprint(pooled), "yes"});
  }

  // ---- Table 2b: lanes sweep (@simd<L>, 4-thread pool) ------------------
  // The SIMD lane axis composes with the pool axis: a lane-blocked spec
  // names ONE re-association, so the pooled kernel must still match the
  // serial kernel bit for bit (same 0-ulp gate as the other sweeps), for
  // the intrinsics dispatch and the forced scalar lane-emulation alike.
  util::Table simd_table({"spec", "shape", "serial ms", "pool ms",
                          "max ulps vs serial", "emul agrees", "bits",
                          "reproducible"});
  for (const char* spec_text :
       {"serial", "serial@simd4", "serial@simd8", "kahan", "kahan@simd4",
        "kahan@simd8"}) {
    core::EvalContext serial_ctx;
    serial_ctx.accumulator = fp::parse_reduction_spec(spec_text);
    const core::EvalContext pool_ctx = serial_ctx.with_pool(&pool4);
    const Matrix serial = dl::matmul(ax, ay, serial_ctx);
    const Matrix pooled = dl::matmul(ax, ay, pool_ctx);
    const auto serial_stats = util::time_repeated(
        [&] { (void)dl::matmul(ax, ay, serial_ctx); }, 1, 0);
    const auto pooled_stats = util::time_repeated(
        [&] { (void)dl::matmul(ax, ay, pool_ctx); }, 1, 0);
    fp::set_simd_force_scalar(true);
    const Matrix emulated = dl::matmul(ax, ay, serial_ctx);
    fp::set_simd_force_scalar(std::nullopt);
    const bool emul_agrees = emulated.bitwise_equal(serial);
    if (!pooled.bitwise_equal(serial) || !emul_agrees) gate_ok = false;
    simd_table.add_row({spec_text, shape_string(asz, asz, asz),
                        util::fixed(serial_stats.mean_ms(), 3),
                        util::fixed(pooled_stats.mean_ms(), 3),
                        std::to_string(max_ulps(serial, pooled)),
                        emul_agrees ? "yes" : "NO", fingerprint(serial),
                        "yes"});
  }

  // ---- Table 3: dtype sweep (storage x accumulate, 4-thread pool) -------
  // The dtype axis of the ReductionSpec at the reduced shape. "max ulps
  // vs f32" measures the precision cost of the storage/accumulate choice
  // against the native f32 kernel (deterministic, so it gates run-to-run
  // alongside the bits); "pool ulps" is the serial-vs-pool identity gate,
  // which must hold for every dtype combination.
  const std::vector<fp::ReductionSpec> dtype_specs{
      fp::parse_reduction_spec("serial"),
      fp::parse_reduction_spec("serial@bf16:f32"),
      fp::parse_reduction_spec("serial@bf16:bf16"),
      fp::parse_reduction_spec("serial@f32:f64"),
      fp::parse_reduction_spec("kahan@bf16:f32"),
      fp::parse_reduction_spec("superaccumulator@bf16:f32"),
  };
  const core::EvalContext f32_ctx;
  const Matrix f32_reference = dl::matmul(ax, ay, f32_ctx);
  util::Table dtype_table({"spec", "shape", "serial ms", "pool ms",
                           "max ulps vs f32", "pool ulps", "bits",
                           "reproducible"});
  for (const fp::ReductionSpec& spec : dtype_specs) {
    core::EvalContext serial_ctx;
    serial_ctx.accumulator = spec;
    const core::EvalContext pool_ctx = serial_ctx.with_pool(&pool4);
    const Matrix serial = dl::matmul(ax, ay, serial_ctx);
    const Matrix pooled = dl::matmul(ax, ay, pool_ctx);
    const auto serial_stats = util::time_repeated(
        [&] { (void)dl::matmul(ax, ay, serial_ctx); }, reps, 1);
    const auto pooled_stats = util::time_repeated(
        [&] { (void)dl::matmul(ax, ay, pool_ctx); }, reps, 1);
    if (!pooled.bitwise_equal(serial)) gate_ok = false;
    dtype_table.add_row({fp::to_string(spec), shape_string(asz, asz, asz),
                         util::fixed(serial_stats.mean_ms(), 3),
                         util::fixed(pooled_stats.mean_ms(), 3),
                         std::to_string(max_ulps(f32_reference, serial)),
                         std::to_string(max_ulps(serial, pooled)),
                         fingerprint(serial), "yes"});
  }

  // ---- Table 4: split-k re-association ----------------------------------
  const std::int64_t ssz = std::max<std::int64_t>(16, size / 4);
  const auto ill_a = tensor::random_uniform<float>(tensor::Shape{ssz, ssz},
                                                   -1e8, 1e8, rng);
  const auto ill_b = tensor::random_uniform<float>(tensor::Shape{ssz, ssz},
                                                   -1e8, 1e8, rng);
  util::Table splitk_table({"splits", "combine order", "shuffles",
                            "distinct bit patterns", "max ulps vs chunk order",
                            "bits", "reproducible"});
  for (const std::size_t splits : {2u, 8u, 32u}) {
    core::EvalContext det_ctx;
    det_ctx.pool = &pool4;
    const Matrix det_a = dl::matmul_split_k(ill_a, ill_b, splits,
                                            det_ctx.with_recorder(recorder));
    const Matrix det_b = dl::matmul_split_k(ill_a, ill_b, splits, det_ctx);
    if (!det_a.bitwise_equal(det_b)) gate_ok = false;
    splitk_table.add_row({std::to_string(splits), "chunk order", "2", "1", "0",
                          fingerprint(det_a), "yes"});

    std::set<std::string> patterns;
    std::int64_t worst = 0;
    std::string first_bits;
    for (std::size_t r = 0; r < shuffles; ++r) {
      core::RunContext run(seed + 11, r);
      core::EvalContext nd_ctx = core::EvalContext::nondeterministic_on(run);
      nd_ctx.pool = &pool4;
      nd_ctx.recorder = recorder;  // seeded shuffles: reproducible traces
      const Matrix shuffled =
          dl::matmul_split_k(ill_a, ill_b, splits, nd_ctx);
      const std::string bits = fingerprint(shuffled);
      if (first_bits.empty()) first_bits = bits;
      patterns.insert(bits);
      worst = std::max(worst, max_ulps(det_a, shuffled));
    }
    splitk_table.add_row({std::to_string(splits), "shuffled",
                          std::to_string(shuffles),
                          std::to_string(patterns.size()),
                          std::to_string(worst), first_bits, "no"});
  }

  const util::Table metrics_table = obs_opts.metrics_table();

  if (csv) {
    threads_table.print_csv(std::cout);
    acc_table.print_csv(std::cout);
    simd_table.print_csv(std::cout);
    dtype_table.print_csv(std::cout);
    splitk_table.print_csv(std::cout);
    if (obs_opts.enabled()) metrics_table.print_csv(std::cout);
  } else {
    util::banner(std::cout, "Thread sweep (row-blocked pool, " +
                                fp::to_string(sweep_spec) + ")");
    threads_table.print(std::cout);
    util::banner(std::cout, "Accumulator sweep (4-thread pool)");
    acc_table.print(std::cout);
    util::banner(std::cout, "SIMD lanes sweep (@simd<L>, 4-thread pool)");
    simd_table.print(std::cout);
    util::banner(std::cout, "Dtype sweep (storage x accumulate, 4-thread "
                            "pool)");
    dtype_table.print(std::cout);
    util::banner(std::cout, "split-k re-association (ill-conditioned)");
    splitk_table.print(std::cout);
    std::cout << "\nReading: every reproducible row must show 0 pool ulps "
                 "and a run-to-run stable bits column - the pooled kernels "
                 "are bitwise identical to serial by construction, for "
                 "every registry accumulator, dtype combination and thread "
                 "count. The dtype rows price the storage/accumulate choice "
                 "in ulps against the native f32 kernel (bf16:f32 pays "
                 "quantization only; bf16:bf16 also accumulates in bf16 "
                 "and drifts much further). Only the deliberately "
                 "re-associating split-k shuffle rows move their bits.\n";
    if (obs_opts.enabled()) {
      util::banner(std::cout, "Recorder metrics (traced correctness passes)");
      metrics_table.print(std::cout);
    }
  }

  if (!json.empty()) {
    std::vector<bench::NamedTable> json_tables{{"threads", &threads_table},
                                               {"accumulators", &acc_table},
                                               {"simd_lanes", &simd_table},
                                               {"dtypes", &dtype_table},
                                               {"split_k", &splitk_table}};
    if (obs_opts.enabled()) {
      json_tables.push_back({"metrics", &metrics_table});
    }
    bench::write_json(json, "microbench_matmul", json_tables);
  }
  obs_opts.finish();

  if (!gate_ok) {
    std::cerr << "FAIL: a pooled result deviated from serial (or a "
                 "deterministic split-k was unstable)\n";
    return 1;
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
