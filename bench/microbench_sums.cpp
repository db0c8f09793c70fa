// ISSUE 6 tentpole bench: SIMD lane-blocked summation. A plain-main
// harness (was google-benchmark; rewritten so the CI determinism gate
// can diff its --json dump like microbench_matmul's).
//
// Three tables:
//   1. lanes sweep    - the streaming accumulators with a SIMD fast path
//                       (serial, kahan, neumaier, klein, pairwise) at
//                       lanes 1/4/8/16. Each row times the intrinsics
//                       dispatch AND the forced scalar lane-emulation
//                       (FPNA_FORCE_SCALAR_SIMD's programmatic twin) and
//                       fingerprints both results: the two bits columns
//                       must be IDENTICAL - one reference re-association
//                       per (algorithm, lanes), certified to the bit on
//                       every host - and the bench exits non-zero if any
//                       row disagrees. Speedup vs the lanes=1 base is
//                       free to move with the host (the acceptance bar
//                       on an AVX2 machine: >= 2x for serial@simd4 and
//                       kahan@simd4 at n >= 1M).
//   2. registry sweep - every fp::kAlgorithms row at lanes 1 and 8
//                       through the @simd<L> spec grammar. Entries with
//                       no intrinsics kernel (superaccumulator, exact
//                       merge, ...) run the lane-emulation - every name
//                       works on every host, bits stable either way.
//   3. cpu_sum strategies - the unified reduce::cpu_sum entry point:
//                       chunked-deterministic (scalar and @simd8 specs),
//                       reproducible, and the opt-in unordered baseline.
//
// Flags: --size (elements, default 1<<20), --reps, --seed, --csv,
//        --json=<path> (see scripts/bench_json_diff.py)

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fpna/core/eval_context.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/simd.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/util/table.hpp"
#include "fpna/util/timer.hpp"

using namespace fpna;

namespace {

std::string bits_of(double x) {
  obs::Fingerprint fp;
  fp.feed(x);
  return obs::hex64(fp.value());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(
      std::max<std::int64_t>(64, cli.integer("size", std::int64_t{1} << 20)));
  const auto reps = static_cast<std::size_t>(cli.integer("reps", 3));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");
  const std::string json = cli.text("json", "");

  const std::vector<double> data = bench::uniform_array(n, 0.0, 10.0, seed);
  const std::span<const double> values(data);

  util::banner(std::cout,
               "SIMD lane-blocked summation (n = " + std::to_string(n) +
                   ", dispatch: " + fp::simd_active_isa() + ")");

  bool gate_ok = true;

  // ---- Table 1: lanes sweep (intrinsics vs scalar lane-emulation) -------
  const std::vector<std::string> lane_algorithms{"serial", "kahan", "neumaier",
                                                 "klein", "pairwise"};
  util::Table lanes_table({"algorithm", "lanes", "n", "simd ms", "emul ms",
                           "speedup vs scalar", "simd bits", "emul bits",
                           "lane paths agree", "reproducible"});
  for (const std::string& name : lane_algorithms) {
    double base_seconds = 0.0;
    for (const std::size_t lanes : fp::kSimdLaneCounts) {
      const std::string spec_text =
          lanes == 1 ? name : name + "@simd" + std::to_string(lanes);
      const fp::ReductionSpec spec = fp::parse_reduction_spec(spec_text);

      fp::set_simd_force_scalar(false);  // intrinsics when the host has them
      const double simd_value = fp::reduce(spec, values);
      const auto simd_stats = util::time_repeated(
          [&] { (void)fp::reduce(spec, values); }, reps, 1);

      fp::set_simd_force_scalar(true);  // the portable lane-emulation
      const double emul_value = fp::reduce(spec, values);
      const auto emul_stats = util::time_repeated(
          [&] { (void)fp::reduce(spec, values); }, reps, 1);
      fp::set_simd_force_scalar(std::nullopt);

      if (lanes == 1) base_seconds = simd_stats.mean_seconds;
      const bool agree =
          std::bit_cast<std::uint64_t>(simd_value) ==
          std::bit_cast<std::uint64_t>(emul_value);
      if (!agree) gate_ok = false;
      lanes_table.add_row(
          {spec_text, std::to_string(lanes), std::to_string(n),
           util::fixed(simd_stats.mean_ms(), 3),
           util::fixed(emul_stats.mean_ms(), 3),
           util::fixed(base_seconds / std::max(1e-12, simd_stats.mean_seconds),
                       2),
           bits_of(simd_value), bits_of(emul_value), agree ? "yes" : "NO",
           "yes"});
    }
  }

  // ---- Table 2: registry sweep through the @simd<L> grammar -------------
  util::Table registry_table(
      {"spec", "lanes", "ms", "bits", "reproducible"});
  for (const auto& entry : fp::kAlgorithms) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
      const std::string spec_text =
          lanes == 1 ? std::string(entry.name)
                     : entry.name + ("@simd" + std::to_string(lanes));
      const fp::ReductionSpec spec = fp::parse_reduction_spec(spec_text);
      const double value = fp::reduce(spec, values);
      const auto stats = util::time_repeated(
          [&] { (void)fp::reduce(spec, values); }, 1, 0);
      registry_table.add_row({spec_text, std::to_string(lanes),
                              util::fixed(stats.mean_ms(), 3), bits_of(value),
                              "yes"});
    }
  }

  // ---- Table 3: cpu_sum strategies --------------------------------------
  util::Table cpu_table({"strategy", "threads", "ms", "bits", "reproducible"});
  const auto cpu_row = [&](const std::string& label,
                           const core::EvalContext& ctx, bool reproducible) {
    const double value = reduce::cpu_sum(values, ctx, 8);
    const auto stats = util::time_repeated(
        [&] { (void)reduce::cpu_sum(values, ctx, 8); }, reps, 0);
    cpu_table.add_row({label, "8", util::fixed(stats.mean_ms(), 3),
                       bits_of(value), reproducible ? "yes" : "no"});
  };
  cpu_row("chunked deterministic (serial)", core::EvalContext{}, true);
  {
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec("serial@simd8");
    cpu_row("chunked deterministic (serial@simd8)", ctx, true);
  }
  {
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec("kahan@simd8");
    cpu_row("chunked deterministic (kahan@simd8)", ctx, true);
  }
  {
    core::EvalContext ctx;
    ctx.accumulator = fp::AlgorithmId::kSuperaccumulator;
    cpu_row("reproducible (superaccumulator)", ctx, true);
  }
  {
    core::RunContext run(seed + 1, 0);
    cpu_row("unordered (opt-in nondeterminism)",
            core::EvalContext::nondeterministic_on(run), false);
  }

  if (csv) {
    lanes_table.print_csv(std::cout);
    registry_table.print_csv(std::cout);
    cpu_table.print_csv(std::cout);
  } else {
    util::banner(std::cout, "Lanes sweep (intrinsics vs lane-emulation)");
    lanes_table.print(std::cout);
    util::banner(std::cout, "Registry sweep (@simd grammar, every entry)");
    registry_table.print(std::cout);
    util::banner(std::cout, "cpu_sum strategies (8 chunks)");
    cpu_table.print(std::cout);
    std::cout << "\nReading: each @simd<L> name is ONE re-association - the "
                 "intrinsics dispatch and the portable lane-emulation must "
                 "produce identical bits (the two bits columns match and "
                 "the gate fails otherwise), so kahan@simd8 means the same "
                 "sum on every host, vectorised where the CPU allows. "
                 "Speedup vs the scalar base is the price table: lane "
                 "blocking pays nothing in determinism.\n";
  }

  if (!json.empty()) {
    bench::write_json(json, "microbench_sums",
                      {{"lanes", &lanes_table},
                       {"registry", &registry_table},
                       {"cpu_sum", &cpu_table}});
  }

  if (!gate_ok) {
    std::cerr << "FAIL: an intrinsics path deviated from its scalar "
                 "lane-emulation\n";
    return 1;
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
