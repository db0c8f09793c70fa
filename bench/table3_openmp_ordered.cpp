// Reproduces Table 3: OpenMP-style normal vs ordered CPU reductions over
// 10 trials. The ordered reduction retires adds in iteration order and is
// bitwise stable; the normal reduction combines thread partials in
// completion order and wobbles in the last digits.
//
// Catalogue-driven: the reduction's inner accumulator is any
// fp::kAlgorithms name (--accumulator=<name>, default serial reproduces
// the paper's table), and a second table runs the normal (completion-
// order) reduction under *every* accumulator of the catalogue - showing
// that the exact-merge algorithms make even the unordered reduction
// bitwise stable, the paper's fix at the algorithm level instead of the
// `ordered` clause's serialization.
//
// Flags: --seed, --trials, --size, --threads, --accumulator, --csv

#include <iostream>

#include "bench_common.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/util/table.hpp"

int main(int argc, char** argv) {
  using namespace fpna;
  const util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const auto trials = static_cast<std::size_t>(cli.integer("trials", 10));
  const auto size = static_cast<std::size_t>(cli.integer("size", 1000000));
  const auto threads = static_cast<std::size_t>(cli.integer("threads", 8));
  const fp::ReductionSpec accumulator =
      fp::parse_reduction_spec(cli.text("accumulator", "serial"));
  const bool csv = cli.flag("csv");

  util::banner(std::cout,
               "Table 3: normal vs ordered reductions (OpenMP-style), " +
                   std::to_string(trials) + " trials, inner accumulator: " +
                   fp::to_string(accumulator));

  // Values chosen so the total lands near the paper's ~2.35e-07 and the
  // last-digit wobble is visible at 17 significant digits.
  const auto data = bench::uniform_array(size, 0.0, 4.7e-13, seed);

  // "Normal": static chunks combined in a completion order drawn from the
  // run. "Ordered": adds retired in iteration order, i.e. the one-shot
  // reduction (for serial this is the paper's `ordered` clause).
  const auto normal_sum = [&](core::RunContext& run,
                              const fp::ReductionSpec& spec) {
    const auto ctx =
        core::EvalContext::nondeterministic_on(run).with_accumulator(spec);
    return reduce::cpu_sum(data, ctx, threads);
  };
  const auto ordered_sum = [&](const fp::ReductionSpec& spec) {
    return fp::reduce(spec, std::span<const double>(data));
  };

  util::Table table({"Trial", "Normal Reduction", "Ordered Reduction"});
  bool normal_varied = false;
  double first_normal = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    core::RunContext run(seed, trial);
    const double normal = normal_sum(run, accumulator);
    const double ordered = ordered_sum(accumulator);
    if (trial == 0) {
      first_normal = normal;
    } else if (normal != first_normal) {
      normal_varied = true;
    }
    table.add_row({std::to_string(trial + 1), util::sci(normal, 16),
                   util::sci(ordered, 16)});
  }

  // Catalogue sweep: certification of the completion-order reduction per
  // accumulator, and how far it lands from that accumulator's
  // ordered value. Certification uses at least 20 completion orders: the
  // near-uniform data rounds many reorderings identically, so a handful
  // of draws can miss the wobble.
  const std::size_t cert_runs = std::max<std::size_t>(trials, 20);
  util::Table sweep({"accumulator", "normal deterministic (measured)",
                     "|normal - ordered| (ulps)", "exact merge (declared)"});
  for (const auto& entry : fp::kAlgorithms) {
    const auto kernel = [&](core::RunContext& run) {
      return normal_sum(run, entry.id);
    };
    const auto cert =
        core::certify_deterministic_scalar(kernel, cert_runs, seed + 1);
    core::RunContext probe(seed + 2, 0);
    const auto ulps = fp::ulp_distance(normal_sum(probe, entry.id),
                                       ordered_sum(entry.id));
    sweep.add_row({entry.name, cert.deterministic ? "Yes" : "No",
                   std::to_string(ulps),
                   entry.traits.exact_merge ? "yes" : "no"});
  }

  if (csv) {
    table.print_csv(std::cout);
    sweep.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\nMeasured: normal reduction "
              << (normal_varied ? "varied" : "did not vary")
              << " across trials; ordered reduction is bitwise constant.\n"
              << "Paper reference (Table 3): normal varies in the last ~2 "
                 "digits; ordered identical in every trial.\n\n";
    sweep.print(std::cout);
    std::cout << "\nReading: with an exact-merge accumulator "
                 "(superaccumulator, binned) the completion-order reduction "
                 "is already bitwise stable - no ordered clause needed.\n";
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
