// Reproduces Table 2: properties of the six parallel-sum implementations.
// Unlike the paper's static table, the "deterministic" column here is
// *measured*: each kernel is certified over many scheduler seeds.
//
// Catalogue-driven: the inner accumulation algorithm of every kernel is
// any fp::kAlgorithms name (--accumulator=<name>, default serial, typos
// print the catalogue), and a second table certifies one deterministic
// (SPTR) and one non-deterministic (SPA) kernel under *every* accumulator
// of the catalogue - so a new algorithm appears here with zero bench
// changes.
//
// Flags: --seed, --runs (certification runs), --size, --accumulator, --csv

#include <iostream>

#include "bench_common.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/reduce/gpu_sum.hpp"
#include "fpna/util/table.hpp"

int main(int argc, char** argv) {
  using namespace fpna;
  const util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const auto runs = static_cast<std::size_t>(cli.integer("runs", 50));
  const auto size = static_cast<std::size_t>(cli.integer("size", 65536));
  const fp::ReductionSpec accumulator =
      fp::parse_reduction_spec(cli.text("accumulator", "serial"));
  const bool csv = cli.flag("csv");

  util::banner(std::cout,
               "Table 2: implementations of the parallel sum (deterministic "
               "column certified over " + std::to_string(runs) +
               " seeds, inner accumulator: " + fp::to_string(accumulator) + ")");

  const auto data = bench::uniform_array(size, 0.0, 10.0, seed);
  sim::SimDevice device(sim::DeviceProfile::v100());

  const auto certify = [&](sim::SumMethod method,
                           const fp::ReductionSpec& spec) {
    const auto kernel = [&](core::RunContext& run) {
      const auto ctx =
          core::EvalContext::nondeterministic_on(run).with_accumulator(spec);
      return reduce::gpu_sum(device, data, method, ctx, 256).value;
    };
    return core::certify_deterministic_scalar(kernel, runs, seed);
  };

  util::Table table({"Method", "deterministic (measured)", "# of kernels",
                     "synchronization methods"});
  for (const auto method :
       {sim::SumMethod::kCU, sim::SumMethod::kSPTR, sim::SumMethod::kSPRG,
        sim::SumMethod::kTPRC, sim::SumMethod::kSPA, sim::SumMethod::kAO}) {
    const auto cert = certify(method, accumulator);
    table.add_row({sim::to_string(method), cert.deterministic ? "Yes" : "No",
                   method == sim::SumMethod::kCU
                       ? "-"
                       : std::to_string(sim::kernel_count(method)),
                   sim::synchronization_method(method)});
  }

  // Catalogue sweep: the kernel's determinism class under each inner
  // accumulator. SPTR's fixed tree stays deterministic for all of
  // them; SPA's atomic combine of block partials stays racy unless the
  // partial exchange itself is permutation-invariant.
  util::Table sweep({"accumulator", "SPTR deterministic", "SPA deterministic",
                     "perm-invariant (declared)"});
  for (const auto& entry : fp::kAlgorithms) {
    sweep.add_row(
        {entry.name,
         certify(sim::SumMethod::kSPTR, entry.id).deterministic ? "Yes" : "No",
         certify(sim::SumMethod::kSPA, entry.id).deterministic ? "Yes" : "No",
         entry.traits.permutation_invariant ? "yes" : "no"});
  }

  if (csv) {
    table.print_csv(std::cout);
    sweep.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\nPaper reference (Table 2): CU/SPTR/SPRG/TPRC "
                 "deterministic; SPA/AO not.\n\n";
    sweep.print(std::cout);
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
