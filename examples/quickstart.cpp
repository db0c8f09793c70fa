// Quickstart: the 5-minute tour of the fpna toolkit.
//
//  1. See floating-point non-associativity with your own eyes.
//  2. Measure run-to-run variability of a non-deterministic kernel with
//     the paper's metrics (Vs / Vermv / Vc).
//  3. Certify a deterministic kernel.
//  4. Fix the problem with a reproducible (order-invariant) sum.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>
#include <vector>

#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/reduce/gpu_sum.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/table.hpp"

int main() {
  using namespace fpna;

  // ------------------------------------------------------------------
  // 1. Non-associativity: the same numbers, two orders, two answers.
  // ------------------------------------------------------------------
  std::cout << "== 1. Floating-point addition is not associative ==\n";
  util::Xoshiro256pp rng(42);
  util::Normal dist(0.0, 1.0);
  std::vector<double> values(100000);
  for (auto& x : values) x = dist(rng);

  // Algorithms are picked by name through the spec grammar - the same
  // lookup every bench and --algorithm flag uses.
  const fp::ReductionSpec serial = fp::parse_reduction_spec("serial");
  const double in_order = fp::reduce<double>(serial, values);
  auto shuffled = values;
  util::shuffle(shuffled, rng);
  const double permuted = fp::reduce<double>(serial, shuffled);
  std::cout << "  serial sum:          " << util::sci(in_order) << "\n"
            << "  after a permutation: " << util::sci(permuted) << "\n"
            << "  difference:          " << util::sci(permuted - in_order)
            << "\n"
            << "  Vs:                  " << util::sci(core::vs(permuted, in_order), 3)
            << "\n\n";

  // ------------------------------------------------------------------
  // 2. Measure a non-deterministic kernel (simulated GPU atomic sum).
  // ------------------------------------------------------------------
  std::cout << "== 2. Run-to-run variability of an atomic reduction ==\n";
  sim::SimDevice device(sim::DeviceProfile::v100());
  const auto deterministic = [&](core::RunContext& ctx) {
    return reduce::gpu_sum(device, values, sim::SumMethod::kSPTR, ctx).value;
  };
  const auto nondeterministic = [&](core::RunContext& ctx) {
    return reduce::gpu_sum(device, values, sim::SumMethod::kSPA, ctx).value;
  };
  const auto report = core::measure_scalar_variability(
      deterministic, nondeterministic, /*runs=*/200, /*master_seed=*/1);
  std::cout << "  200 runs of the SPA kernel vs the SPTR reference:\n"
            << "  bitwise reproducible runs: "
            << report.reproducible_fraction * 100 << "%\n"
            << "  mean(Vs) = " << util::sci(report.vs_summary.mean, 3)
            << ", std(Vs) = " << util::sci(report.vs_summary.stddev, 3)
            << "\n\n";

  // ------------------------------------------------------------------
  // 3. Certify the deterministic kernel.
  // ------------------------------------------------------------------
  std::cout << "== 3. Determinism certification ==\n";
  const auto cert = core::certify_deterministic_scalar(deterministic, 50, 2);
  std::cout << "  SPTR certified deterministic over 50 scheduler seeds: "
            << (cert.deterministic ? "yes" : "NO") << "\n\n";

  // ------------------------------------------------------------------
  // 4. The reproducible fix: an order-invariant sum.
  // ------------------------------------------------------------------
  std::cout << "== 4. Reproducible summation ==\n";
  const fp::ReductionSpec gold_spec =
      fp::parse_reduction_spec("superaccumulator");
  const double gold = fp::reduce<double>(gold_spec, values);
  const double gold_shuffled = fp::reduce<double>(gold_spec, shuffled);
  std::cout << "  superaccumulator(values):   " << util::sci(gold) << "\n"
            << "  superaccumulator(shuffled): " << util::sci(gold_shuffled)
            << "\n"
            << "  bitwise identical: "
            << (fp::bitwise_equal(gold, gold_shuffled) ? "yes" : "NO")
            << "\n\n";

  // ------------------------------------------------------------------
  // 5. The catalogue: every algorithm, one constant table.
  // ------------------------------------------------------------------
  std::cout << "== 5. Registered accumulation algorithms ==\n";
  for (const auto& entry : fp::kAlgorithms) {
    std::cout << "  " << entry.name
              << (entry.traits.permutation_invariant ? " [reproducible]" : "")
              << " - " << entry.description << "\n";
  }
  return 0;
}
