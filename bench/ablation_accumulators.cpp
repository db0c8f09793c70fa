// Ablation (DESIGN.md SS4.2): accuracy, cost and order-stability of the
// summation algorithms - why the binned superaccumulator is the right
// reference ("gold") sum for determinism certification. For each
// algorithm of the catalogue (the table is driven by fp::kAlgorithms, so
// a new accumulator shows up here automatically): error vs the exact sum,
// wall-clock throughput, the spread of results over input shuffles
// (0 = reproducible), and the traits its catalogue row declares.
//
// Flags: --size --shuffles --seed --csv

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/table.hpp"
#include "fpna/util/timer.hpp"

using namespace fpna;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto size = static_cast<std::size_t>(cli.integer("size", 1000000));
  const auto shuffles = static_cast<std::size_t>(cli.integer("shuffles", 8));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");

  util::banner(std::cout,
               "Ablation: accumulator accuracy / cost / order-stability (" +
                   std::to_string(size) + " FP64 from N(0,1e6))");

  auto data = bench::normal_array(size, 0.0, 1e6, seed);
  const double exact =
      fp::reduce<double>(fp::AlgorithmId::kSuperaccumulator, data);

  util::Table table({"algorithm", "abs error vs exact", "ulps", "Melem/s",
                     "spread over shuffles (ulps)", "perm-invariant?"});
  for (const auto& algo : fp::kAlgorithms) {
    const auto sum = [&](std::span<const double> v) {
      return fp::reduce<double>(algo.id, v);
    };
    const double value = sum(data);
    const double err = std::fabs(value - exact);
    const auto ulps = fp::ulp_distance(value, exact);

    const auto stats =
        util::time_repeated([&] { (void)sum(data); }, 3, 1);
    const double melem_s =
        static_cast<double>(size) / stats.mean_seconds / 1e6;

    // Order-stability: max ulp distance between shuffled evaluations.
    util::Xoshiro256pp rng(seed + 1);
    auto copy = data;
    std::int64_t spread = 0;
    for (std::size_t s = 0; s < shuffles; ++s) {
      util::shuffle(copy, rng);
      spread = std::max(spread, fp::ulp_distance(sum(copy), value));
    }
    table.add_row({algo.name, util::sci(err, 3), std::to_string(ulps),
                   util::fixed(melem_s, 1), std::to_string(spread),
                   algo.traits.permutation_invariant ? "yes" : "no"});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout
        << "\nExpected: the superaccumulator and the binned sum combine "
           "(near-)exact rounding with exact order-invariance (0 spread), "
           "with the binned sum markedly cheaper; compensated "
           "sums are accurate but still order-sensitive at the last ulp; "
           "the serial sum is both least accurate and most "
           "order-sensitive.\n";
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
