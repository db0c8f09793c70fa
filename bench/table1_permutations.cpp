// Reproduces Table 1: effects of random permutations on serial FP64 sums.
// For each array size n, x_i ~ N(0,1), the harness reports S_nd - S_d and
// Vs for shuffled re-summations (two rows per size, like the paper).
//
// Flags: --seed, --reps (shuffles per size), --sizes (comma list),
//        --distribution {normal|uniform|exponential},
//        --algorithm (any fp::kAlgorithms name; default serial -
//        e.g. --algorithm=kahan shows how compensation shrinks the
//        permutation effect, --algorithm=superaccumulator kills it), --csv

#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/table.hpp"

namespace {

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    sizes.push_back(static_cast<std::size_t>(std::strtod(token.c_str(), nullptr)));
  }
  return sizes;
}

std::vector<double> draw(const std::string& distribution, std::size_t n,
                         std::uint64_t seed) {
  if (distribution == "uniform") {
    return fpna::bench::uniform_array(n, 0.0, 10.0, seed);
  }
  if (distribution == "exponential") {
    fpna::util::Xoshiro256pp rng(seed);
    const fpna::util::Exponential dist(1.0);  // Boltzmann-like
    std::vector<double> v(n);
    for (auto& x : v) x = dist(rng);
    return v;
  }
  return fpna::bench::normal_array(n, 0.0, 1.0, seed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpna;
  const util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const auto reps = static_cast<std::size_t>(cli.integer("reps", 2));
  const std::string distribution = cli.text("distribution", "normal");
  const auto sizes =
      parse_sizes(cli.text("sizes", "100,1000,10000,100000,1000000"));
  const auto& algo = fp::algorithm_named(cli.text("algorithm", "serial"));
  const bool csv = cli.flag("csv");

  util::banner(std::cout,
               "Table 1: effects of permutations on sums of floating-point "
               "numbers (x ~ " + distribution + ", " + algo.name + ")");

  util::Table table({"size", "Snd - Sd", "Vs"});
  util::Xoshiro256pp shuffle_rng(seed ^ 0x5eedULL);
  for (const std::size_t n : sizes) {
    auto values = draw(distribution, n, seed + n);
    const double s_d = fp::reduce<double>(algo.id, values);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      util::shuffle(values, shuffle_rng);
      const double s_nd = fp::reduce<double>(algo.id, values);
      table.add_row({std::to_string(n), util::sci(s_nd - s_d),
                     util::sci(core::vs(s_nd, s_d))});
    }
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\nPaper reference (Table 1): |Snd-Sd| grows from ~2e-15 at "
                 "n=1e2 to ~4e-13 at n=1e6; Vs stays at the 1e-16..1e-15 "
                 "relative scale.\n";
  }
  return fpna::bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
