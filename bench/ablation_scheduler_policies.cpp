// Ablation (DESIGN.md SS4.1): how the scheduler policy shapes the
// variability distribution. The same SPA-style reduction is run under
// each commit-order policy; the resulting Vs distributions differ in
// spread and normality, mirroring how the paper's measured PDFs differ
// between GPU families ("means and standard deviations of Vs are
// different between the GPU types") and between SPA and AO.
//
// Flags: --size --runs --seed --csv

#include <iostream>

#include "bench_common.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/reduce/block_sum.hpp"
#include "fpna/sim/scheduler.hpp"
#include "fpna/stats/histogram.hpp"
#include "fpna/stats/normality.hpp"
#include "fpna/util/table.hpp"

using namespace fpna;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto size = static_cast<std::size_t>(cli.integer("size", 65536));
  const auto runs = static_cast<std::size_t>(cli.integer("runs", 1500));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");

  util::banner(std::cout,
               "Ablation: scheduler policy vs variability distribution "
               "(SPA-style sum of " + std::to_string(size) + " FP64, " +
                   std::to_string(runs) + " runs per policy)");

  const auto data = bench::uniform_array(size, 0.0, 10.0, seed);
  constexpr std::size_t kNt = 64;
  const std::size_t nb = (size + kNt - 1) / kNt;
  const auto partials = reduce::all_block_partials(data, kNt, nb);
  const double reference = reduce::tree_sum(partials);

  struct PolicyCase {
    const char* name;
    sim::SchedulerPolicy policy;
    std::size_t wave;
  };
  const std::vector<PolicyCase> cases{
      {"uniform shuffle (idealised)", sim::SchedulerPolicy::kUniformShuffle, 0},
      {"wave shuffle, wave=64", sim::SchedulerPolicy::kWaveShuffle, 64},
      {"wave shuffle, wave=640 (V100-like)", sim::SchedulerPolicy::kWaveShuffle,
       640},
      {"contention mixture (AO-like)",
       sim::SchedulerPolicy::kContentionMixture, 0},
  };

  util::Table table({"policy", "std(Vs) x1e-16", "excess kurtosis",
                     "KL vs normal", "JB stat"});
  for (const auto& c : cases) {
    sim::DeviceProfile profile = sim::DeviceProfile::v100();
    if (c.wave != 0) profile.max_concurrent_blocks = c.wave;
    const sim::Scheduler scheduler(profile);

    std::vector<double> samples;
    samples.reserve(runs);
    for (std::uint64_t r = 0; r < runs; ++r) {
      core::RunContext ctx(seed + 1, r);
      auto rng = ctx.fork(3);
      const auto order = scheduler.commit_order(nb, c.policy, rng);
      double sum = 0.0;
      for (const std::size_t b : order) sum += partials[b];
      samples.push_back(core::vs(sum, reference));
    }
    const auto summary = stats::summarize(samples);
    const auto hist = stats::Histogram::from_samples(samples, 50);
    const double kl =
        stats::kl_divergence_vs_normal(hist, summary.mean, summary.stddev);
    const auto jb = stats::jarque_bera(samples);
    table.add_row({c.name, util::fixed(summary.stddev / 1e-16, 3),
                   util::fixed(summary.excess_kurtosis, 3),
                   util::fixed(kl, 4), util::fixed(jb.statistic, 1)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout
        << "\nExpected: wider waves and uniform shuffles give Gaussian Vs "
           "(low KL/JB); the contention mixture is leptokurtic and "
           "clearly non-normal - the mechanism behind Fig 2's AO shape "
           "and the family-dependent PDFs of Fig 1.\n";
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
