// Extension experiment (paper SVI, future work): inter-node communication
// as an additional FPNA variability source. Two parts:
//
//  1. Variability of a distributed sum vs rank count, comparing the MPI
//     collective algorithms: ring / recursive doubling (deterministic,
//     but bit-different from each other), arrival-order tree
//     (non-deterministic, like switch-offloaded in-network reduction)
//     and the reproducible superaccumulator exchange.
//
//  2. Data-parallel GNN training with gradient allreduce across simulated
//     ranks - dl::train_data_parallel on the schedule-based comm stack
//     (backward-overlapped bucket firing, ring/butterfly wire schedules):
//     with the arrival-tree collective every training run yields a unique
//     model even though every rank's local computation is deterministic -
//     the distributed analogue of the paper's SV result. Deterministic
//     collectives certify run-to-run stability and the wire schedules'
//     measured O(n)-per-rank traffic against the allgather backend's
//     O(n*P), with final-weight bit fingerprints riding the CI
//     determinism gate.
//
// Flags: --size --runs --ranks --epochs --seed --csv --json=<path>

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/comm/schedule.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/dl/data_parallel.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/stats/descriptive.hpp"
#include "fpna/util/table.hpp"

using namespace fpna;

namespace {

// ---------------------------------------------------------------- part 1

void distributed_sum_variability(std::size_t size, std::size_t runs,
                                 std::uint64_t seed, bool csv,
                                 util::Table& table) {
  util::banner(std::cout,
               "Extension 1: distributed-sum variability vs rank count (" +
                   std::to_string(size) + " FP64 elements, " +
                   std::to_string(runs) + " runs)");
  const auto data = bench::uniform_array(size, -1e6, 1e6, seed);
  const double exact = fp::Superaccumulator::sum(data);

  for (const std::size_t ranks : {4u, 16u, 64u, 256u}) {
    for (const auto algorithm :
         {collective::Algorithm::kRing,
          collective::Algorithm::kRecursiveDoubling,
          collective::Algorithm::kArrivalTree,
          collective::Algorithm::kReproducible}) {
      const auto kernel = [&](core::RunContext& run) {
        const auto ctx = core::EvalContext::nondeterministic_on(run);
        return comm::distributed_sum(data, ranks, algorithm, ctx);
      };
      const auto cert =
          core::certify_deterministic_scalar(kernel, 10, seed + 1);
      const auto report = core::measure_scalar_variability(
          kernel, kernel, runs, seed + 2, core::Reference::kFirstRun);
      core::RunContext one(seed + 3, 0);
      const double value = kernel(one);
      table.add_row({std::to_string(ranks),
                     collective::to_string(algorithm),
                     cert.deterministic ? "yes" : "NO",
                     util::sci(report.vs_summary.stddev, 2),
                     util::sci(std::fabs(value - exact), 2)});
    }
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

// ---------------------------------------------------------------- part 2

std::string weights_fingerprint(const std::vector<double>& weights) {
  obs::Fingerprint fp;
  fp.feed(std::span<const double>(weights));
  return obs::hex64(fp.value());
}

void data_parallel_training(std::size_t ranks, int epochs, std::size_t runs,
                            std::uint64_t seed, bool csv,
                            util::Table& table) {
  util::banner(std::cout,
               "Extension 2: data-parallel GraphSAGE "
               "(dl::train_data_parallel, backward-overlapped buckets), "
               "gradient allreduce across " + std::to_string(ranks) +
                   " ranks, " + std::to_string(runs) +
                   " trainings per (collective, wire)");
  const auto ds = dl::make_synthetic_citation_dataset(
      dl::DatasetConfig::small());

  dl::DataParallelConfig reference_config;
  reference_config.base.epochs = epochs;
  reference_config.ranks = ranks;
  reference_config.algorithm = collective::Algorithm::kReproducible;
  core::RunContext ref_run(seed, 0);
  const auto reference =
      dl::train_data_parallel(ds, reference_config, ref_run).final_weights;

  for (const auto algorithm :
       {collective::Algorithm::kReproducible, collective::Algorithm::kRing,
        collective::Algorithm::kArrivalTree}) {
    for (const comm::WirePath wire :
         {comm::WirePath::kAllgather, comm::WirePath::kRing,
          comm::WirePath::kButterfly}) {
      dl::DataParallelConfig config = reference_config;
      config.algorithm = algorithm;
      config.wire = wire;

      comm::SimProcessGroup pg(ranks, wire);
      std::vector<std::vector<double>> finals;
      double vermv_total = 0.0;
      for (std::size_t r = 0; r < runs; ++r) {
        core::RunContext run(seed + 10, r);
        finals.push_back(
            dl::train_data_parallel(ds, config, run, pg).final_weights);
        vermv_total += core::vermv(std::span<const double>(reference),
                                   std::span<const double>(finals.back()));
      }
      const std::size_t unique = core::count_unique_outputs(finals);
      const bool stable = unique == 1;
      // Per-rank gradient traffic of the whole sweep, measured by the
      // group's ledger: the schedule wires move O(n) per rank where the
      // allgather backend moves O(n*P).
      const comm::Traffic traffic = pg.traffic(0);
      table.add_row(
          {collective::to_string(algorithm), comm::to_string(wire),
           std::to_string(unique) + " / " + std::to_string(runs),
           util::sci(vermv_total / static_cast<double>(runs), 2),
           std::to_string(traffic.bytes_sent / 1024) + " KiB",
           stable ? "yes" : "NO",
           stable ? weights_fingerprint(finals.front()) : "-"});
    }
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout
        << "\nReading: with a deterministic collective, the distributed "
           "training is bitwise reproducible on every wire - and the "
           "reproducible collective's fingerprint is identical across "
           "allgather/ring/butterfly (the serialized-superaccumulator "
           "exchange moves traffic, never bits). With arrival-order "
           "combining, every run is a unique model even though every "
           "rank's local computation is deterministic - communication is "
           "an independent FPNA variability source (paper SVI).\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto size = static_cast<std::size_t>(cli.integer("size", 100000));
  const auto runs = static_cast<std::size_t>(cli.integer("runs", 50));
  const auto ranks = static_cast<std::size_t>(cli.integer("ranks", 8));
  const int epochs = static_cast<int>(cli.integer("epochs", 6));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");
  const std::string json = cli.text("json", "");

  util::Table sum_table({"ranks", "algorithm", "deterministic (measured)",
                         "std(Vs)", "|value - exact|"});
  distributed_sum_variability(size, runs, seed, csv, sum_table);

  util::Table train_table({"collective", "wire", "unique final models",
                           "mean Vermv vs reproducible reference",
                           "gradient traffic/rank", "run-to-run stable",
                           "bits"});
  data_parallel_training(ranks, epochs, std::min<std::size_t>(runs, 8), seed,
                         csv, train_table);

  if (!json.empty()) {
    bench::write_json(json, "ext_mpi_allreduce",
                      {{"distributed_sum", &sum_table},
                       {"data_parallel_training", &train_table}});
  }
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
