// ProcessGroup smoke test for the real MPI backend. Run under mpirun, e.g.
//
//   mpirun -np 4 ./build/tests/comm_mpi_smoke --wire=ring
//
// --wire selects the message path (allgather | ring | butterfly; default
// allgather). Every rank builds a rank-dependent local vector, allreduces
// it through the MpiProcessGroup with each deterministic algorithm, and
// checks the result bitwise against the locally recomputed full-data
// reference (every rank knows every rank's formula, so no second
// communication is needed for the check) - so the ring/butterfly wire
// schedules are certified to reproduce the allgather semantics over real
// point-to-point messages, including the serialized-superaccumulator
// reproducible exchange with a dtype-quantizing ReductionSpec. On the
// schedule wires the test also asserts the measured per-rank traffic is
// O(n), strictly below the allgather backend's (P-1)*n. Exits non-zero on
// any mismatch; rank 0 prints a summary.
//
// Built only with -DFPNA_HAVE_MPI=ON; exercised by the CI mpi job for
// every wire path.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fpna/comm/bucketed_allreduce.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/comm/schedule.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/bits.hpp"
#include "reference_allreduce.hpp"

#include <mpi.h>

namespace {

std::vector<double> local_vector(std::size_t rank, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mixed magnitudes so re-association would be visible.
    const double sign = ((rank + i) % 2 == 0) ? 1.0 : -1.0;
    v[i] = sign * (1.0 + static_cast<double>(rank * 131 + i)) *
           (i % 3 == 0 ? 1e8 : 1e-8);
  }
  return v;
}

fpna::comm::WirePath parse_wire_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--wire=", 7) == 0) {
      return fpna::comm::parse_wire_path(argv[i] + 7);
    }
  }
  return fpna::comm::WirePath::kAllgather;
}

}  // namespace

int main(int argc, char** argv) {
  MPI_Init(&argc, &argv);
  int failures = 0;
  {
    using namespace fpna;
    const comm::WirePath wire = parse_wire_flag(argc, argv);
    comm::MpiProcessGroup pg(wire);
    const std::size_t n = 4099;  // deliberately not a multiple of anything
    const collective::RankData local{local_vector(pg.rank(), n)};

    // The reference every rank can compute alone.
    collective::RankData everyone(pg.size());
    for (std::size_t r = 0; r < pg.size(); ++r) {
      everyone[r] = local_vector(r, n);
    }

    const core::EvalContext ctx;
    for (const auto algorithm : {collective::Algorithm::kRing,
                                 collective::Algorithm::kRecursiveDoubling,
                                 collective::Algorithm::kReproducible}) {
      const auto over_wire = pg.allreduce(local, algorithm, ctx);
      const auto expected = reference::allreduce(everyone, algorithm);
      for (std::size_t i = 0; i < n; ++i) {
        if (!fp::bitwise_equal(over_wire[i], expected[i])) {
          ++failures;
          std::fprintf(stderr,
                       "rank %zu: %s mismatch at %zu: %.17g != %.17g\n",
                       pg.rank(), collective::to_string(algorithm), i,
                       over_wire[i], expected[i]);
          break;
        }
      }
    }

    // The dtype-quantized exact exchange: bf16 values on the wire, exact
    // superaccumulator states in the messages, f32 accumulate rounding at
    // the shard owner - bitwise equal to the local exact combine.
    {
      core::EvalContext spec_ctx;
      spec_ctx.accumulator =
          fp::parse_reduction_spec("superaccumulator@bf16:f32");
      const auto over_wire = pg.allreduce(
          local, collective::Algorithm::kReproducible, spec_ctx);
      const auto expected = comm::exact_elementwise_allreduce(
          everyone, *spec_ctx.accumulator);
      for (std::size_t i = 0; i < n; ++i) {
        if (!fp::bitwise_equal(over_wire[i], expected[i])) {
          ++failures;
          std::fprintf(stderr,
                       "rank %zu: spec'd reproducible mismatch at %zu\n",
                       pg.rank(), i);
          break;
        }
      }
    }

    // Bucketed exchange over the wire: three gradient-shaped tensors.
    const std::vector<comm::TensorList<double>> rank_tensors{
        {std::vector<double>(local.front().begin(),
                             local.front().begin() + 1000),
         std::vector<double>(local.front().begin() + 1000,
                             local.front().begin() + 1003),
         std::vector<double>(local.front().begin() + 1003,
                             local.front().end())}};
    const auto reduced = comm::bucketed_allreduce(
        pg, rank_tensors, collective::Algorithm::kReproducible, ctx,
        comm::BucketedConfig{.bucket_cap_elements = 512});
    const auto whole = pg.allreduce(
        local, collective::Algorithm::kReproducible, ctx);
    std::size_t offset = 0;
    for (const auto& tensor : reduced) {
      for (const double x : tensor) {
        if (!fp::bitwise_equal(x, whole[offset++])) ++failures;
      }
    }

    // Traffic: on a schedule wire the *rounded* algorithms move O(n)
    // value bytes per rank where the allgather backend moves (P-1)*n.
    // (The exact exchange trades traffic for wire-carried state - its
    // messages carry ~70 words per element - so the O(n) claim is
    // asserted on the value-mode collectives only.)
    if (wire != comm::WirePath::kAllgather && pg.size() > 2) {
      pg.reset_traffic();
      (void)pg.allreduce(local, collective::Algorithm::kRing, ctx);
      (void)pg.allreduce(local, collective::Algorithm::kRecursiveDoubling,
                         ctx);
      const comm::Traffic t = pg.traffic(pg.rank());
      const std::uint64_t allgather_bytes =
          2 * (pg.size() - 1) * n * sizeof(double);  // two collectives
      const std::uint64_t bound = 2 * 3 * n * sizeof(double);
      if (t.bytes_sent > bound || t.bytes_sent >= allgather_bytes) {
        ++failures;
        std::fprintf(stderr,
                     "rank %zu: wire traffic not O(n): sent %llu bytes "
                     "(bound %llu, allgather %llu)\n",
                     pg.rank(),
                     static_cast<unsigned long long>(t.bytes_sent),
                     static_cast<unsigned long long>(bound),
                     static_cast<unsigned long long>(allgather_bytes));
      }
    }

    int total_failures = failures;
    MPI_Allreduce(&failures, &total_failures, 1, MPI_INT, MPI_SUM,
                  MPI_COMM_WORLD);
    if (pg.rank() == 0) {
      std::printf("comm_mpi_smoke: %zu ranks, wire=%s, %d failures -> %s\n",
                  pg.size(), comm::to_string(wire), total_failures,
                  total_failures == 0 ? "OK" : "FAILED");
    }
    failures = total_failures;
  }
  MPI_Finalize();
  return failures == 0 ? 0 : 1;
}
