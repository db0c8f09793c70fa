// Extension bench (paper SVI future work, ISSUE 2 tentpole): bucketed,
// overlap-capable allreduce over a simulated process group. Sweeps bucket
// cap x rank count x collective algorithm, with overlap off and on, over a
// fixed global set of per-sample gradient contributions sharded across the
// ranks (comm::sharded_bucketed_allreduce - the multi-tensor
// generalisation of comm::distributed_sum).
//
// Measured per combination:
//   * wall-clock per reduction and throughput (Melem/s) - the bucketing /
//     overlap speedup;
//   * run-to-run bit-stability (two different RunContexts);
//   * max ulp distance from the exact (superaccumulator) reduction - the
//     reproducibility cost. The kReproducible rows read 0 ulps at *every*
//     rank count and bucket cap - rank-count invariance measured, not
//     asserted - while the rounded algorithms drift as (P, cap) change
//     the association.
//
// Flags: --size (total elements, default 32768), --tensors, --samples,
//        --threads (pool size for overlap), --reps, --seed, --csv,
//        --wire=<allgather|ring|butterfly> (message path of the process
//        groups: the schedule wires move O(n)/rank instead of O(n*P),
//        bits unchanged - certified by the gate),
//        --overlap=backward (adds the backward-overlap table: tensors
//        "arrive" in reverse order and a comm::BucketScheduler fires each
//        bucket at its last arrival, packed-path bits compared per row),
//        --json=<path> (machine-readable dump for the CI determinism
//        gate: run-to-run stable rows must keep identical bit columns
//        across two invocations, see scripts/bench_json_diff.py)

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fpna/comm/bucket_scheduler.hpp"
#include "fpna/comm/bucketed_allreduce.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/comm/schedule.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/util/table.hpp"
#include "fpna/util/thread_pool.hpp"
#include "fpna/util/timer.hpp"

using namespace fpna;

namespace {

/// DDP-shaped tensor sizes: a few large tensors and a tail of small ones,
/// summing to ~total.
std::vector<std::size_t> gradient_shaped_sizes(std::size_t total,
                                               std::size_t tensors) {
  std::vector<std::size_t> sizes;
  std::size_t remaining = total;
  for (std::size_t t = 0; t < tensors && remaining > 0; ++t) {
    const std::size_t take =
        t + 1 == tensors ? remaining
                         : std::max<std::size_t>(1, remaining / 2);
    sizes.push_back(take);
    remaining -= take;
  }
  return sizes;
}

std::int64_t max_ulps(const comm::TensorList<double>& a,
                      const comm::TensorList<double>& b) {
  std::int64_t worst = 0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      worst = std::max(worst, fp::ulp_distance(a[t][i], b[t][i]));
    }
  }
  return worst;
}

bool bitwise_equal(const comm::TensorList<double>& a,
                   const comm::TensorList<double>& b) {
  for (std::size_t t = 0; t < a.size(); ++t) {
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      if (!fp::bitwise_equal(a[t][i], b[t][i])) return false;
    }
  }
  return true;
}

std::string fingerprint(const comm::TensorList<double>& tensors) {
  obs::Fingerprint fp;
  for (const auto& tensor : tensors) {
    fp.feed(std::span<const double>(tensor));
  }
  return obs::hex64(fp.value());
}

/// Backward-overlapped bucket firing over per-rank tensor lists: tensors
/// become ready in reverse order (the gradient-production order of a
/// backward pass) and comm::OverlappedBucketAllreduce - the exact engine
/// dl::train_data_parallel runs - fires each bucket at its last arrival,
/// on the pool. Per-bucket arrival seeds are pre-drawn in bucket order,
/// so the result is a pure function of (data, algorithm, cap, run
/// identity), independent of pool timing.
comm::TensorList<double> backward_overlap_allreduce(
    comm::ProcessGroup& pg,
    const std::vector<comm::TensorList<double>>& rank_tensors,
    collective::Algorithm algorithm, core::RunContext* run,
    std::size_t cap, util::ThreadPool* pool) {
  const std::size_t tensors = rank_tensors.front().size();
  std::vector<std::size_t> tensor_sizes(tensors);
  std::vector<std::size_t> emit_order(tensors);  // reverse tensor order
  for (std::size_t t = 0; t < tensors; ++t) {
    tensor_sizes[t] = rank_tensors.front()[t].size();
    emit_order[t] = tensors - 1 - t;
  }
  core::EvalContext ctx;
  ctx.run = run;
  ctx.pool = pool;
  comm::BucketedConfig config;
  config.bucket_cap_elements = cap;
  config.overlap = true;
  comm::OverlappedBucketAllreduce<double> reducer(
      pg, rank_tensors, tensor_sizes, emit_order, algorithm, ctx, config);
  for (std::size_t s = 0; s < tensors; ++s) reducer.notify_slot_ready(s);
  return reducer.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto total = static_cast<std::size_t>(cli.integer("size", 32768));
  const auto tensors = static_cast<std::size_t>(cli.integer("tensors", 12));
  const auto samples = static_cast<std::size_t>(cli.integer("samples", 16));
  const auto threads = static_cast<std::size_t>(cli.integer("threads", 8));
  const auto reps = static_cast<std::size_t>(cli.integer("reps", 3));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");
  const std::string json = cli.text("json", "");
  // --trace / --provenance attach a recorder to the deterministic passes
  // (the exact reduction and the ring-layout table) - the provenance dump
  // is a pure function of the flags, so two identical invocations must
  // produce byte-identical files (the CI trace gate).
  const bench::ObsOptions obs_opts(cli);
  obs::Recorder* const recorder = obs_opts.recorder();
  const comm::WirePath wire =
      comm::parse_wire_path(cli.text("wire", "allgather"));
  const bool backward_overlap = cli.text("overlap", "") == "backward";

  const auto sizes = gradient_shaped_sizes(total, tensors);
  std::size_t elements = 0;
  for (const std::size_t s : sizes) elements += s;

  util::banner(std::cout,
               "Bucketed allreduce sweep: " + std::to_string(elements) +
                   " elements in " + std::to_string(sizes.size()) +
                   " tensors, " + std::to_string(samples) +
                   " sharded samples");

  // Ill-conditioned per-sample contributions (magnitude spread +
  // cancellation) so every re-association is visible in the low bits.
  std::vector<comm::TensorList<double>> sample_grads(samples);
  {
    std::uint64_t salt = 0;
    for (auto& sample : sample_grads) {
      sample.resize(sizes.size());
      for (std::size_t t = 0; t < sizes.size(); ++t) {
        sample[t] = bench::uniform_array(sizes[t], -1e8, 1e8, seed + salt++);
      }
    }
  }

  util::ThreadPool pool(threads);
  core::EvalContext exact_ctx;
  exact_ctx.recorder = recorder;
  comm::SimProcessGroup exact_group(1);
  const std::vector<std::size_t> exact_owner(samples, 0);
  const auto exact = comm::sharded_bucketed_allreduce(
      exact_group, sample_grads, exact_owner,
      collective::Algorithm::kReproducible, exact_ctx, {});

  util::Table table({"ranks", "bucket cap", "algorithm", "overlap",
                     "ms/reduce", "Melem/s", "run-to-run stable",
                     "max ulps vs exact", "bits"});
  for (const std::size_t ranks : {2u, 8u, 32u}) {
    comm::SimProcessGroup pg(ranks, wire);
    std::vector<std::size_t> owner(samples);
    for (std::size_t s = 0; s < samples; ++s) owner[s] = s % ranks;
    for (const std::size_t cap : {1024u, 16384u, 262144u}) {
      for (const auto algorithm :
           {collective::Algorithm::kRing,
            collective::Algorithm::kRecursiveDoubling,
            collective::Algorithm::kArrivalTree,
            collective::Algorithm::kReproducible}) {
        for (const bool overlap : {false, true}) {
          comm::BucketedConfig config;
          config.bucket_cap_elements = cap;
          config.overlap = overlap;

          const auto reduce_once = [&](core::RunContext& run) {
            core::EvalContext ctx;
            ctx.run = &run;
            ctx.pool = overlap ? &pool : nullptr;
            return comm::sharded_bucketed_allreduce(
                pg, sample_grads, owner, algorithm, ctx, config);
          };

          core::RunContext run_a(seed + 7, 0);
          core::RunContext run_b(seed + 7, 1);
          const auto value_a = reduce_once(run_a);
          const auto value_b = reduce_once(run_b);

          core::RunContext timed_run(seed + 7, 2);
          const auto stats = util::time_repeated(
              [&] { (void)reduce_once(timed_run); }, reps, 1);
          const double ms = stats.mean_seconds * 1e3;
          const double melem_s =
              static_cast<double>(elements) / stats.mean_seconds / 1e6;

          table.add_row({std::to_string(ranks), std::to_string(cap),
                         collective::to_string(algorithm),
                         overlap ? "on" : "off", util::fixed(ms, 3),
                         util::fixed(melem_s, 1),
                         bitwise_equal(value_a, value_b) ? "yes" : "NO",
                         std::to_string(max_ulps(value_a, exact)),
                         fingerprint(value_a)});
        }
      }
    }
  }
  // ---- Ring layout sensitivity (ROADMAP open item) ----------------------
  // comm_test pins the hazard qualitatively: the ring allreduce's
  // combining order for an element is a function of its offset *within
  // its bucket*, so re-bucketing moves bits even though every individual
  // schedule is deterministic. This table quantifies the drift: for each
  // rank count, the finest cap is the baseline and every coarser layout
  // is measured against it (and against the exact reduction) in ulps.
  // All rows are deterministic - run-to-run stable by construction - so
  // the bits and ulp columns ride the CI determinism gate.
  util::Table ring_table({"ranks", "bucket cap", "buckets",
                          "max ulps vs finest cap", "max ulps vs exact",
                          "run-to-run stable", "bits"});
  {
    std::vector<std::size_t> tensor_sizes;
    for (const auto& tensor : sample_grads.front()) {
      tensor_sizes.push_back(tensor.size());
    }
    // Caps whose bucket layouts coincide would reduce to byte-identical
    // rows (above ~total elements every cap yields one bucket): keep one
    // cap per distinct layout and skip the redundant reductions.
    std::vector<std::size_t> caps;
    std::vector<std::size_t> cap_buckets;
    {
      std::vector<std::vector<std::size_t>> seen_layouts;
      for (const std::size_t cap :
           {256u, 1024u, 4096u, 16384u, 65536u, 262144u}) {
        const auto buckets =
            comm::BucketAssigner(cap).assign(tensor_sizes);
        std::vector<std::size_t> layout;
        for (const auto& bucket : buckets) {
          layout.push_back(bucket.first_tensor);
          layout.push_back(bucket.tensor_count);
        }
        if (std::find(seen_layouts.begin(), seen_layouts.end(), layout) !=
            seen_layouts.end()) {
          continue;
        }
        seen_layouts.push_back(std::move(layout));
        caps.push_back(cap);
        cap_buckets.push_back(buckets.size());
      }
    }
    for (const std::size_t ranks : {2u, 4u, 8u, 16u, 32u}) {
      comm::SimProcessGroup pg(ranks, wire);
      std::vector<std::size_t> owner(samples);
      for (std::size_t s = 0; s < samples; ++s) owner[s] = s % ranks;
      std::vector<comm::TensorList<double>> per_cap;
      for (const std::size_t cap : caps) {
        comm::BucketedConfig config;
        config.bucket_cap_elements = cap;
        core::EvalContext ctx;  // deterministic, serial local folds
        ctx.recorder = recorder;
        per_cap.push_back(comm::sharded_bucketed_allreduce(
            pg, sample_grads, owner, collective::Algorithm::kRing, ctx,
            config));
      }
      for (std::size_t c = 0; c < caps.size(); ++c) {
        ring_table.add_row(
            {std::to_string(ranks), std::to_string(caps[c]),
             std::to_string(cap_buckets[c]),
             std::to_string(max_ulps(per_cap[c], per_cap.front())),
             std::to_string(max_ulps(per_cap[c], exact)), "yes",
             fingerprint(per_cap[c])});
      }
    }
  }

  // ---- Backward-overlapped bucket firing (--overlap=backward) -----------
  // DDP-style: per-rank tensor lists whose tensors "arrive" in reverse
  // order; a BucketScheduler fires each bucket's allreduce at its last
  // arrival, on the pool. Compared against the packed bucketed_allreduce:
  // the reproducible exchange is bucket-layout-invariant and must match
  // the packed bits exactly; the rounded ring commits to the emission
  // layout (deterministically - its own bits still gate).
  util::Table backward_table({"ranks", "bucket cap", "algorithm",
                              "ms/reduce", "run-to-run stable",
                              "matches packed", "bits"});
  if (backward_overlap) {
    for (const std::size_t ranks : {2u, 8u}) {
      if (ranks > samples) continue;  // rank lists are drawn from samples
      comm::SimProcessGroup pg(ranks, wire);
      std::vector<comm::TensorList<double>> rank_tensors(
          sample_grads.begin(),
          sample_grads.begin() + static_cast<std::ptrdiff_t>(ranks));
      for (const std::size_t cap : {1024u, 16384u}) {
        for (const auto algorithm :
             {collective::Algorithm::kRing,
              collective::Algorithm::kArrivalTree,
              collective::Algorithm::kReproducible}) {
          const auto reduce_once = [&](core::RunContext& run) {
            return backward_overlap_allreduce(pg, rank_tensors, algorithm,
                                              &run, cap, &pool);
          };
          core::RunContext run_a(seed + 11, 0);
          core::RunContext run_b(seed + 11, 1);
          const auto value_a = reduce_once(run_a);
          const auto value_b = reduce_once(run_b);

          core::RunContext packed_run(seed + 11, 0);
          core::EvalContext packed_ctx;
          packed_ctx.run = &packed_run;
          const auto packed = comm::bucketed_allreduce(
              pg, rank_tensors, algorithm, packed_ctx,
              comm::BucketedConfig{.bucket_cap_elements = cap});

          core::RunContext timed_run(seed + 11, 2);
          const auto stats = util::time_repeated(
              [&] { (void)reduce_once(timed_run); }, reps, 1);

          backward_table.add_row(
              {std::to_string(ranks), std::to_string(cap),
               collective::to_string(algorithm),
               util::fixed(stats.mean_seconds * 1e3, 3),
               bitwise_equal(value_a, value_b) ? "yes" : "NO",
               bitwise_equal(value_a, packed) ? "yes" : "no",
               fingerprint(value_a)});
        }
      }
    }
  }

  const util::Table metrics_table = obs_opts.metrics_table();
  if (!json.empty()) {
    std::vector<bench::NamedTable> tables{{"sweep", &table},
                                          {"ring_layout", &ring_table}};
    if (backward_overlap) {
      tables.push_back({"backward_overlap", &backward_table});
    }
    if (obs_opts.enabled()) tables.push_back({"metrics", &metrics_table});
    bench::write_json(json, "bucketed_allreduce", tables);
  }
  if (csv) {
    table.print_csv(std::cout);
    ring_table.print_csv(std::cout);
    if (obs_opts.enabled()) metrics_table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout
        << "\nReading: reproducible rows are bit-stable with 0 ulps at "
           "every rank count, bucket cap and overlap setting; ring / "
           "recursive-doubling are run-to-run stable but drift across "
           "(ranks, cap) re-associations; arrival-tree is unstable run to "
           "run. Overlap changes wall-clock only - identical bits on and "
           "off.\n";
    util::banner(std::cout, "Ring layout sensitivity (ulp drift vs bucket "
                            "cap x ranks)");
    ring_table.print(std::cout);
    std::cout
        << "\nReading: every row is deterministic, yet the bits column "
           "moves down each rank-count block - the bucket cap alone "
           "re-associates the ring's combining order (element offset "
           "within the bucket picks the starting rank). A DDP-style "
           "job that changes its bucketing, world size or both must "
           "expect gradient bits to move unless it pays for the "
           "reproducible exchange.\n";
    if (backward_overlap) {
      util::banner(std::cout,
                   "Backward-overlapped bucket firing (reverse arrival)");
      backward_table.print(std::cout);
      std::cout
          << "\nReading: buckets fire mid-'backward' on the pool; the "
             "reproducible exchange matches the packed path bit for bit "
             "(layout-invariant), the rounded ring commits to the "
             "emission-order layout (stable, but its own bits), and the "
             "arrival tree stays non-deterministic either way.\n";
    }
    if (obs_opts.enabled()) {
      util::banner(std::cout, "Recorder metrics (traced passes)");
      metrics_table.print(std::cout);
    }
  }
  obs_opts.finish();
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
