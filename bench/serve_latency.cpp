// Serving bench: throughput and tail latency of the batch-invariant
// InferenceServer under open-loop Poisson-ish load, swept over batch cap
// x threads x ReductionSpec x arrival rate - with the bit-fingerprint of
// every run's per-request outputs as a table column. The load-bearing
// claim rides in that column: the bits of a request's output do not
// depend on the batch it happened to share, the cap, the thread count or
// the arrival schedule, so the fingerprint must match the cap=1 row
// exactly and reproduce bit-for-bit across runs (the CI double-run gate
// diffs it via scripts/bench_json_diff.py).
//
// A second, virtual-time table projects the same batching policy through
// sim's device cost model at 200k requests per cell - the "at scale"
// shape (batching amortises dispatch; max_wait bounds the tail) without
// a wall clock in sight.
//
// Flags: --seed --requests=N --threads=T --full --csv --json=<path>
//        --trace=<path> --provenance=<path>
//        --gate-speedup   (fail unless batched throughput >= 2x cap=1 on
//                          the overload row; CI sets this on multi-core
//                          runners only - a single-core host has no
//                          parallel speedup to certify)

#include <algorithm>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/serve/open_loop.hpp"
#include "fpna/serve/server.hpp"
#include "fpna/serve/session.hpp"
#include "fpna/sim/device_profile.hpp"
#include "fpna/util/table.hpp"
#include "fpna/util/thread_pool.hpp"

using namespace fpna;

namespace {

const char* kSpecs[] = {"serial", "pairwise", "klein@bf16:f32",
                        "kahan@simd8:bf16:f32"};

std::vector<serve::Request> make_requests(const dl::Dataset& dataset,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::vector<serve::Request> requests;
  requests.reserve(count);
  util::Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto node = static_cast<std::int64_t>(
        rng() % static_cast<std::uint64_t>(dataset.num_nodes()));
    requests.push_back(serve::InferenceSession::deployed_request(
        dataset, node, i));
  }
  return requests;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const bool csv = cli.flag("csv");
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const auto num_requests = static_cast<std::size_t>(
      cli.integer("requests", full ? 512 : 128));
  const auto hw = std::max(1u, std::thread::hardware_concurrency());
  const auto max_threads = static_cast<std::size_t>(
      cli.integer("threads", static_cast<std::int64_t>(hw)));
  const bool gate_speedup = cli.flag("gate-speedup");
  const std::string json_path = cli.text("json", "");
  const bench::ObsOptions obs_options(cli);

  const auto dataset =
      dl::make_synthetic_citation_dataset(dl::DatasetConfig::small());
  // hidden = 40 on purpose: wider than pairwise's 32-element block and
  // the 8-lane SIMD deal, so the layer-2 reductions actually exercise
  // each spec's re-association (the sparse feature rows keep layer 1's
  // streams short) and the specs' bit columns are visibly distinct.
  const dl::GraphSageModel model(dataset.num_features(), 40,
                                 dataset.num_classes, seed);
  const auto requests = make_requests(dataset, num_requests, seed + 1);

  util::banner(std::cout,
               "Serving latency: batch-invariant inference, open-loop "
               "arrivals (" + std::to_string(num_requests) + " requests, " +
                   std::to_string(max_threads) + " threads max)");

  const std::size_t kCaps[] = {1, 8, 32};
  std::vector<std::size_t> thread_counts = {1};
  if (max_threads > 1) thread_counts.push_back(max_threads);
  const double kRates[] = {4000.0, 50000.0};

  util::Table latency_table({"spec", "cap", "threads", "rate (rps)",
                             "completed", "throughput (rps)", "p50 (us)",
                             "p95 (us)", "p99 (us)", "bits", "matches cap1",
                             "reproducible"});

  bool bits_invariant = true;
  double serial_cap1_overload_rps = 0.0;
  double serial_batched_overload_rps = 0.0;

  for (const char* spec_text : kSpecs) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(spec_text);
    core::EvalContext session_ctx;
    session_ctx.accumulator = spec;
    const serve::InferenceSession session(model, dataset, session_ctx);

    // The reference bits: every request served alone, no server at all.
    obs::Fingerprint reference;
    {
      core::EvalContext ctx;
      ctx.accumulator = spec;
      for (const auto& request : requests) {
        const auto row = session.row_forward(request, ctx);
        reference.feed(std::span<const float>(row));
      }
    }

    for (const std::size_t cap : kCaps) {
      for (const std::size_t threads : thread_counts) {
        for (const double rate : kRates) {
          util::ThreadPool pool(threads);
          serve::ServerConfig config;
          config.max_batch = cap;
          config.max_wait = std::chrono::nanoseconds(200'000);
          config.pool = threads > 1 ? &pool : nullptr;
          config.spec = spec;
          serve::InferenceServer server(session, config);
          const auto gaps = serve::exponential_interarrivals_ns(
              rate, requests.size(), seed + 2);
          const serve::OpenLoopResult result =
              serve::run_open_loop(server, requests, gaps);
          const bool matches = result.bits == reference.value() &&
                               result.latency.failed == 0;
          bits_invariant = bits_invariant && matches;
          latency_table.add_row(
              {spec_text, std::to_string(cap), std::to_string(threads),
               util::fixed(rate, 0),
               std::to_string(result.latency.completed),
               util::fixed(result.latency.throughput_rps, 0),
               util::fixed(result.latency.p50_us, 1),
               util::fixed(result.latency.p95_us, 1),
               util::fixed(result.latency.p99_us, 1),
               obs::hex64(result.bits),
               matches ? "yes" : "NO", "yes"});
          if (std::string(spec_text) == "serial" && rate == kRates[1] &&
              threads == thread_counts.back()) {
            if (cap == 1) serial_cap1_overload_rps =
                result.latency.throughput_rps;
            if (cap == kCaps[2]) serial_batched_overload_rps =
                std::max(serial_batched_overload_rps,
                         result.latency.throughput_rps);
          }
        }
      }
    }
  }

  if (csv) {
    latency_table.print_csv(std::cout);
  } else {
    latency_table.print(std::cout);
  }

  // ---- Projected at scale: the same policy in virtual time --------------
  const auto h100 = sim::DeviceProfile::h100();
  // One served row streams its feature vector and both layers' weights.
  const double bytes_per_row =
      4.0 * static_cast<double>(dataset.num_features() * 40 +
                                40 * dataset.num_classes +
                                dataset.num_features());
  const serve::ServiceModel service =
      serve::ServiceModel::from_profile(h100, bytes_per_row);

  util::banner(std::cout,
               "Projected at scale (virtual time, 200k requests/cell, "
               "H100 profile: dispatch " +
                   util::fixed(service.dispatch_us, 2) + " us, per-row " +
                   util::fixed(service.per_row_us, 3) + " us)");
  util::Table projected_table({"cap", "rate (rps)", "throughput (rps)",
                               "p50 (us)", "p95 (us)", "p99 (us)"});
  const std::size_t kProjCaps[] = {1, 4, 16, 64};
  const double kProjRates[] = {50'000.0, 120'000.0};
  for (const std::size_t cap : kProjCaps) {
    for (const double rate : kProjRates) {
      const serve::LatencySummary sim_summary = serve::simulate_open_loop(
          service, cap, /*max_wait_us=*/100.0, rate, 200'000, seed + 3);
      projected_table.add_row(
          {std::to_string(cap), util::fixed(rate, 0),
           util::fixed(sim_summary.throughput_rps, 0),
           util::fixed(sim_summary.p50_us, 1),
           util::fixed(sim_summary.p95_us, 1),
           util::fixed(sim_summary.p99_us, 1)});
    }
  }
  if (csv) {
    projected_table.print_csv(std::cout);
  } else {
    projected_table.print(std::cout);
  }

  // ---- Traced correctness pass (timing loops above stay untraced) -------
  util::Table metrics_table({"metric", "type", "value", "samples"});
  if (obs_options.enabled()) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(kSpecs[3]);
    core::EvalContext session_ctx;
    session_ctx.accumulator = spec;
    const serve::InferenceSession session(model, dataset, session_ctx);
    util::ThreadPool pool(max_threads);
    serve::ServerConfig config;
    config.max_batch = 8;
    config.pool = max_threads > 1 ? &pool : nullptr;
    config.spec = spec;
    config.recorder = obs_options.recorder();
    serve::InferenceServer server(session, config);
    const auto gaps = serve::exponential_interarrivals_ns(
        20'000.0, requests.size(), seed + 4);
    const serve::OpenLoopResult traced =
        serve::run_open_loop(server, requests, gaps);
    std::cout << "\ntraced pass: " << traced.latency.completed
              << " requests, bits " << obs::hex64(traced.bits) << "\n";
    metrics_table = obs_options.metrics_table();
    metrics_table.print(std::cout);
  }

  std::cout << "\nper-request bits invariant to cap/threads/rate: "
            << (bits_invariant ? "yes" : "NO") << "\n";

  bool speedup_ok = true;
  if (gate_speedup) {
    const double ratio = serial_cap1_overload_rps > 0.0
                             ? serial_batched_overload_rps /
                                   serial_cap1_overload_rps
                             : 0.0;
    speedup_ok = ratio >= 2.0;
    std::cout << "speedup gate (overload row, serial spec): batched "
              << util::fixed(serial_batched_overload_rps, 0) << " rps vs cap1 "
              << util::fixed(serial_cap1_overload_rps, 0) << " rps = "
              << util::fixed(ratio, 2) << "x (need >= 2.00x): "
              << (speedup_ok ? "pass" : "FAIL") << "\n";
  }

  if (!json_path.empty()) {
    bench::write_json(json_path, "serve_latency",
                      {{"latency", &latency_table},
                       {"projected", &projected_table},
                       {"metrics", &metrics_table}});
  }
  obs_options.finish();

  const bool flags_ok = bench::warn_unconsumed(cli) == 0;
  return (bits_invariant && speedup_ok && flags_ok) ? 0 : 1;
}
