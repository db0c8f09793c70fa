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
// A closed-loop table measures capacity on the serial spec: 64 clients,
// each submitting its next request only when its previous one has
// returned, at cap 1 and cap 32. Open-loop throughput follows the
// offered rate, so only the closed loop can show what batching buys.
//
// Flags: --seed --requests=N --threads=T --full --csv --json=<path>
//        --trace=<path> --provenance=<path>
//        --gate-capacity  (fail unless closed-loop capacity at cap 32 is
//                          at least that at cap 1)

#include <algorithm>
#include <deque>
#include <future>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/obs/clock.hpp"
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

struct ClosedLoopResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  double capacity_rps = 0.0;
  /// Fingerprint of every output in (pass, request) order.
  std::uint64_t bits = 0;
};

/// `clients` closed-loop clients share `passes` passes over `requests`:
/// each submits its next request only when its previous one returned.
/// kDrivers threads run them, clients / kDrivers each, waiting on their
/// oldest request (the server completes in admission order). With one
/// thread per client, thread wake-ups cap what the host can submit:
/// on a shared 4-core Xeon cap 1 and cap 32 then both read about 150k rps.
ClosedLoopResult run_closed_loop(serve::InferenceServer& server,
                                 const std::vector<serve::Request>& requests,
                                 std::size_t clients, std::size_t passes) {
  constexpr std::size_t kDrivers = 4;
  const std::size_t total = requests.size() * passes;
  std::vector<std::vector<float>> outputs(total);
  std::vector<char> failed(total, 0);
  const std::uint64_t start = obs::now_ns();
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < kDrivers; ++d) {
    threads.emplace_back([&, d] {
      // Driver d serves items d, d + kDrivers, ...
      std::deque<std::pair<std::size_t, std::future<serve::InferenceResult>>>
          in_flight;
      std::size_t next = d;
      const auto submit = [&] {
        in_flight.emplace_back(
            next, server.submit(requests[next % requests.size()]));
        next += kDrivers;
      };
      while (in_flight.size() < clients / kDrivers && next < total) submit();
      while (!in_flight.empty()) {
        auto [i, future] = std::move(in_flight.front());
        in_flight.pop_front();
        try {
          outputs[i] = future.get().log_probs;
        } catch (const std::exception&) {
          failed[i] = 1;
        }
        if (next < total) submit();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds = static_cast<double>(obs::now_ns() - start) * 1e-9;

  ClosedLoopResult result;
  obs::Fingerprint bits;
  for (std::size_t i = 0; i < total; ++i) {
    if (failed[i] != 0) {
      ++result.failed;
      continue;
    }
    ++result.completed;
    bits.feed(std::span<const float>(outputs[i]));
  }
  result.capacity_rps =
      seconds > 0.0 ? static_cast<double>(result.completed) / seconds : 0.0;
  result.bits = bits.value();
  return result;
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
  const bool gate_capacity = cli.flag("gate-capacity");
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
        }
      }
    }
  }

  if (csv) {
    latency_table.print_csv(std::cout);
  } else {
    latency_table.print(std::cout);
  }

  // ---- Closed-loop capacity, serial spec ---------------------------------
  // 64 clients keep two cap-32 batches in flight, so the batcher serves
  // one while the clients refill the other. Both caps get the same pool;
  // only a batch of more than one row can use it (without a pool, cap 32
  // read within 10% of cap 1 on a shared 4-core Xeon: a batch does the
  // same work as its requests served alone). The caps alternate over
  // kRounds rounds; a cell is the median round.
  const std::size_t kClosedCaps[] = {1, 32};
  constexpr std::size_t kClients = 64, kRounds = 7;
  const std::size_t passes = std::max<std::size_t>(1, 8192 / requests.size());
  const std::size_t closed_threads = thread_counts.back();
  util::Table capacity_table(
      {"spec", "cap", "clients", "threads", "requests", "capacity p50 (rps)",
       "capacity min (rps)", "capacity max (rps)", "bits", "matches cap1",
       "reproducible"});
  double capacity_p50[2] = {0.0, 0.0};
  {
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec("serial");
    const serve::InferenceSession session(model, dataset, ctx);
    std::vector<std::vector<float>> rows;
    for (const auto& request : requests) {
      rows.push_back(session.row_forward(request, ctx));
    }
    obs::Fingerprint reference;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (const auto& row : rows) reference.feed(std::span<const float>(row));
    }

    std::vector<double> capacity[2];
    std::uint64_t bits[2] = {0, 0};
    bool matches[2] = {true, true};
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t c = 0; c < 2; ++c) {
        util::ThreadPool pool(closed_threads);
        serve::ServerConfig config;
        config.max_batch = kClosedCaps[c];
        config.max_wait = std::chrono::nanoseconds(200'000);
        config.pool = closed_threads > 1 ? &pool : nullptr;
        config.spec = *ctx.accumulator;
        serve::InferenceServer server(session, config);
        const ClosedLoopResult result =
            run_closed_loop(server, requests, kClients, passes);
        capacity[c].push_back(result.capacity_rps);
        bits[c] = result.bits;
        matches[c] = matches[c] && result.bits == reference.value() &&
                     result.failed == 0;
      }
    }
    for (std::size_t c = 0; c < 2; ++c) {
      std::sort(capacity[c].begin(), capacity[c].end());
      capacity_p50[c] = capacity[c][kRounds / 2];
      bits_invariant = bits_invariant && matches[c];
      capacity_table.add_row(
          {"serial", std::to_string(kClosedCaps[c]), std::to_string(kClients),
           std::to_string(closed_threads),
           std::to_string(passes * requests.size()),
           util::fixed(capacity_p50[c], 0), util::fixed(capacity[c].front(), 0),
           util::fixed(capacity[c].back(), 0), obs::hex64(bits[c]),
           matches[c] ? "yes" : "NO", "yes"});
    }
  }
  util::banner(std::cout, "Closed-loop capacity (serial spec, " +
                              std::to_string(kClients) + " clients, " +
                              std::to_string(kRounds) + " rounds)");
  if (csv) {
    capacity_table.print_csv(std::cout);
  } else {
    capacity_table.print(std::cout);
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

  bool capacity_ok = true;
  if (gate_capacity) {
    // Until batching shares weight reads, a batch does the same work as
    // its requests served alone, so the honest bar is "no worse".
    capacity_ok = capacity_p50[1] >= capacity_p50[0];
    std::cout << "capacity gate (closed loop, serial spec, median round): "
              << "cap 32 " << util::fixed(capacity_p50[1], 0)
              << " rps vs cap 1 " << util::fixed(capacity_p50[0], 0)
              << " rps (need cap 32 >= cap 1): "
              << (capacity_ok ? "pass" : "FAIL") << "\n";
  }

  if (!json_path.empty()) {
    bench::write_json(json_path, "serve_latency",
                      {{"latency", &latency_table},
                       {"capacity", &capacity_table},
                       {"projected", &projected_table},
                       {"metrics", &metrics_table}});
  }
  obs_options.finish();

  const bool flags_ok = bench::warn_unconsumed(cli) == 0;
  return (bits_invariant && capacity_ok && flags_ok) ? 0 : 1;
}
