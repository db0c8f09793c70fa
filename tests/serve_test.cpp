// The serving determinism contract, pinned:
//
//  * a deployed node's served row reproduces the offline full-graph
//    forward's row bitwise, per ReductionSpec;
//  * per-request output bits are invariant to batch cap, batch
//    composition, thread count and admission order (the same request set
//    replayed under caps {1,2,8,64} x threads {1,2,8} x 4 specs,
//    including a lane-blocked bf16 spec, yields identical bits);
//  * a seeded overload burst against a tiny queue neither drops nor
//    corrupts a single request (backpressure blocks, never shed);
//  * a worker exception fails exactly the owning requests' futures and
//    deadlocks nothing (the batcher's join-and-rethrow audit).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fpna/dl/dataset.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/dl/layers.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/serve/open_loop.hpp"
#include "fpna/serve/queue.hpp"
#include "fpna/serve/server.hpp"
#include "fpna/serve/session.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::serve {
namespace {

// The four specs of the invariance grid: the native default, a
// block-reassociating algorithm (Pairwise's accumulator state depends on
// the element *count*, the easiest thing for a batching bug to corrupt),
// a compensated bf16-storage spec and its lane-blocked SIMD form.
const char* kSpecs[] = {"serial", "pairwise", "klein@bf16:f32",
                        "kahan@simd8:bf16:f32"};

dl::DatasetConfig tiny_config() {
  dl::DatasetConfig config;
  config.num_nodes = 80;
  config.num_undirected_edges = 160;
  config.num_features = 48;
  config.num_classes = 5;
  config.words_per_node = 5;
  config.seed = 7;
  return config;
}

struct ServeWorld {
  dl::Dataset dataset = dl::make_synthetic_citation_dataset(tiny_config());
  dl::GraphSageModel model{48, 12, 5, /*init_seed=*/21};

  InferenceSession session(const fp::ReductionSpec& spec) const {
    core::EvalContext ctx;
    ctx.accumulator = spec;
    return InferenceSession(model, dataset, ctx);
  }
};

/// A mixed request set: deployed nodes plus synthetic never-seen rows
/// (custom features, hand-picked neighbour lists) - batch composition
/// should not matter even across heterogeneous neighbours.
std::vector<Request> make_requests(const dl::Dataset& dataset,
                                   std::size_t count) {
  std::vector<Request> requests;
  util::Xoshiro256pp rng(99);
  const util::UniformReal unit(0.0, 1.0);
  const auto nodes = dataset.num_nodes();
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      requests.push_back(InferenceSession::deployed_request(
          dataset, static_cast<std::int64_t>(i) % nodes, i));
    } else {
      Request request;
      request.id = i;
      request.features.resize(
          static_cast<std::size_t>(dataset.num_features()));
      for (auto& f : request.features) {
        f = static_cast<float>(unit(rng)) * 0.25f;
      }
      const auto degree = 1 + static_cast<std::int64_t>(rng() % 5);
      for (std::int64_t d = 0; d < degree; ++d) {
        request.neighbors.push_back(
            static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                          nodes)));
      }
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ------------------------------------------------ row == full graph ----

TEST(InferenceSession, DeployedRowsReproduceFullGraphForwardBitwise) {
  const ServeWorld world;
  for (const char* spec_text : kSpecs) {
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec(spec_text);
    const dl::Matrix full = world.model.forward(
        dl::Matrix(world.dataset.features), world.dataset.graph, ctx);
    const InferenceSession session = world.session(*ctx.accumulator);
    const std::int64_t cols = full.size(1);
    for (std::int64_t node = 0; node < world.dataset.num_nodes();
         node += 7) {
      const Request request = InferenceSession::deployed_request(
          world.dataset, node, static_cast<std::uint64_t>(node));
      const std::vector<float> row = session.row_forward(request, ctx);
      ASSERT_EQ(static_cast<std::int64_t>(row.size()), cols);
      for (std::int64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(
                      row[static_cast<std::size_t>(c)]),
                  std::bit_cast<std::uint32_t>(full.flat(node * cols + c)))
            << "spec=" << spec_text << " node=" << node << " col=" << c;
      }
    }
  }
}

// ---------------------------------------------- the invariance grid ----

TEST(InferenceServer, BitsInvariantToBatchCapThreadsAndComposition) {
  const ServeWorld world;
  const auto requests = make_requests(world.dataset, 32);
  const std::size_t kCaps[] = {1, 2, 8, 64};
  const std::size_t kThreads[] = {1, 2, 8};

  for (const char* spec_text : kSpecs) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(spec_text);
    const InferenceSession session = world.session(spec);

    // Reference: each request alone, serial, no server in sight.
    core::EvalContext ref_ctx;
    ref_ctx.accumulator = spec;
    std::vector<std::vector<float>> reference;
    reference.reserve(requests.size());
    for (const auto& request : requests) {
      reference.push_back(session.row_forward(request, ref_ctx));
    }

    for (const std::size_t cap : kCaps) {
      for (const std::size_t threads : kThreads) {
        util::ThreadPool pool(threads);
        ServerConfig config;
        config.max_batch = cap;
        config.max_wait = std::chrono::nanoseconds(50'000);
        config.pool = threads > 1 ? &pool : nullptr;
        config.spec = spec;
        InferenceServer server(session, config);
        std::vector<std::future<InferenceResult>> futures;
        futures.reserve(requests.size());
        for (const auto& request : requests) {
          futures.push_back(server.submit(request));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const InferenceResult result = futures[i].get();
          EXPECT_TRUE(bitwise_equal(result.log_probs, reference[i]))
              << "spec=" << spec_text << " cap=" << cap
              << " threads=" << threads << " request=" << i;
        }
      }
    }
  }
}

TEST(InferenceServer, BitsInvariantToAdmissionOrder) {
  const ServeWorld world;
  const fp::ReductionSpec spec = fp::parse_reduction_spec("pairwise");
  const InferenceSession session = world.session(spec);
  auto requests = make_requests(world.dataset, 24);

  core::EvalContext ref_ctx;
  ref_ctx.accumulator = spec;
  std::map<std::uint64_t, std::vector<float>> reference;
  for (const auto& request : requests) {
    reference[request.id] = session.row_forward(request, ref_ctx);
  }

  util::Xoshiro256pp rng(3);
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    std::shuffle(requests.begin(), requests.end(), rng);
    ServerConfig config;
    config.max_batch = 4;
    config.spec = spec;
    InferenceServer server(session, config);
    std::vector<std::pair<std::uint64_t, std::future<InferenceResult>>>
        futures;
    for (const auto& request : requests) {
      futures.emplace_back(request.id, server.submit(request));
    }
    for (auto& [id, future] : futures) {
      EXPECT_TRUE(bitwise_equal(future.get().log_probs, reference[id]))
          << "shuffle=" << shuffle << " id=" << id;
    }
  }
}

// ------------------------------------------------- overload burst ------

TEST(InferenceServer, OverloadBurstNeverDropsOrCorrupts) {
  const ServeWorld world;
  const fp::ReductionSpec spec = fp::parse_reduction_spec("kahan@simd8:bf16:f32");
  const InferenceSession session = world.session(spec);
  const auto requests = make_requests(world.dataset, 16);

  core::EvalContext ref_ctx;
  ref_ctx.accumulator = spec;
  std::vector<std::vector<float>> reference;
  for (const auto& request : requests) {
    reference.push_back(session.row_forward(request, ref_ctx));
  }

  // Queue of 4 against 4 producers x 50 submissions each: admission
  // backpressure must block producers, never drop, and every future
  // must carry the reference bits.
  ServerConfig config;
  config.max_batch = 8;
  config.max_queue = 4;
  config.spec = spec;
  InferenceServer server(session, config);

  constexpr std::size_t kProducers = 4, kPerProducer = 50;
  std::atomic<std::size_t> correct{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Xoshiro256pp rng(1000 + p);
      for (std::size_t s = 0; s < kPerProducer; ++s) {
        const std::size_t pick = rng() % requests.size();
        auto future = server.submit(requests[pick]);
        if (bitwise_equal(future.get().log_probs, reference[pick])) {
          correct.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(correct.load(), kProducers * kPerProducer);
}

TEST(InferenceServer, ConcurrentShutdownClosesAndJoinsOnce) {
  // Two threads race shutdown() and the destructor calls it a third
  // time: exactly one call closes admission and joins the batcher, and
  // every request admitted before the race is still served.
  const ServeWorld world;
  const InferenceSession session = world.session(fp::ReductionSpec{});
  const auto requests = make_requests(world.dataset, 8);
  ServerConfig config;
  config.max_batch = 4;
  InferenceServer server(session, config);
  std::vector<std::future<InferenceResult>> futures;
  for (const auto& request : requests) {
    futures.push_back(server.submit(request));
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> closers;
  for (int t = 0; t < 2; ++t) {
    closers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      server.shutdown();
    });
  }
  go.store(true);
  for (auto& closer : closers) closer.join();

  for (auto& future : futures) EXPECT_FALSE(future.get().log_probs.empty());
  EXPECT_THROW(server.submit(requests[0]), std::runtime_error);
}

TEST(InferenceServer, SubmitRacingShutdownLeavesNoFuturePending) {
  // Submitters race shutdown() through a small queue: every submit()
  // either throws or returns a future, and once shutdown() has joined
  // the batcher each returned future already holds its result.
  const ServeWorld world;
  const InferenceSession session = world.session(fp::ReductionSpec{});
  const auto requests = make_requests(world.dataset, 8);
  constexpr int kRounds = 20, kSubmitters = 4;
  for (int round = 0; round < kRounds; ++round) {
    ServerConfig config;
    config.max_batch = 4;
    config.max_queue = 4;
    InferenceServer server(session, config);
    std::vector<std::vector<std::future<InferenceResult>>> futures(
        kSubmitters);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = 0;; ++i) {
          try {
            futures[static_cast<std::size_t>(t)].push_back(
                server.submit(requests[i % requests.size()]));
          } catch (const std::runtime_error&) {
            return;  // admission closed
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    server.shutdown();
    for (auto& submitter : submitters) submitter.join();
    for (auto& own : futures) {
      for (auto& future : own) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "round " << round;
        EXPECT_FALSE(future.get().log_probs.empty());
      }
    }
  }
}

// ----------------------------------------- join-and-rethrow audit ------

TEST(InferenceServer, InjectedRowThrowFailsOnlyOwningRequests) {
  const ServeWorld world;
  const fp::ReductionSpec spec{};
  const InferenceSession session = world.session(spec);
  const auto requests = make_requests(world.dataset, 24);

  core::EvalContext ref_ctx;
  std::vector<std::vector<float>> reference;
  for (const auto& request : requests) {
    reference.push_back(session.row_forward(request, ref_ctx));
  }

  util::ThreadPool pool(4);
  ServerConfig config;
  config.max_batch = 8;
  config.pool = &pool;
  config.fault_hook = [](const Request& request) {
    if (request.id % 5 == 0) {
      throw std::runtime_error("injected fault for request " +
                               std::to_string(request.id));
    }
  };
  InferenceServer server(session, config);
  std::vector<std::future<InferenceResult>> futures;
  for (const auto& request : requests) {
    futures.push_back(server.submit(request));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (requests[i].id % 5 == 0) {
      EXPECT_THROW(futures[i].get(), std::runtime_error) << "request " << i;
    } else {
      // Batch-mates of a throwing row are unharmed, bit for bit.
      EXPECT_TRUE(bitwise_equal(futures[i].get().log_probs, reference[i]))
          << "request " << i;
    }
  }
  // The server survives the faults: a clean batch still serves.
  auto after = server.submit(requests[1]);
  EXPECT_TRUE(bitwise_equal(after.get().log_probs, reference[1]));
}

TEST(InferenceSession, BadNeighbourFailsOnlyItsOwnRow) {
  const ServeWorld world;
  const InferenceSession session = world.session(fp::ReductionSpec{});
  core::EvalContext ctx;
  auto requests = make_requests(world.dataset, 3);
  requests[1].neighbors.push_back(world.dataset.num_nodes() + 5);  // bad id
  const auto outcomes = session.batch_forward(requests, ctx);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].error, nullptr);
  ASSERT_NE(outcomes[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(outcomes[1].error), std::out_of_range);
  EXPECT_EQ(outcomes[2].error, nullptr);
}

// --------------------------------------------------- MPSC queue --------

TEST(MpscQueue, FifoPerProducerAndNothingLost) {
  MpscQueue<std::pair<int, int>> queue(64);
  constexpr int kProducers = 4, kItems = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kItems; ++i) {
        ASSERT_TRUE(queue.push({p, i}));
      }
    });
  }
  std::deque<std::pair<int, int>> drained;
  while (drained.size() < kProducers * kItems) {
    queue.drain(drained, std::chrono::nanoseconds(1'000'000));
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(kProducers * kItems));
  // Global FIFO implies per-producer FIFO: each producer's items appear
  // in submission order.
  int last_seen[kProducers];
  std::fill(last_seen, last_seen + kProducers, -1);
  for (const auto& [p, i] : drained) {
    EXPECT_GT(i, last_seen[p]);
    last_seen[p] = i;
  }
}

TEST(MpscQueue, CloseWakesBlockedProducers) {
  MpscQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));  // fills the queue
  std::atomic<bool> returned{false};
  std::thread blocked([&] {
    const bool pushed = queue.push(2);  // blocks: no capacity
    EXPECT_FALSE(pushed);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  queue.close();
  blocked.join();
  EXPECT_TRUE(returned.load());
  // The admitted item is still drainable after close.
  std::deque<int> drained;
  queue.drain(drained, std::chrono::nanoseconds(0));
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained.front(), 1);
}

// ------------------------------------------------ open-loop driver -----

TEST(OpenLoop, SeededArrivalsAreDeterministic) {
  const auto a = exponential_interarrivals_ns(5000.0, 256, 11);
  const auto b = exponential_interarrivals_ns(5000.0, 256, 11);
  EXPECT_EQ(a, b);
  const auto c = exponential_interarrivals_ns(5000.0, 256, 12);
  EXPECT_NE(a, c);
  // Mean gap should sit near 1/rate = 200us.
  double mean_ns = 0.0;
  for (const auto gap : a) mean_ns += static_cast<double>(gap);
  mean_ns /= static_cast<double>(a.size());
  EXPECT_GT(mean_ns, 100'000.0);
  EXPECT_LT(mean_ns, 400'000.0);
}

TEST(OpenLoop, DrivenServerReproducesReferenceBits) {
  const ServeWorld world;
  const fp::ReductionSpec spec = fp::parse_reduction_spec("pairwise");
  const InferenceSession session = world.session(spec);
  const auto requests = make_requests(world.dataset, 20);

  core::EvalContext ref_ctx;
  ref_ctx.accumulator = spec;
  obs::Fingerprint expected;
  for (const auto& request : requests) {
    const auto row = session.row_forward(request, ref_ctx);
    expected.feed(std::span<const float>(row));
  }

  ServerConfig config;
  config.max_batch = 4;
  config.spec = spec;
  InferenceServer server(session, config);
  const auto gaps = exponential_interarrivals_ns(20'000.0, requests.size(),
                                                 5);
  const OpenLoopResult result = run_open_loop(server, requests, gaps);
  EXPECT_EQ(result.latency.completed, requests.size());
  EXPECT_EQ(result.latency.failed, 0u);
  EXPECT_EQ(result.bits, expected.value());
}

TEST(OpenLoop, SimulatedBatchingAmortisesDispatch) {
  ServiceModel model;
  model.dispatch_us = 10.0;
  model.per_row_us = 1.0;
  // Arrivals at 150k rps = 6.7us mean gaps; unbatched (cap 1) needs
  // 11us of server time per request - past saturation, so its queue and
  // tail grow without bound - while cap 16 amortises the 10us dispatch
  // across whole batches (26us per 16 arrivals) and keeps up.
  const auto unbatched =
      simulate_open_loop(model, 1, 0.0, 150'000.0, 200'000, 31);
  const auto batched =
      simulate_open_loop(model, 16, 100.0, 150'000.0, 200'000, 31);
  EXPECT_GT(batched.throughput_rps, unbatched.throughput_rps);
  EXPECT_LT(batched.p99_us, unbatched.p99_us);
  // Determinism: same seed, same numbers.
  const auto again =
      simulate_open_loop(model, 16, 100.0, 150'000.0, 200'000, 31);
  EXPECT_EQ(batched.p99_us, again.p99_us);
  EXPECT_EQ(batched.throughput_rps, again.throughput_rps);
}

}  // namespace
}  // namespace fpna::serve
