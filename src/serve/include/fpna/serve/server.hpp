#pragma once
// The batch-invariant inference server.
//
// submit() admits a request into the MPSC queue and returns a future;
// one batcher thread drains the queue in admission order and coalesces
// requests into dynamic batches under a (max_batch, max_wait) policy: a
// batch dispatches as soon as it holds max_batch requests, or when
// max_wait has elapsed since its oldest member was staged - classic
// latency/throughput knobs, and both are *free* to vary because the
// per-request bits are batch-invariant by construction (session.hpp).
//
// Failure containment follows comm::BucketScheduler's join-and-rethrow
// discipline. Per-row faults surface as that row's exception_ptr and
// fail only the owning request's promise. If the batch *infrastructure*
// throws (pool submission, allocation), the pool's parallel_for joins
// every worker before rethrowing, and the batcher catches the rethrow
// and fails every still-unfulfilled promise of that batch - a worker
// exception can never leave a submitted future dangling (pinned by
// serve_test's injected-throw case).

#include <atomic>
#include <cstddef>
#include <chrono>
#include <future>
#include <thread>

#include "fpna/core/eval_context.hpp"
#include "fpna/serve/queue.hpp"
#include "fpna/serve/session.hpp"

namespace fpna::util {
class ThreadPool;
}

namespace fpna::serve {

struct ServerConfig {
  /// Largest batch one forward pass may coalesce.
  std::size_t max_batch = 8;
  /// Longest a staged request may wait for batch-mates.
  std::chrono::nanoseconds max_wait{100'000};
  /// Admission-queue capacity; a full queue blocks submit() (requests
  /// are never dropped).
  std::size_t max_queue = 1024;
  /// Pool for intra-batch row parallelism (nullptr: rows run serially
  /// on the batcher thread).
  util::ThreadPool* pool = nullptr;
  /// Reduction spec every request's forward routes through.
  fp::ReductionSpec spec{};
  /// Observability sink (spans, counters, the latency histogram);
  /// nullptr is the certified-identical default.
  obs::Recorder* recorder = nullptr;
  /// Test-only per-row fault injection (see FaultHook).
  FaultHook fault_hook;
};

class InferenceServer {
 public:
  /// `session` must outlive the server.
  InferenceServer(const InferenceSession& session, ServerConfig config);
  ~InferenceServer();  // drains admitted requests, then stops

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Admits one request. Blocks while the queue is full; throws
  /// std::runtime_error if the server is already shut down.
  std::future<InferenceResult> submit(Request request);

  /// Closes admission, serves everything already admitted, joins the
  /// batcher. Safe to call repeatedly and from several threads at once:
  /// only the first call closes and joins, later calls return at once.
  /// The destructor calls it.
  void shutdown();

 private:
  struct Submission {
    Request request;
    std::promise<InferenceResult> promise;
    std::uint64_t admitted_ns = 0;
  };

  void batcher_loop();
  void serve_batch(std::deque<Submission>& staged, std::size_t count);

  const InferenceSession& session_;
  ServerConfig config_;
  core::EvalContext ctx_;
  MpscQueue<Submission> queue_;
  std::thread batcher_;
  std::atomic<bool> stopped_{false};
};

}  // namespace fpna::serve
