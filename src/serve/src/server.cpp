#include "fpna/serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fpna/obs/clock.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::serve {

InferenceServer::InferenceServer(const InferenceSession& session,
                                 ServerConfig config)
    : session_(session),
      config_(std::move(config)),
      queue_(config_.max_queue == 0 ? 1 : config_.max_queue) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("InferenceServer: max_batch == 0");
  }
  ctx_.accumulator = config_.spec;
  ctx_.pool = config_.pool;
  ctx_.recorder = config_.recorder;
  batcher_ = std::thread([this] { batcher_loop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<InferenceResult> InferenceServer::submit(Request request) {
  Submission submission;
  submission.request = std::move(request);
  submission.admitted_ns = obs::now_ns();
  std::future<InferenceResult> future = submission.promise.get_future();
  if (!queue_.push(std::move(submission))) {
    throw std::runtime_error("InferenceServer: submit after shutdown");
  }
  return future;
}

void InferenceServer::shutdown() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  if (batcher_.joinable()) batcher_.join();
}

void InferenceServer::batcher_loop() {
  std::deque<Submission> staged;
  for (;;) {
    if (staged.empty()) {
      queue_.drain(staged, config_.max_wait);
      if (staged.empty()) {
        if (queue_.closed()) {
          // Exit only once no producer still holds an admission slot:
          // a submit() racing close() either lands (approx_size > 0,
          // drained next iteration) or aborts (slot released) - either
          // way no admitted request is ever abandoned.
          if (queue_.approx_size() == 0) return;
          std::this_thread::yield();
        }
        continue;
      }
    }
    // Dynamic coalescing: dispatch at max_batch, or when the oldest
    // staged request has waited max_wait.
    const std::uint64_t deadline =
        staged.front().admitted_ns +
        static_cast<std::uint64_t>(config_.max_wait.count());
    while (staged.size() < config_.max_batch && !queue_.closed()) {
      const std::uint64_t now = obs::now_ns();
      if (now >= deadline) break;
      queue_.drain(staged, std::chrono::nanoseconds(
                               static_cast<std::int64_t>(deadline - now)));
    }
    serve_batch(staged, std::min(config_.max_batch, staged.size()));
  }
}

void InferenceServer::serve_batch(std::deque<Submission>& staged,
                                  std::size_t count) {
  std::vector<Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(std::move(staged[i].request));
  }

  // Join-and-rethrow containment: row faults come back per-outcome and
  // fail only their own promise; an infrastructure throw (pool
  // submission, allocation) surfaces here after parallel_for's join and
  // fails every promise of this batch - never a dangling future.
  std::vector<RowOutcome> outcomes;
  std::exception_ptr batch_error;
  try {
    outcomes = session_.batch_forward(
        std::span<const Request>(requests.data(), count), ctx_,
        config_.fault_hook);
  } catch (...) {
    batch_error = std::current_exception();
  }

  const std::uint64_t completed = obs::now_ns();
  obs::Recorder* recorder = config_.recorder;
  for (std::size_t i = 0; i < count; ++i) {
    Submission& submission = staged[i];
    if (batch_error != nullptr) {
      submission.promise.set_exception(batch_error);
      continue;
    }
    if (outcomes[i].error != nullptr) {
      submission.promise.set_exception(outcomes[i].error);
      continue;
    }
    InferenceResult result;
    result.log_probs = std::move(outcomes[i].log_probs);
    result.admitted_ns = submission.admitted_ns;
    result.completed_ns = completed;
    if (recorder != nullptr) {
      recorder->metrics()
          .histogram("serve.latency_ns")
          .record(completed - submission.admitted_ns);
    }
    submission.promise.set_value(std::move(result));
  }
  if (recorder != nullptr) {
    recorder->metrics().counter("serve.requests").add(count);
    recorder->metrics().counter("serve.batches").increment();
    recorder->metrics().gauge("serve.queue_depth").set(
        static_cast<double>(queue_.approx_size()));
  }
  staged.erase(staged.begin(),
               staged.begin() + static_cast<std::ptrdiff_t>(count));
}

}  // namespace fpna::serve
