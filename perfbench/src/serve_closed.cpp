// serve-closed: requests to the batch-invariant InferenceServer from one
// driver thread that keeps 32 requests in flight (closed loop: it waits on
// the oldest future, checks it and submits the next). Every response must
// equal, bit for bit, the row_forward of its request computed at setup.
//
// Why: closed-loop capacity of the serving path (queue, batcher, row
// kernels). With 32 in flight and max_batch 16 the pipeline holds two
// full batches: while the batcher serves one, the driver refills the
// other, so the batcher never waits for requests. The driver polls the
// oldest future instead of sleeping on it, so no request waits for a
// thread to be woken. The server has no pool: its rows run on the batcher
// thread. With a 2-worker pool the run kept all four CPUs of a 4-core
// host busy, and its throughput and p99 swung about twice as far between
// runs.

#include <chrono>
#include <cstring>
#include <deque>
#include <future>

#include "fpna/core/eval_context.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/model.hpp"
#include "fpna/serve/server.hpp"
#include "fpna/serve/session.hpp"
#include "fpna/stats/descriptive.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kInFlight = 32;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kRequestPool = 1024;
constexpr std::int64_t kHidden = 40;
/// Ops per block of a traced run; blocks alternate spans on and off.
constexpr std::uint64_t kTraceBlock = 2048;
/// Length of one timing slice (about 14 000 requests).
constexpr std::uint64_t kSliceNs = 100'000'000;

/// Spin-loop hint while polling a future.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

class ServeClosed final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    state_.reset();
    state_ = std::make_unique<State>(seed);
  }

  std::uint64_t input_digest() const override {
    fpna::obs::Fingerprint f;
    for (const auto& r : state_->requests) {
      f.feed(std::span<const float>(r.features));
      feed_ints(f, r.neighbors);
    }
    feed_ints(f, state_->order);
    return f.value();
  }

  Measurement measure(const RunPlan& plan, Tracer* tracer) override {
    State& s = *state_;
    completed_ns_.clear();
    fpna::serve::ServerConfig config;
    config.max_batch = kMaxBatch;
    fpna::serve::InferenceServer server(s.session, config);

    struct InFlight {
      std::uint64_t op;
      std::uint64_t submit_ns;
      std::future<fpna::serve::InferenceResult> result;
    };
    std::deque<InFlight> in_flight;
    const auto submit = [&](std::uint64_t i) {
      fpna::serve::Request request = s.requests[s.order[i % kRequestPool]];
      request.id = i;
      const std::uint64_t t = fpna::obs::now_ns();
      in_flight.push_back({i, t, server.submit(std::move(request))});
    };

    // Requests are timed in slices of kSliceNs by completion time; each
    // slice is one stretch of the steal cutoff.
    struct Slice {
      LatencyHistogram untraced;
      LatencyHistogram traced;
      double seconds = 0.0;
      std::uint64_t steal = 0;
    };
    std::vector<Slice> slices(1);
    const CpuTimes first = cpu_times();
    CpuTimes slice_times = first;
    const auto close_slice = [&](std::uint64_t start, std::uint64_t end) {
      const CpuTimes now = cpu_times();
      slices.back().seconds = double(end - start) * 1e-9;
      slices.back().steal = now.steal - slice_times.steal;
      slice_times = now;
    };

    Measurement m;
    const std::uint64_t t0 = fpna::obs::now_ns();
    const auto budget_ns = static_cast<std::uint64_t>(plan.seconds * 1e9);
    std::uint64_t slice_start = t0;
    std::uint64_t next = 0;
    for (; next < kInFlight; ++next) submit(next);
    while (!in_flight.empty()) {
      InFlight f = std::move(in_flight.front());
      in_flight.pop_front();
      while (f.result.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        cpu_relax();
      }
      fpna::serve::InferenceResult result = f.result.get();
      const std::uint64_t done = fpna::obs::now_ns();
      const double us = double(done - f.submit_ns) * 1e-3;
      if (done - slice_start >= kSliceNs) {
        close_slice(slice_start, done);
        slices.emplace_back();
        slice_start = done;
      }
      const bool traced = tracer != nullptr && (f.op / kTraceBlock) % 2 == 1;
      if (traced) {
        tracer->set_op(static_cast<std::uint32_t>(f.op));
        const std::int32_t op = tracer->add("op", f.submit_ns, done);
        tracer->add("serve.server", result.admitted_ns, result.completed_ns, op);
        completed_ns_.push_back(result.completed_ns);
      }
      (traced ? slices.back().traced : slices.back().untraced).add(us);

      if (static_cast<std::int64_t>(f.op) == plan.corrupt_op) {
        flip_sign_bit(result.log_probs[0]);
      }
      const auto& want = s.references[s.order[f.op % kRequestPool]];
      ++m.attempted;
      if (result.log_probs.size() != want.size() ||
          std::memcmp(result.log_probs.data(), want.data(),
                      want.size() * sizeof(float)) != 0) {
        ++m.failed;
      }
      if (next < plan.min_ops || done - t0 < budget_ns) submit(next++);
    }
    close_slice(slice_start, fpna::obs::now_ns());
    m.steal_pct = steal_pct(first, slice_times);

    std::vector<std::uint64_t> steal;
    for (const Slice& slice : slices) steal.push_back(slice.steal);
    const std::uint64_t cutoff = steal_cutoff(std::move(steal));
    for (std::size_t j = 0; j < slices.size(); ++j) {
      const Slice& slice = slices[j];
      if (slice.steal > cutoff) continue;
      m.op_us.merge(slice.untraced);
      m.op_us_part[j * kTailParts / slices.size()].merge(slice.untraced);
      m.traced_us.merge(slice.traced);
      m.timed_ops += slice.untraced.count();
      m.timed_s += slice.seconds;
    }
    return m;
  }

  void probe(Tracer& tracer) override {
    const State& s = *state_;
    fpna::core::EvalContext ctx;
    tracer.set_op(0);
    for (std::size_t i = 0; i < kRequestPool; ++i) {
      Tracer::Scope span(&tracer, "dl.row_forward", 1.0);
      (void)s.session.row_forward(s.requests[i], ctx);
    }
    for (std::size_t i = 0; i + kMaxBatch <= kRequestPool; i += kMaxBatch) {
      Tracer::Scope span(&tracer, "serve.batch_forward", double(kMaxBatch));
      (void)s.session.batch_forward(
          std::span<const fpna::serve::Request>(&s.requests[i], kMaxBatch),
          ctx);
    }
  }

  void layer_metrics(const Tracer& tracer, MetricList& out) const override {
    const auto totals = tracer.totals();
    const auto& row = totals.at("dl.row_forward");
    out.push_back({"dl.row_forward.us_per_row",
                   row.total_ns * 1e-3 / row.work, "us"});

    // Requests of one batch share its completion stamp.
    std::vector<std::uint64_t> stamps = completed_ns_;
    std::sort(stamps.begin(), stamps.end());
    const auto batches = std::unique(stamps.begin(), stamps.end()) - stamps.begin();
    out.push_back({"serve.batch_rows.mean",
                   double(completed_ns_.size()) / double(batches), "count"});

    std::vector<double> server_us;
    std::vector<double> handoff_us;
    const auto& spans = tracer.spans();
    for (const auto& span : spans) {
      if (std::string(span.name) != "serve.server") continue;
      const auto& op = spans[static_cast<std::size_t>(span.parent)];
      const double server = double(span.end_ns - span.start_ns) * 1e-3;
      server_us.push_back(server);
      handoff_us.push_back(double(op.end_ns - op.start_ns) * 1e-3 - server);
    }
    out.push_back({"serve.server_us.p50", fpna::stats::quantile(std::span<const double>(server_us), 0.50), "us"});
    out.push_back({"serve.server_us.p99", fpna::stats::quantile(std::span<const double>(server_us), 0.99), "us"});
    out.push_back({"serve.handoff_us.p50", fpna::stats::quantile(std::span<const double>(handoff_us), 0.50), "us"});
  }

 private:
  struct State {
    explicit State(std::uint64_t seed)
        : dataset(make_dataset(seed)),
          model(dataset.num_features(), kHidden, dataset.num_classes,
                derive_seed(seed, 2)),
          session(model, dataset, fpna::core::EvalContext{}) {
      fpna::util::Xoshiro256pp rng(derive_seed(seed, 3));
      const auto nodes = static_cast<std::uint64_t>(dataset.num_nodes());
      const fpna::core::EvalContext ctx;
      for (std::size_t i = 0; i < kRequestPool; ++i) {
        const auto node = static_cast<std::int64_t>(rng() % nodes);
        requests.push_back(
            fpna::serve::InferenceSession::deployed_request(dataset, node, i));
        references.push_back(session.row_forward(requests.back(), ctx));
        order.push_back(static_cast<std::uint32_t>(rng() % kRequestPool));
      }
    }

    static fpna::dl::Dataset make_dataset(std::uint64_t seed) {
      auto config = fpna::dl::DatasetConfig::small();
      config.seed = derive_seed(seed, 1);
      return fpna::dl::make_synthetic_citation_dataset(config);
    }

    fpna::dl::Dataset dataset;
    fpna::dl::GraphSageModel model;
    fpna::serve::InferenceSession session;
    std::vector<fpna::serve::Request> requests;
    std::vector<std::vector<float>> references;
    std::vector<std::uint32_t> order;
  };

  std::unique_ptr<State> state_;
  std::vector<std::uint64_t> completed_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_closed() {
  return std::make_unique<ServeClosed>();
}

}  // namespace perfbench
