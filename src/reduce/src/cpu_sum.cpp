#include "fpna/reduce/cpu_sum.hpp"

#include <mutex>
#include <numeric>
#include <vector>

#include "fpna/core/chunking.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/permutation.hpp"

namespace fpna::reduce {

namespace {

/// Static chunk boundaries, OpenMP static-schedule style. The rule
/// itself lives in core/chunking.hpp (shared with collective's shard
/// split and pinned against ThreadPool::parallel_for by core_test);
/// cpu_sum's policy on top of it: never more chunks than elements, and
/// an empty input still yields one (empty) chunk.
std::vector<std::pair<std::size_t, std::size_t>> static_chunks(
    std::size_t n, std::size_t chunks) {
  if (chunks == 0) chunks = 1;
  chunks = std::min(chunks, n == 0 ? std::size_t{1} : n);
  return core::even_chunks(n, chunks);
}

/// Fingerprint of one partial's current value (read-only on the state:
/// tracing can never move bits).
std::uint64_t partial_bits(const fp::Fold<double>& fold, const void* partial) {
  double value = 0.0;
  fold.results(partial, &value, 1);
  obs::Fingerprint print;
  print.feed(value);
  return print.value();
}

}  // namespace

double cpu_sum(std::span<const double> data, const core::EvalContext& ctx,
               std::size_t num_threads) {
  obs::Span span(ctx.recorder, "reduce.cpu_sum");
  if (ctx.recorder != nullptr) {
    span.arg("n", static_cast<std::uint64_t>(data.size()));
    span.arg("num_threads", static_cast<std::uint64_t>(num_threads));
    span.arg("spec", fp::to_string(ctx.reduction_in_effect()));
    ctx.recorder->metrics().counter("reduce.cpu_sum.calls").increment();
    ctx.recorder->metrics()
        .counter("reduce.cpu_sum.elements")
        .add(data.size());
  }

  // One partial per chunk, every addend entering in storage precision and
  // the state running at the spec's accumulate dtype, then the total.
  // `num_threads` fixes the chunk boundaries - and therefore the bits for
  // non-exact-merge accumulators - independently of how many workers a
  // pool happens to have.
  const fp::Fold<double>& fold =
      fp::Fold<double>::of(ctx.reduction_in_effect());
  const auto ranges = static_chunks(data.size(), num_threads);
  fp::FoldStates<double> states(fold, ranges.size());
  // The total is the first partial in merge order, and every later one
  // merges into it - no empty state in front, so one chunk's total is
  // that chunk's stream, bit for bit the one-shot fp::reduce.
  void* total = nullptr;
  const auto merge_chunk = [&](std::size_t c) {
    if (total == nullptr) {
      total = states[c];
    } else {
      fold.merge(total, states[c], 1);
    }
  };
  // Chunk provenance: the partials' fingerprints, emitted from the
  // calling thread in chunk order, so per-thread provenance seq is
  // pool-schedule-invariant.
  std::vector<std::uint64_t> chunk_bits(
      ctx.recorder != nullptr ? ranges.size() : 0);
  const auto add_chunk = [&](std::size_t c) {
    const auto [begin, end] = ranges[c];
    fold.add_run(states[c], data.data() + begin, end - begin, 1);
  };

  // On ctx.pool the partials merge in index order after a barrier by
  // default (and whenever determinism is in effect). Merging in OS
  // completion order under a mutex - the genuine non-determinism the
  // paper's Listing 2 exhibits - is opt-in: the context must carry a run
  // identity or explicitly set deterministic_override = false (OS
  // scheduling needs no entropy source, so cpu_sum_threads opts in via
  // the override).
  const bool os_completion_order =
      ctx.pool != nullptr && !ctx.deterministic_in_effect() &&
      (ctx.run != nullptr || ctx.deterministic_override.has_value());
  if (ctx.pool == nullptr) {
    for (std::size_t c = 0; c < ranges.size(); ++c) add_chunk(c);
  } else {
    std::mutex mutex;
    ctx.pool->parallel_for(
        ranges.size(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t c = begin; c < end; ++c) {
            add_chunk(c);
            if (!os_completion_order) continue;
            if (!chunk_bits.empty()) {
              chunk_bits[c] = partial_bits(fold, states[c]);
            }
            const std::lock_guard lock(mutex);
            merge_chunk(c);
          }
        },
        ranges.size());
  }
  if (!os_completion_order) {
    // Chunk-index order, unless the inline path runs non-deterministic:
    // then the completion order is drawn from the run (same stream the
    // seed's unordered sum used).
    std::vector<std::size_t> order(ranges.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (ctx.nondeterministic()) {
      auto rng = ctx.run->fork(0xCB);
      util::shuffle(order, rng);
    }
    for (std::size_t c = 0; c < chunk_bits.size(); ++c) {
      chunk_bits[c] = partial_bits(fold, states[c]);
    }
    for (const std::size_t c : order) merge_chunk(c);
  }
  double result = 0.0;
  fold.results(total, &result, 1);

  if (ctx.recorder != nullptr) {
    const std::string spec = fp::to_string(ctx.reduction_in_effect());
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      ctx.recorder->provenance({"reduce.cpu_sum", "chunk",
                                static_cast<std::int64_t>(c), -1, spec,
                                chunk_bits[c],
                                ranges[c].second - ranges[c].first});
    }
    obs::Fingerprint print;
    print.feed(result);
    ctx.recorder->provenance({"reduce.cpu_sum", "result", -1, -1, spec,
                              print.value(), data.size()});
  }
  return result;
}

double cpu_sum_serial(std::span<const double> data) noexcept {
  return fp::reduce(fp::AlgorithmId::kSerial, data);
}

double cpu_sum_ordered(std::span<const double> data,
                       std::size_t /*num_threads*/) noexcept {
  // The ordered construct serialises the adds in iteration order: the
  // value is the serial sum by definition (threads only overlap the loop
  // body *outside* the ordered region, and here the body is the add).
  return fp::reduce(fp::AlgorithmId::kSerial, data);
}

double cpu_sum_unordered(std::span<const double> data, core::RunContext& ctx,
                         std::size_t num_threads) {
  return cpu_sum(data, core::EvalContext::nondeterministic_on(ctx),
                 num_threads);
}

double cpu_sum_threads(std::span<const double> data, util::ThreadPool& pool) {
  core::EvalContext ctx;
  ctx.pool = &pool;
  ctx.deterministic_override = false;
  return cpu_sum(data, ctx, pool.size());
}

double cpu_sum_chunked_deterministic(std::span<const double> data,
                                     std::size_t num_threads) noexcept {
  return cpu_sum(data, core::EvalContext{}, num_threads);
}

double cpu_sum_reproducible(std::span<const double> data,
                            std::size_t num_threads) {
  // Chunked superaccumulators merged in index order. Exactness of the
  // accumulator makes the result independent of both the chunking and the
  // merge order (property-tested).
  core::EvalContext ctx;
  ctx.accumulator = fp::AlgorithmId::kSuperaccumulator;
  return cpu_sum(data, ctx, num_threads);
}

}  // namespace fpna::reduce
