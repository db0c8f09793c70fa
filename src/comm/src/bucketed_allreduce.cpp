#include "fpna/comm/bucketed_allreduce.hpp"

#include <cstdint>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "fpna/core/run_context.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::comm {

namespace {

/// Per-bucket provenance: fingerprint of the reduced flat buffer, under
/// whatever scope the caller established ("bucket/<b>" in the firing
/// paths). Emitted by the thread that ran the reduction; the canonical
/// provenance order keys on (scope, site, index), so concurrent buckets
/// land deterministically regardless of firing order.
template <typename T>
void emit_bucket_provenance(obs::Recorder* recorder, std::size_t bucket_index,
                            const std::vector<T>& reduced,
                            const core::EvalContext& bctx) {
  if (recorder == nullptr) return;
  obs::Fingerprint print;
  for (const T v : reduced) print.feed(v);
  recorder->provenance({"comm.bucketed_allreduce", "bucket",
                        static_cast<std::int64_t>(bucket_index), -1,
                        fp::to_string(bctx.reduction_in_effect()),
                        print.value(), reduced.size()});
}

/// Checks that every list in `lists` agrees with `sizes` (tensor count and
/// per-tensor element counts).
template <typename T>
void validate_shapes(const std::vector<TensorList<T>>& lists,
                     const std::vector<std::size_t>& sizes, const char* op) {
  for (const auto& list : lists) {
    if (list.size() != sizes.size()) {
      throw std::invalid_argument(std::string(op) +
                                  ": tensor count mismatch across entries");
    }
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      if (list[t].size() != sizes[t]) {
        throw std::invalid_argument(std::string(op) + ": tensor " +
                                    std::to_string(t) +
                                    " size mismatch across entries");
      }
    }
  }
}

template <typename T>
std::vector<std::size_t> sizes_of(const TensorList<T>& tensors) {
  std::vector<std::size_t> sizes(tensors.size());
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    sizes[t] = tensors[t].size();
  }
  return sizes;
}

/// Runs `task(b)` for every bucket index, inline or on the pool. Overlap
/// submits each bucket as soon as the caller-side preparation for it is
/// done (`prepare(b)` runs on this thread, in order - the "production"
/// side); all tasks are joined before returning, and the first failure is
/// rethrown after the join so no task outlives its captures.
template <typename Prepare, typename Task>
void for_each_bucket(std::size_t buckets, util::ThreadPool* pool,
                     bool overlap, Prepare&& prepare, Task&& task) {
  if (overlap && pool != nullptr) {
    std::vector<std::future<void>> pending;
    pending.reserve(buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
      auto work = prepare(b);
      pending.push_back(
          pool->submit([work = std::move(work), &task, b]() mutable {
            task(b, std::move(work));
          }));
    }
    std::exception_ptr first_error;
    for (auto& future : pending) {
      try {
        future.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    task(b, prepare(b));
  }
}

/// Packs one bucket of every rank list into flat per-rank buffers. Slot s
/// of the bucket maps to tensor `tensor_of(s)` (the identity for the
/// packed paths, the emission order for the overlap engine). When
/// `expected_sizes` (tensor-indexed) is given, each tensor is checked at
/// pack time - the overlap engine's guard against a bucket firing before
/// every one of its tensors landed.
template <typename T, typename MapFn>
collective::RankDataT<T> pack_bucket(
    const std::vector<TensorList<T>>& lists, const Bucket& bucket,
    MapFn&& tensor_of, const std::vector<std::size_t>* expected_sizes) {
  collective::RankDataT<T> packed(lists.size());
  for (std::size_t r = 0; r < lists.size(); ++r) {
    packed[r].reserve(bucket.elements);
    for (std::size_t s = bucket.first_tensor;
         s < bucket.first_tensor + bucket.tensor_count; ++s) {
      const std::size_t t = tensor_of(s);
      const auto& tensor = lists[r][t];
      if (expected_sizes != nullptr &&
          tensor.size() != (*expected_sizes)[t]) {
        throw std::logic_error(
            "pack_bucket: tensor " + std::to_string(t) + " of rank " +
            std::to_string(r) + " holds " + std::to_string(tensor.size()) +
            " elements, declared " + std::to_string((*expected_sizes)[t]) +
            " - its emission never reached this reduction");
      }
      packed[r].insert(packed[r].end(), tensor.begin(), tensor.end());
    }
  }
  return packed;
}

/// Scatters a bucket's reduced flat buffer back into per-tensor results
/// (sizes tensor-indexed, slot mapping as in pack_bucket).
template <typename T, typename MapFn>
void unpack_bucket(const std::vector<T>& reduced, const Bucket& bucket,
                   MapFn&& tensor_of,
                   const std::vector<std::size_t>& sizes, TensorList<T>& out) {
  std::size_t offset = 0;
  for (std::size_t s = bucket.first_tensor;
       s < bucket.first_tensor + bucket.tensor_count; ++s) {
    const std::size_t t = tensor_of(s);
    out[t].assign(
        reduced.begin() + static_cast<std::ptrdiff_t>(offset),
        reduced.begin() + static_cast<std::ptrdiff_t>(offset + sizes[t]));
    offset += sizes[t];
  }
}

/// The per-bucket EvalContext: a private copy of the caller's context with
/// a per-bucket RunContext for the arrival tree (seed drawn by the caller
/// in bucket order) and the user's hook applied last.
core::EvalContext bucket_context(const core::EvalContext& ctx,
                                 const BucketedConfig& config, std::size_t b,
                                 std::optional<core::RunContext>& run_storage,
                                 bool needs_run, std::uint64_t seed) {
  core::EvalContext bctx = ctx;
  if (needs_run) {
    run_storage.emplace(seed);
    bctx.run = &*run_storage;
  }
  if (config.context_hook) config.context_hook(b, bctx);
  return bctx;
}

/// Pointers to tensor t of each sample in `sample_ids`, in that order.
template <typename T>
void append_runs(std::vector<const T*>& runs,
                 const std::vector<TensorList<T>>& samples,
                 const std::vector<std::size_t>& sample_ids, std::size_t t) {
  for (const std::size_t s : sample_ids) runs.push_back(samples[s][t].data());
}

}  // namespace

template <typename T>
TensorList<T> bucketed_allreduce(ProcessGroup& pg,
                                 const std::vector<TensorList<T>>& rank_tensors,
                                 collective::Algorithm algorithm,
                                 const core::EvalContext& ctx,
                                 const BucketedConfig& config) {
  if (rank_tensors.size() != pg.local_contributions()) {
    throw std::invalid_argument(
        "bucketed_allreduce: expected " +
        std::to_string(pg.local_contributions()) +
        " tensor lists for the '" + pg.backend() + "' backend, got " +
        std::to_string(rank_tensors.size()));
  }
  const std::vector<std::size_t> sizes = sizes_of(rank_tensors.front());
  validate_shapes(rank_tensors, sizes, "bucketed_allreduce");

  const auto buckets =
      BucketAssigner(config.bucket_cap_elements).assign(sizes);

  const bool needs_run = algorithm == collective::Algorithm::kArrivalTree;
  if (needs_run && ctx.run == nullptr) {
    throw std::invalid_argument(
        "bucketed_allreduce: arrival-tree needs EvalContext.run");
  }
  // Per-bucket arrival entropy, drawn in bucket order on this thread so
  // the bits cannot depend on the pool's scheduling.
  std::vector<std::uint64_t> seeds(buckets.size(), 0);
  if (needs_run) {
    for (auto& seed : seeds) seed = ctx.run->rng()();
  }

  TensorList<T> result(sizes.size());
  for (std::size_t t = 0; t < sizes.size(); ++t) result[t].resize(sizes[t]);

  // Packing is the caller-side "gradient production" stand-in; reduction
  // and unpacking run per bucket (possibly on the pool). Unpacking writes
  // disjoint tensors per bucket, so tasks never alias.
  const auto identity = [](std::size_t s) { return s; };
  const auto pack = [&](std::size_t b) {
    return pack_bucket(rank_tensors, buckets[b], identity, nullptr);
  };
  const auto reduce_and_unpack = [&](std::size_t b,
                                     collective::RankDataT<T> packed) {
    std::optional<obs::ScopeGuard> scope_guard;
    if (ctx.recorder != nullptr) {
      scope_guard.emplace("bucket/" + std::to_string(b));
    }
    obs::Span span(ctx.recorder, "comm.bucket.reduce");
    span.arg("bucket", static_cast<std::uint64_t>(b));
    span.arg("elements", static_cast<std::uint64_t>(buckets[b].elements));
    span.arg("algorithm", collective::to_string(algorithm));
    std::optional<core::RunContext> run_storage;
    const core::EvalContext bctx =
        bucket_context(ctx, config, b, run_storage, needs_run, seeds[b]);
    const std::vector<T> reduced =
        pg.allreduce(packed, algorithm, bctx, config.block_elements);
    emit_bucket_provenance(ctx.recorder, b, reduced, bctx);
    unpack_bucket(reduced, buckets[b], identity, sizes, result);
  };
  // MPI-style backends must issue collectives in the same order on every
  // rank and without concurrent calls: overlap degrades to the inline
  // schedule there (same bits either way - the per-bucket seeds were
  // drawn above, independent of the schedule).
  util::ThreadPool* pool =
      pg.supports_concurrent_allreduce() ? ctx.pool : nullptr;
  for_each_bucket(buckets.size(), pool, config.overlap, pack,
                  reduce_and_unpack);
  return result;
}

template <typename T>
TensorList<T> sharded_bucketed_allreduce(
    ProcessGroup& pg, const std::vector<TensorList<T>>& samples,
    std::span<const std::size_t> owner, collective::Algorithm algorithm,
    const core::EvalContext& ctx, const BucketedConfig& config) {
  if (pg.local_contributions() != pg.size()) {
    throw std::invalid_argument(
        "sharded_bucketed_allreduce: needs a backend that plays every rank "
        "(exact-state exchange over a real wire is not implemented)");
  }
  if (samples.empty()) {
    throw std::invalid_argument("sharded_bucketed_allreduce: no samples");
  }
  if (owner.size() != samples.size()) {
    throw std::invalid_argument(
        "sharded_bucketed_allreduce: owner map size must equal sample count");
  }
  const std::size_t ranks = pg.size();
  for (const std::size_t r : owner) {
    if (r >= ranks) {
      throw std::out_of_range(
          "sharded_bucketed_allreduce: owner rank out of range");
    }
  }
  const std::vector<std::size_t> sizes = sizes_of(samples.front());
  validate_shapes(samples, sizes, "sharded_bucketed_allreduce");

  // Per-rank sample index lists, in sample order (the fold order both
  // paths commit to).
  std::vector<std::vector<std::size_t>> of_rank(ranks);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    of_rank[owner[s]].push_back(s);
  }

  if (algorithm != collective::Algorithm::kReproducible) {
    // Each rank folds its samples (in sample order) through the context's
    // registry-selected accumulator in T precision - the rounded local
    // partial a real worker would hand to the wire - then the partials
    // meet in the chosen collective. Bits move with (P, owner, algorithm).
    std::vector<TensorList<T>> partials(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
      partials[r].resize(sizes.size());
      for (std::size_t t = 0; t < sizes.size(); ++t) {
        partials[r][t].assign(sizes[t], T{0});
      }
    }
    const fp::Fold<T>& fold = fp::Fold<T>::of(ctx.reduction_in_effect());
    std::vector<const T*> runs;
    for (std::size_t r = 0; r < ranks; ++r) {
      for (std::size_t t = 0; t < sizes.size(); ++t) {
        runs.clear();
        append_runs(runs, samples, of_rank[r], t);
        fold.sum_each(runs, sizes[t], partials[r][t].data());
      }
    }
    return bucketed_allreduce(pg, partials, algorithm, ctx, config);
  }

  // Reproducible: exact per-element local state per rank, exact merge in
  // rank order, one final rounding - bitwise invariant to rank count,
  // owner assignment, bucket cap and arrival order by construction. The
  // bucket loop still runs (on the pool when overlap is on) so the
  // per-bucket hook can retarget the exact accumulator.
  const auto buckets =
      BucketAssigner(config.bucket_cap_elements).assign(sizes);
  TensorList<T> result(sizes.size());
  for (std::size_t t = 0; t < sizes.size(); ++t) result[t].resize(sizes[t]);

  const auto prepare = [](std::size_t) { return 0; };
  const auto reduce_bucket = [&](std::size_t b, int) {
    std::optional<core::RunContext> run_storage;
    const core::EvalContext bctx =
        bucket_context(ctx, config, b, run_storage, /*needs_run=*/false, 0);
    const fp::ReductionSpec spec =
        bctx.accumulator.value_or(fp::AlgorithmId::kSuperaccumulator);
    if (!fp::traits_of(spec).exact_merge) {
      throw std::invalid_argument(
          "sharded_bucketed_allreduce: reproducible path needs an "
          "exact-merge accumulator (superaccumulator or binned)");
    }
    // Merging the ranks' exact local states in rank order is one stream
    // over every rank's samples in that order.
    const fp::Fold<T>& fold = fp::Fold<T>::of(spec);
    const Bucket& bucket = buckets[b];
    std::vector<const T*> runs;
    for (std::size_t t = bucket.first_tensor;
         t < bucket.first_tensor + bucket.tensor_count; ++t) {
      runs.clear();
      for (const auto& ids : of_rank) append_runs(runs, samples, ids, t);
      fold.sum_each(runs, sizes[t], result[t].data());
    }
  };
  for_each_bucket(buckets.size(), ctx.pool, config.overlap, prepare,
                  reduce_bucket);
  return result;
}

template <typename T>
OverlappedBucketAllreduce<T>::OverlappedBucketAllreduce(
    ProcessGroup& pg, const std::vector<TensorList<T>>& rank_tensors,
    std::span<const std::size_t> tensor_sizes,
    std::span<const std::size_t> emit_order,
    collective::Algorithm algorithm, const core::EvalContext& ctx,
    const BucketedConfig& config)
    : pg_(pg),
      rank_tensors_(rank_tensors),
      tensor_sizes_(tensor_sizes.begin(), tensor_sizes.end()),
      emit_order_(emit_order.begin(), emit_order.end()),
      algorithm_(algorithm),
      ctx_(ctx),
      config_(config),
      combined_(tensor_sizes.size()) {
  if (rank_tensors_.size() != pg_.local_contributions()) {
    throw std::invalid_argument(
        "OverlappedBucketAllreduce: expected " +
        std::to_string(pg_.local_contributions()) +
        " tensor lists for the '" + pg_.backend() + "' backend, got " +
        std::to_string(rank_tensors_.size()));
  }
  std::vector<char> seen(tensor_sizes_.size(), 0);
  for (const std::size_t t : emit_order_) {
    if (t >= tensor_sizes_.size() || seen[t]) {
      throw std::invalid_argument(
          "OverlappedBucketAllreduce: emit_order must be a permutation of "
          "the tensor indices");
    }
    seen[t] = 1;
  }
  if (emit_order_.size() != tensor_sizes_.size()) {
    throw std::invalid_argument(
        "OverlappedBucketAllreduce: emit_order must name every tensor");
  }
  std::vector<std::size_t> slot_sizes(emit_order_.size());
  for (std::size_t s = 0; s < emit_order_.size(); ++s) {
    slot_sizes[s] = tensor_sizes_[emit_order_[s]];
  }
  util::ThreadPool* pool =
      config_.overlap && pg_.supports_concurrent_allreduce() ? ctx_.pool
                                                             : nullptr;
  scheduler_.emplace(
      std::span<const std::size_t>(slot_sizes), config_.bucket_cap_elements,
      [this](std::size_t b, const Bucket& bucket) { fire(b, bucket); },
      pool, ctx_.recorder);
  if (algorithm_ == collective::Algorithm::kArrivalTree) {
    if (ctx_.run == nullptr) {
      throw std::invalid_argument(
          "OverlappedBucketAllreduce: arrival-tree needs EvalContext.run");
    }
    // Bucket-order draws on the constructing thread: the per-bucket
    // entropy cannot depend on firing order or pool scheduling.
    seeds_.resize(scheduler_->buckets().size());
    for (auto& seed : seeds_) seed = ctx_.run->rng()();
  }
}

template <typename T>
void OverlappedBucketAllreduce<T>::fire(std::size_t bucket_index,
                                        const Bucket& bucket) {
  const bool needs_run = algorithm_ == collective::Algorithm::kArrivalTree;
  std::optional<core::RunContext> run_storage;
  const core::EvalContext bctx =
      bucket_context(ctx_, config_, bucket_index, run_storage, needs_run,
                     needs_run ? seeds_[bucket_index] : 0);
  const auto slot_tensor = [this](std::size_t s) { return emit_order_[s]; };
  // Size-checked pack: a bucket fired (possibly backfilled by finish())
  // before every one of its tensors landed must diagnose, not reduce a
  // short buffer.
  const auto packed =
      pack_bucket(rank_tensors_, bucket, slot_tensor, &tensor_sizes_);
  const std::vector<T> reduced =
      pg_.allreduce(packed, algorithm_, bctx, config_.block_elements);
  // Runs inside the scheduler's "bucket/<b>" scope + firing span.
  emit_bucket_provenance(ctx_.recorder, bucket_index, reduced, bctx);
  unpack_bucket(reduced, bucket, slot_tensor, tensor_sizes_, combined_);
}

template <typename T>
TensorList<T> OverlappedBucketAllreduce<T>::finish() {
  scheduler_->finish();
  return std::move(combined_);
}

#define FPNA_INSTANTIATE_BUCKETED(T)                                          \
  template TensorList<T> bucketed_allreduce<T>(                               \
      ProcessGroup&, const std::vector<TensorList<T>>&,                       \
      collective::Algorithm, const core::EvalContext&,                        \
      const BucketedConfig&);                                                 \
  template TensorList<T> sharded_bucketed_allreduce<T>(                       \
      ProcessGroup&, const std::vector<TensorList<T>>&,                       \
      std::span<const std::size_t>, collective::Algorithm,                    \
      const core::EvalContext&, const BucketedConfig&);                       \
  template class OverlappedBucketAllreduce<T>;

FPNA_INSTANTIATE_BUCKETED(double)
FPNA_INSTANTIATE_BUCKETED(float)

#undef FPNA_INSTANTIATE_BUCKETED

}  // namespace fpna::comm
