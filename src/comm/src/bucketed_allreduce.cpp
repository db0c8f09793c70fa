#include "fpna/comm/bucketed_allreduce.hpp"

#include <cstdint>
#include <numeric>
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

/// Packs one bucket of every rank list into flat per-rank buffers. Slot s
/// of the bucket is tensor `emit_order[s]`; each tensor is checked against
/// its declared size at pack time - the guard against a bucket firing
/// before every one of its tensors landed.
template <typename T>
collective::RankDataT<T> pack_bucket(const std::vector<TensorList<T>>& lists,
                                     const Bucket& bucket,
                                     const std::vector<std::size_t>& emit_order,
                                     const std::vector<std::size_t>& sizes) {
  collective::RankDataT<T> packed(lists.size());
  for (std::size_t r = 0; r < lists.size(); ++r) {
    packed[r].reserve(bucket.elements);
    for (std::size_t s = bucket.first_tensor;
         s < bucket.first_tensor + bucket.tensor_count; ++s) {
      const std::size_t t = emit_order[s];
      const auto& tensor = lists[r][t];
      if (tensor.size() != sizes[t]) {
        throw std::logic_error(
            "pack_bucket: tensor " + std::to_string(t) + " of rank " +
            std::to_string(r) + " holds " + std::to_string(tensor.size()) +
            " elements, declared " + std::to_string(sizes[t]) +
            " - its emission never reached this reduction");
      }
      packed[r].insert(packed[r].end(), tensor.begin(), tensor.end());
    }
  }
  return packed;
}

/// Scatters a bucket's reduced flat buffer back into per-tensor results
/// (sizes tensor-indexed, slot mapping as in pack_bucket).
template <typename T>
void unpack_bucket(const std::vector<T>& reduced, const Bucket& bucket,
                   const std::vector<std::size_t>& emit_order,
                   const std::vector<std::size_t>& sizes, TensorList<T>& out) {
  std::size_t offset = 0;
  for (std::size_t s = bucket.first_tensor;
       s < bucket.first_tensor + bucket.tensor_count; ++s) {
    const std::size_t t = emit_order[s];
    out[t].assign(
        reduced.begin() + static_cast<std::ptrdiff_t>(offset),
        reduced.begin() + static_cast<std::ptrdiff_t>(offset + sizes[t]));
    offset += sizes[t];
  }
}

/// The per-bucket EvalContext: a private copy of the caller's context with
/// the bucket's own RunContext when it has one (the arrival tree's, seeded
/// in bucket order) and the user's hook applied last.
core::EvalContext bucket_context(const core::EvalContext& ctx,
                                 const BucketedConfig& config, std::size_t b,
                                 core::RunContext* bucket_run) {
  core::EvalContext bctx = ctx;
  if (bucket_run != nullptr) bctx.run = bucket_run;
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
  // Every tensor is final up front: announce the slots in tensor order,
  // so buckets fire (and draw their seeds) in bucket order.
  std::vector<std::size_t> identity(sizes.size());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  OverlappedBucketAllreduce<T> reducer(pg, rank_tensors, sizes, identity,
                                       algorithm, ctx, config);
  for (std::size_t s = 0; s < sizes.size(); ++s) reducer.notify_slot_ready(s);
  return reducer.finish();
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
  // buckets still fire (on the pool when overlap is on) so the per-bucket
  // hook can retarget the exact accumulator.
  TensorList<T> result(sizes.size());
  for (std::size_t t = 0; t < sizes.size(); ++t) result[t].resize(sizes[t]);
  const auto fold_bucket = [&](std::size_t b, const Bucket& bucket) {
    const core::EvalContext bctx = bucket_context(ctx, config, b, nullptr);
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
    std::vector<const T*> runs;
    for (std::size_t t = bucket.first_tensor;
         t < bucket.first_tensor + bucket.tensor_count; ++t) {
      runs.clear();
      for (const auto& ids : of_rank) append_runs(runs, samples, ids, t);
      fold.sum_each(runs, sizes[t], result[t].data());
    }
  };
  BucketScheduler scheduler(sizes, config.bucket_cap_elements, fold_bucket,
                            config.overlap ? ctx.pool : nullptr,
                            ctx.recorder);
  for (std::size_t t = 0; t < sizes.size(); ++t) scheduler.notify_ready(t);
  scheduler.finish();
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
  std::optional<core::RunContext> run;
  if (!seeds_.empty()) run.emplace(seeds_[bucket_index]);
  const core::EvalContext bctx =
      bucket_context(ctx_, config_, bucket_index, run ? &*run : nullptr);
  // Size-checked pack: a bucket fired (possibly backfilled by finish())
  // before every one of its tensors landed must diagnose, not reduce a
  // short buffer.
  const auto packed =
      pack_bucket(rank_tensors_, bucket, emit_order_, tensor_sizes_);
  const std::vector<T> reduced =
      pg_.allreduce(packed, algorithm_, bctx, config_.block_elements);
  // Runs inside the scheduler's "bucket/<b>" scope + firing span.
  emit_bucket_provenance(ctx_.recorder, bucket_index, reduced, bctx);
  unpack_bucket(reduced, bucket, emit_order_, tensor_sizes_, combined_);
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
