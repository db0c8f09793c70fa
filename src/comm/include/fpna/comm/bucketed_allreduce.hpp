#pragma once
// Bucketed, overlap-capable allreduce over lists of named-by-position
// tensors - the communication step of data-parallel training.
//
// One engine reduces every bucket. OverlappedBucketAllreduce packs the
// BucketAssigner buckets over an emission order of the tensors, and its
// BucketScheduler fires each bucket's allreduce through the ProcessGroup
// once the bucket's last tensor is announced, then unpacks the reduced
// bucket into per-tensor results. bucketed_allreduce is that engine with
// the identity order and every tensor announced up front. Per bucket the
// engine derives a fresh EvalContext:
//
//   * arrival-tree runs get a per-bucket RunContext whose seed is drawn
//     from ctx.run *in bucket order on the constructing thread*, so the
//     drawn arrival orders are a pure function of the run identity -
//     bitwise identical whether buckets reduce inline or on the pool;
//   * a user context_hook may retarget the accumulator (or any other
//     EvalContext field) per bucket - e.g. carry the embedding gradients
//     on the superaccumulator exchange while the dense bulk rides the
//     cheap serial path.
//
// With overlap enabled (and ctx.pool set), fired buckets reduce on the
// thread pool while the caller keeps announcing tensors - the DDP pattern
// of overlapping communication with gradient production. Overlap changes
// wall-clock, never bits (certified in comm_test).
//
// sharded_bucketed_allreduce is the multi-tensor generalisation of
// comm::distributed_sum: the reduction's *samples* (micro-batch
// gradient contributions) are assigned to ranks by an owner map, each rank
// folds its samples locally, and the partials meet in the collective. With
// kReproducible the local fold keeps exact per-element state, so the
// result is bitwise invariant to rank count, shard assignment, bucket cap
// and arrival order - the "MPI-safe" gradient reduction, whose buckets
// fire through a BucketScheduler running the exact fold; with the rounded
// algorithms the local fold commits to its shard's association, the
// partials go through bucketed_allreduce, and the bits move with
// (P, owner map, algorithm).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fpna/collective/allreduce.hpp"
#include "fpna/comm/bucket_scheduler.hpp"
#include "fpna/comm/bucketing.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/core/eval_context.hpp"

namespace fpna::comm {

/// One flat vector per tensor; tensors are identified by position.
template <typename T>
using TensorList = std::vector<std::vector<T>>;

struct BucketedConfig {
  std::size_t bucket_cap_elements = std::size_t{1} << 16;
  /// Reduce fired buckets on ctx.pool while the caller announces later
  /// tensors. Requires ctx.pool; bitwise identical to the inline schedule
  /// by construction.
  bool overlap = false;
  /// Network block size of the arrival-tree collective.
  std::size_t block_elements = 1024;
  /// Per-bucket EvalContext adjustment (reduction-spec selection etc. -
  /// e.g. carry the embedding-gradient bucket at kahan@bf16:f32 while the
  /// dense bulk rides the native serial path). The hook runs once per
  /// bucket on a private copy of the caller's context; it must not
  /// install shared mutable state when overlap is on.
  std::function<void(std::size_t bucket_index, core::EvalContext&)>
      context_hook{};
};

/// Allreduce-sum of per-rank tensor lists. `rank_tensors` holds
/// pg.local_contributions() entries (all P for the sim backend, this
/// rank's list under MPI); every entry must agree on tensor count and
/// sizes. Returns the reduced tensors every rank observes. ctx.run is
/// required for (and only consumed by) kArrivalTree. Runs the
/// OverlappedBucketAllreduce engine over the identity emission order; a
/// failing bucket rethrows after every bucket task has been joined.
template <typename T>
TensorList<T> bucketed_allreduce(ProcessGroup& pg,
                                 const std::vector<TensorList<T>>& rank_tensors,
                                 collective::Algorithm algorithm,
                                 const core::EvalContext& ctx,
                                 const BucketedConfig& config = {});

/// Sharded reduction of `samples[s]` (each a full TensorList contribution)
/// assigned to ranks by `owner[s]` in [0, pg.size()). Needs a backend
/// that plays every rank (the per-sample fold happens in-process; the
/// rank-local exact-state exchange under MPI is a ROADMAP item - the
/// superaccumulator wire serialization it needs already carries
/// ProcessGroup::allreduce's reproducible path over the ring/butterfly
/// schedules). See the header comment for the reproducibility contract.
template <typename T>
TensorList<T> sharded_bucketed_allreduce(
    ProcessGroup& pg, const std::vector<TensorList<T>>& samples,
    std::span<const std::size_t> owner, collective::Algorithm algorithm,
    const core::EvalContext& ctx, const BucketedConfig& config = {});

/// The bucket engine: an emission-ordered, arrival-fired bucket
/// allreduce. bucketed_allreduce, both dl::train_data_parallel gradient
/// exchanges and bench/bucketed_allreduce --overlap=backward run it, so
/// the bench certifies the exact flow the trainer runs.
///
/// Slot s of the firing order is tensor emit_order[s] (a permutation of
/// [0, tensor_sizes.size())); BucketAssigner packs the slots into
/// config's buckets. `rank_tensors` is only *read*, bucket by bucket, at
/// fire time - the caller may fill it progressively (a backward pass
/// does) as long as every slot of a fired bucket holds its final tensor
/// of the declared size in every rank list; a missed or misrouted
/// emission throws std::logic_error from the fire instead of corrupting
/// the reduction - out of the notify_slot_ready that completed the
/// bucket when firing runs inline (overlap off, or a backend without
/// concurrent collectives), out of finish() when it ran on the pool.
///
/// Reproducibility discipline (the bucketed_allreduce contract): the
/// per-bucket arrival seeds (kArrivalTree) are drawn from ctx.run in
/// bucket order at construction, and config.context_hook applies per
/// bucket on a private context copy - each bucket's reduction is a pure
/// function of its index, so firing order and pool scheduling change
/// wall-clock, never bits. With config.overlap and a backend that
/// supports concurrent collectives, buckets reduce on ctx.pool while the
/// caller keeps producing tensors.
template <typename T>
class OverlappedBucketAllreduce {
 public:
  OverlappedBucketAllreduce(ProcessGroup& pg,
                            const std::vector<TensorList<T>>& rank_tensors,
                            std::span<const std::size_t> tensor_sizes,
                            std::span<const std::size_t> emit_order,
                            collective::Algorithm algorithm,
                            const core::EvalContext& ctx,
                            const BucketedConfig& config = {});

  OverlappedBucketAllreduce(const OverlappedBucketAllreduce&) = delete;
  OverlappedBucketAllreduce& operator=(const OverlappedBucketAllreduce&) =
      delete;

  const std::vector<Bucket>& buckets() const noexcept {
    return scheduler_->buckets();
  }

  /// Announces slot `slot` (i.e. tensor emit_order[slot]) as final; the
  /// owning bucket's allreduce launches at its last announcement.
  void notify_slot_ready(std::size_t slot) {
    scheduler_->notify_ready(slot);
  }

  /// Fires any bucket that never became ready, joins every outstanding
  /// reduction (rethrowing the first failure) and returns the reduced
  /// tensors in *tensor* order. Call once.
  TensorList<T> finish();

 private:
  void fire(std::size_t bucket_index, const Bucket& bucket);

  ProcessGroup& pg_;
  const std::vector<TensorList<T>>& rank_tensors_;
  std::vector<std::size_t> tensor_sizes_;
  std::vector<std::size_t> emit_order_;
  collective::Algorithm algorithm_;
  core::EvalContext ctx_;
  BucketedConfig config_;
  std::vector<std::uint64_t> seeds_;
  TensorList<T> combined_;
  std::optional<BucketScheduler> scheduler_;
};

}  // namespace fpna::comm
