#pragma once
// BucketScheduler: DDP-style bucket firing, the one bucket loop of comm.
// The caller announces tensors as they become final, and each bucket's
// reduction launches the moment its *last* member arrives - inline, or on
// a thread pool so the collective overlaps whatever the caller does next.
// The backward pass announces gradients in reverse layer order through
// dl's GradientSink; bucketed_allreduce announces a fully materialised
// tensor list in tensor order; sharded_bucketed_allreduce's exact path
// fires its own per-bucket fold.
//
// Reproducibility contract: the scheduler decides only *when* a bucket
// fires, never what it computes. The fire callback must be a pure
// function of the bucket index (per-bucket contexts and arrival seeds
// drawn up front, in bucket order - the bucketed_allreduce discipline),
// so firing order and pool scheduling change wall-clock, never bits.
// finish() joins every outstanding bucket and rethrows the first failure.

#include <cstddef>
#include <functional>
#include <future>
#include <span>
#include <vector>

#include "fpna/comm/bucketing.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::comm {

class BucketScheduler {
 public:
  /// Runs one bucket's reduction. Invoked exactly once per bucket, on the
  /// caller's thread (pool == nullptr) or a pool worker.
  using FireFn = std::function<void(std::size_t bucket_index,
                                    const Bucket& bucket)>;

  /// `tensor_sizes` lists the tensors in *firing order* (for a backward
  /// pass: the order gradients are produced, i.e. reverse layer order);
  /// BucketAssigner(cap) packs them into the buckets notify_ready fires.
  /// With a recorder attached, each firing runs inside a
  /// "comm.bucket.fire" span under the thread-local scope "bucket/<b>" -
  /// the span is the overlap timeline's raw material, the scope keeps
  /// provenance emitted by concurrent firings canonically separable.
  BucketScheduler(std::span<const std::size_t> tensor_sizes,
                  std::size_t bucket_cap_elements, FireFn fire,
                  util::ThreadPool* pool = nullptr,
                  obs::Recorder* recorder = nullptr);

  /// Joins outstanding buckets (failures are observed by finish(); the
  /// destructor swallows them to stay noexcept).
  ~BucketScheduler();

  BucketScheduler(const BucketScheduler&) = delete;
  BucketScheduler& operator=(const BucketScheduler&) = delete;

  const std::vector<Bucket>& buckets() const noexcept { return buckets_; }

  /// Marks tensor `tensor` (an index into tensor_sizes) ready; fires the
  /// owning bucket if that was its last outstanding member. Throws
  /// std::out_of_range / std::logic_error on an unknown or repeated
  /// index.
  void notify_ready(std::size_t tensor);

  /// Fires any bucket that never became ready (defensive completeness -
  /// a caller that forgot a notify still reduces every bucket), joins all
  /// outstanding reductions and rethrows the first failure. Idempotent.
  void finish();

 private:
  void fire(std::size_t bucket_index);

  std::vector<Bucket> buckets_;
  std::vector<std::size_t> bucket_of_;   // tensor -> bucket index
  std::vector<std::size_t> remaining_;   // per bucket: members not yet ready
  std::vector<char> notified_;           // per tensor
  std::vector<char> fired_;              // per bucket
  FireFn fire_;
  util::ThreadPool* pool_;
  obs::Recorder* recorder_;
  std::vector<std::future<void>> pending_;
  bool finished_ = false;
};

}  // namespace fpna::comm
