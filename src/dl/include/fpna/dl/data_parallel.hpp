#pragma once
// Data-parallel training over a comm::ProcessGroup - the paper's SV
// GraphSAGE experiment at distributed-training scale (its SVI future-work
// direction). P ranks share identical initial weights; the training nodes
// are sharded across ranks; each epoch every rank runs a deterministic
// local forward/backward over its shard and the per-parameter gradients
// synchronize through bucketed allreduces - by default fired DDP-style
// *during* the backward pass (each bucket launches the moment its last
// gradient lands, reverse layer order, overlapping reduction with the
// remaining backward compute; see GradientExchange). The collective
// algorithm is then the *only* degree of freedom:
//
//   * kReproducible - training is bitwise run-to-run stable for any rank
//     count, bucket cap and overlap setting (certified in comm_test), and
//     P = 1 reproduces dl::train's serial weights bit for bit;
//   * kRing / kRecursiveDoubling - deterministic, but each (algorithm,
//     rank count) pair commits to its own association, so the trained
//     bits move when the job is re-laid-out - the MPI algorithm-selection
//     hazard at training scale;
//   * kArrivalTree - every run trains a unique model even though every
//     rank's local computation is deterministic, the distributed analogue
//     of the paper's "all 1,000 models had a unique set of weights".

#include <cstddef>
#include <optional>

#include "fpna/collective/allreduce.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::dl {

/// How training nodes are assigned to ranks.
enum class ShardSplit {
  kRoundRobin,   // training node i -> rank i % P
  kContiguous,   // collective::shard_sizes runs of the training nodes
};

/// How gradients reach the collective each epoch.
enum class GradientExchange {
  /// DDP-style (the default): the backward pass emits gradients per
  /// tensor in reverse layer order through dl::GradientSink, and a
  /// comm::BucketScheduler fires each bucket's allreduce the moment its
  /// last tensor arrives - overlapping reduction with the rest of the
  /// backward compute on `pool` when overlap is on. Buckets are packed
  /// over the *emission* order, so the deterministic rounded collectives
  /// (ring/recursive doubling) commit to a different bucket layout than
  /// kPacked; the reproducible exchange is layout-invariant and stays
  /// bitwise equal to kPacked (certified in comm_test).
  kBucketOverlap,
  /// PR 2 path: pack every rank's full gradient list, then
  /// comm::bucketed_allreduce (kept as the packed baseline the overlap
  /// path is certified against).
  kPacked,
};

struct DataParallelConfig {
  /// Local per-rank training setup (epochs, lr, hidden, accumulator,
  /// determinism of the local kernels, init seed). base.loss_scale must
  /// stay disabled: the gradient exchange does not scale yet, so an
  /// enabled loss scale throws std::invalid_argument.
  TrainConfig base{};
  std::size_t ranks = 4;
  collective::Algorithm algorithm = collective::Algorithm::kReproducible;
  std::size_t bucket_cap_elements = std::size_t{1} << 16;
  /// Overlap bucket reduction with packing on `pool` (no-op when null).
  bool overlap = false;
  /// Thread pool carrying the overlapped bucket reductions.
  util::ThreadPool* pool = nullptr;
  ShardSplit split = ShardSplit::kRoundRobin;
  GradientExchange exchange = GradientExchange::kBucketOverlap;
  /// Message path of the gradient collectives (the wire of the
  /// SimProcessGroup the one-argument overload constructs): kAllgather,
  /// or the O(n)-traffic kRing / kButterfly schedules. Deterministic
  /// collectives produce identical bits on every wire.
  comm::WirePath wire = comm::WirePath::kAllgather;
  /// Reduction spec carrying the reproducible gradient exchange
  /// (exact-merge algorithms only; unset selects the superaccumulator at
  /// native dtypes; the dtype axes quantize the wire values - e.g.
  /// superaccumulator@bf16:f32 models exchanging bf16 gradients).
  std::optional<fp::ReductionSpec> comm_accumulator{};
};

/// Trains one data-parallel model on a simulated P-rank group. `run`
/// supplies the arrival entropy consumed by kArrivalTree (and, when
/// base.deterministic is off, the local kernels' scheduling entropy).
/// With a deterministic collective and deterministic local kernels the
/// result is a pure function of (dataset, config) - and for ranks == 1 it
/// is bitwise identical to dl::train (certified in comm_test).
TrainResult train_data_parallel(const Dataset& dataset,
                                const DataParallelConfig& config,
                                core::RunContext& run);

/// Same, over a caller-supplied group (must play every rank, i.e.
/// pg.local_contributions() == pg.size() == config.ranks).
TrainResult train_data_parallel(const Dataset& dataset,
                                const DataParallelConfig& config,
                                core::RunContext& run,
                                comm::ProcessGroup& pg);

/// The per-rank training-node masks the trainer uses (exposed for tests
/// and benches): mask[r][v] == 1 iff training node v belongs to rank r.
std::vector<std::vector<char>> shard_train_mask(
    const std::vector<char>& train_mask, std::size_t ranks, ShardSplit split);

}  // namespace fpna::dl
