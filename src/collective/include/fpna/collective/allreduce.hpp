#pragma once
// The allreduce algorithms of a simulated multi-rank job (the paper's SVI
// future work: "in HPC and distributed settings there will also be
// inter-chip and inter-node communication, such as with MPI, leading to
// more runtime variation").
//
// The MPI standard, like OpenMP, does not fix the combining order of
// reduction collectives; implementations choose algorithms at runtime and
// in-network (switch-offloaded) reductions combine partial messages in
// *arrival order*. The four algorithms a P-rank job can run:
//
//   * ring            - reduce-scatter + allgather ring: combining order
//                       is a pure function of (P, rank layout) =>
//                       deterministic, every rank gets identical bits;
//   * recursive       - recursive-doubling butterfly: also deterministic,
//     doubling          but a *different* association than the ring (so
//                       changing algorithm changes bits - the MPI
//                       algorithm-selection hazard);
//   * arrival tree    - in-network/tree combining in arrival order drawn
//                       from the RunContext => non-deterministic run to
//                       run, like switch-offloaded allreduce;
//   * reproducible    - superaccumulator exchange: bitwise identical for
//                       any arrival order, any P, and any way the data is
//                       sharded across ranks.
//
// This module holds what every rank agrees on before any byte moves: the
// algorithm names, the shape check, the shard and ring-chunk rules, and
// the arrival tree, whose order is a draw rather than a plan. The ring and
// butterfly orders exist once, as comm::CollectiveSchedule, and
// comm::ProcessGroup runs them on every wire; the exact combine is
// comm::exact_elementwise_allreduce.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "fpna/core/run_context.hpp"

namespace fpna::collective {

/// Per-rank input: contributions[r] is rank r's local vector; all ranks
/// must agree on the element count. The element type is the *wire/compute*
/// type: allreduce of FP32 buffers (the deep learning case) accumulates in
/// FP32, exactly as NCCL/MPI reductions do.
template <typename T>
using RankDataT = std::vector<std::vector<T>>;
using RankData = RankDataT<double>;
using RankDataF = RankDataT<float>;

/// Validates shape (>= 1 rank, equal lengths); throws std::invalid_argument.
template <typename T>
void validate(const RankDataT<T>& contributions);

/// In-network ("switch offload") allreduce: the reduction tree combines
/// rank messages in arrival order, drawn per element-block from `ctx`.
/// Non-deterministic run to run.
template <typename T>
std::vector<T> allreduce_arrival_tree(const RankDataT<T>& contributions,
                                      core::RunContext& ctx,
                                      std::size_t block_elements = 1024);

/// Contiguous shard lengths for `total` items over `ranks` ranks (the
/// first total % ranks shards are one longer). The one split rule every
/// sharded consumer (comm::distributed_sum, the data-parallel trainer)
/// agrees on.
std::vector<std::size_t> shard_sizes(std::size_t total, std::size_t ranks);

/// The ring collective's chunk boundary rule: chunk c of `total` elements
/// over `ranks` ranks is [min(total, c*ceil(total/ranks)), min(total,
/// (c+1)*ceil(total/ranks))). comm::CollectiveSchedule::ring cuts its
/// chunks with it, so every rank derives the boundaries from (total,
/// ranks) alone.
std::pair<std::size_t, std::size_t> ring_chunk(std::size_t total,
                                               std::size_t ranks,
                                               std::size_t chunk_index);

/// Splits one global vector into P contiguous shard_sizes() shards.
RankData shard(std::span<const double> data, std::size_t ranks);

enum class Algorithm {
  kRing,
  kRecursiveDoubling,
  kArrivalTree,   // non-deterministic
  kReproducible,  // bitwise invariant to arrival order AND rank count
};

const char* to_string(Algorithm algorithm) noexcept;
bool is_deterministic(Algorithm algorithm) noexcept;

}  // namespace fpna::collective
