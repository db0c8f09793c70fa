#pragma once
// ProcessGroup: the data-parallel process-group runtime (paper SVI: "in HPC
// and distributed settings there will also be inter-chip and inter-node
// communication, such as with MPI, leading to more runtime variation").
//
// A ProcessGroup is a handle on a P-rank job that can allreduce rank
// contributions with any of the collective algorithms. There is one
// implementation: a schedule interpreter over a Transport, the narrow
// seam that only moves bytes between ranks. Two transports come with it:
//
//   * SimProcessGroup binds the in-process transport, which plays all P
//     ranks. The caller passes all P contributions.
//   * MpiProcessGroup (#ifdef FPNA_HAVE_MPI) binds the MPI transport: one
//     OS process per rank. The caller passes its single local
//     contribution.
//
// Each group is constructed on a WirePath (see schedule.hpp):
//
//   * kAllgather gathers the rank buffers (ordered by rank id) and runs
//     one shared local combine, so every rank observes bitwise-identical
//     results - semantics certified at O(n*P) traffic per rank;
//   * kRing / kButterfly interpret an explicit CollectiveSchedule step by
//     step: point-to-point messages, O(n) traffic per rank, and per-step
//     combine orders drawn from the schedule, so the bits are *identical
//     to the allgather wire* for every algorithm and ReductionSpec
//     (certified in comm_test, over a threaded one-rank-per-participant
//     transport there, and under mpirun in CI). The non-schedulable
//     arrival-tree algorithm always falls back to the allgather combine.
//
// The reproducible algorithm honours the EvalContext's registry-selected
// accumulator. On the allgather wire any *exact-merge* algorithm
// (superaccumulator, binned) may carry the exchange; on a schedule wire
// only the superaccumulator (bounded serialized state) is accepted -
// binned's exact state is its whole input buffer, which has no
// O(1)-per-element wire form. A non-exact-merge accumulator throws.
//
// Traffic follows one rule for every transport: a message's sent bytes
// and count are booked on its sender and its received bytes on its
// receiver, for whichever of the two this process plays - so the O(n) vs
// O(n*P) claim is measured, and a traced schedule emits the same
// `comm.wire` provenance per receiver on every transport.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fpna/collective/allreduce.hpp"
#include "fpna/comm/schedule.hpp"
#include "fpna/core/eval_context.hpp"
#include "fpna/fp/algorithm_id.hpp"

namespace fpna::comm {

/// Element-wise allreduce through an exact-merge registry accumulator: for
/// every element, each rank's value streams into one exact state, and the
/// single final rounding makes the result bitwise independent of rank
/// order, rank count and any merge tree. The spec's dtype axes apply too:
/// rank values are quantized to the storage dtype before entering the
/// exact state (bf16 gradients on the wire), and the state rounds to the
/// accumulate dtype - both elementwise, so the invariance argument is
/// unchanged. Throws std::invalid_argument when the spec's algorithm
/// lacks the exact_merge trait. A bare fp::AlgorithmId converts to the
/// native spec.
template <typename T>
std::vector<T> exact_elementwise_allreduce(
    const collective::RankDataT<T>& contributions,
    const fp::ReductionSpec& spec);

/// Moves bytes between ranks for the schedule interpreter. A transport
/// plays the ranks [first_rank(), first_rank() + ranks_played()) of a
/// size()-rank job; combine order, codecs, traffic and provenance are not
/// its business.
class Transport {
 public:
  /// Fills the payload of a message this process sends.
  using Pack = std::function<void(const Message&, std::span<std::byte>)>;
  /// Hands the payload of a message this process receives to its rank.
  using Deliver =
      std::function<void(const Message&, std::span<const std::byte>)>;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual std::size_t size() const noexcept = 0;
  virtual std::size_t first_rank() const noexcept = 0;
  virtual std::size_t ranks_played() const noexcept = 0;
  /// Backend name for logs/tables ("sim", "mpi", ...).
  virtual const char* name() const noexcept = 0;
  /// Whether distinct collectives may run on several threads at once.
  virtual bool supports_concurrent_calls() const noexcept = 0;

  /// Runs one schedule step (`messages` all share one step): calls `pack`
  /// for every message this process sends and `deliver`, in vector order,
  /// for every message it receives. A payload holds msg.range.size()
  /// elements of `element_bytes` bytes each and is 8-byte aligned.
  virtual void step(std::span<const Message> messages,
                    std::size_t element_bytes, const Pack& pack,
                    const Deliver& deliver) = 0;

  /// The allgather wire: `played` holds this process's rank buffers back
  /// to back (equal lengths, in elements of `element_bytes` bytes);
  /// returns every rank's buffer back to back in rank order. Throws
  /// std::invalid_argument when the ranks' lengths differ.
  virtual std::vector<std::byte> gather(std::span<const std::byte> played,
                                        std::size_t element_bytes) = 0;
};

class ProcessGroup {
 public:
  /// Binds a transport; throws std::invalid_argument on a null or
  /// zero-rank one.
  ProcessGroup(std::unique_ptr<Transport> transport, WirePath wire);
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;
  virtual ~ProcessGroup() = default;

  /// World size P.
  std::size_t size() const noexcept { return transport_->size(); }
  /// This participant's first rank id (0 for the simulated backend, which
  /// plays every rank).
  std::size_t rank() const noexcept { return transport_->first_rank(); }
  /// Backend name for logs/tables: "sim" or "mpi".
  const char* backend() const noexcept { return transport_->name(); }
  /// The message pattern this group's deterministic collectives travel
  /// (a construction-time property).
  WirePath wire() const noexcept { return wire_; }
  /// How many rank contributions the caller passes to allreduce(): the
  /// full P for the simulated backend, 1 (the local buffer) for MPI.
  std::size_t local_contributions() const noexcept {
    return transport_->ranks_played();
  }
  /// Whether allreduce() may be called concurrently from several threads:
  /// true for the simulated backend, false for MPI (collectives must issue
  /// in the same order on every rank) - bucketed_allreduce then falls back
  /// to the inline schedule (identical bits, see bucketed_allreduce.hpp).
  bool supports_concurrent_allreduce() const noexcept {
    return transport_->supports_concurrent_calls();
  }

  /// Allreduce-sum of the rank contributions; every rank observes the
  /// returned vector. kArrivalTree draws its arrival orders from ctx.run
  /// (required for that algorithm only; on MPI every rank must construct
  /// its RunContext from the same seed to agree on the drawn orders).
  /// kReproducible routes through ctx.accumulator when set (exact-merge
  /// algorithms only); unset selects the superaccumulator exchange.
  /// Deterministic algorithms travel this group's wire(); the bits do not
  /// depend on the wire.
  std::vector<double> allreduce(const collective::RankData& contributions,
                                collective::Algorithm algorithm,
                                const core::EvalContext& ctx,
                                std::size_t block_elements = 1024);
  std::vector<float> allreduce(const collective::RankDataF& contributions,
                               collective::Algorithm algorithm,
                               const core::EvalContext& ctx,
                               std::size_t block_elements = 1024);

  /// Schedule primitive: runs `schedule`'s reduce-scatter phase. Returns
  /// a full-length buffer holding the final values of the shards this
  /// participant owns (all of them for the sim backend) and zeros
  /// elsewhere until allgather(). `algorithm` selects the codec:
  /// kRing / kRecursiveDoubling add rounded values in the schedule's
  /// operand order (and must ride the schedule whose association they
  /// reproduce); kReproducible carries serialized superaccumulator states
  /// over either schedule, quantizing through ctx's ReductionSpec.
  std::vector<double> reduce_scatter(const collective::RankData& contributions,
                                     const CollectiveSchedule& schedule,
                                     collective::Algorithm algorithm,
                                     const core::EvalContext& ctx);
  std::vector<float> reduce_scatter(const collective::RankDataF& contributions,
                                    const CollectiveSchedule& schedule,
                                    collective::Algorithm algorithm,
                                    const core::EvalContext& ctx);

  /// Schedule primitive: runs `schedule`'s allgather (copy) phase on a
  /// reduce_scatter result, completing the allreduce in `buffer`.
  void allgather(std::vector<double>& buffer,
                 const CollectiveSchedule& schedule);
  void allgather(std::vector<float>& buffer,
                 const CollectiveSchedule& schedule);

  /// Accumulated wire traffic of rank `r` since construction (or the last
  /// reset). Only the rows of the ranks this process plays fill.
  Traffic traffic(std::size_t r) const { return ledger_.of_rank(r); }
  Traffic total_traffic() const { return ledger_.total(); }
  void reset_traffic() { ledger_.reset(); }

 private:
  std::unique_ptr<Transport> transport_;
  WirePath wire_;
  TrafficLedger ledger_;
};

/// Simulated backend: all P ranks live in this process. Safe to use
/// concurrently from thread-pool tasks as long as each call carries its
/// own RunContext (bucketed_allreduce does).
class SimProcessGroup final : public ProcessGroup {
 public:
  /// Throws std::invalid_argument on ranks == 0.
  explicit SimProcessGroup(std::size_t ranks,
                           WirePath wire = WirePath::kAllgather);
};

/// Simulated P-rank group (the default backend everywhere the toolkit does
/// not run under mpirun).
std::unique_ptr<ProcessGroup> make_process_group(
    std::size_t ranks, WirePath wire = WirePath::kAllgather);

#ifdef FPNA_HAVE_MPI
/// Real MPI backend over MPI_COMM_WORLD. The caller owns MPI_Init /
/// MPI_Finalize; construction throws std::runtime_error when MPI is not
/// initialised. allreduce() takes exactly one contribution (this rank's
/// local buffer, equal length on every rank).
class MpiProcessGroup final : public ProcessGroup {
 public:
  explicit MpiProcessGroup(WirePath wire = WirePath::kAllgather);
};

std::unique_ptr<ProcessGroup> make_mpi_process_group(
    WirePath wire = WirePath::kAllgather);
#endif  // FPNA_HAVE_MPI

}  // namespace fpna::comm
