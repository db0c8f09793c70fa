#pragma once
// CollectiveSchedule: the explicit wire plan of a reduce-scatter +
// allgather allreduce. The paper's reproducibility story hinges on *who
// combines what, in which order, over the wire* - so instead of letting a
// backend improvise its message pattern, a schedule names every
// point-to-point message and every combine (operand order included) up
// front. ProcessGroup's one step interpreter carries the plan out a step
// at a time over a Transport, which only moves the payload bytes: the
// in-process transport (SimProcessGroup) hands each message from sender
// to receiver through a scratch buffer, the MPI transport
// (MpiProcessGroup) sends it with MPI_Isend/MPI_Recv - O(n) traffic per
// rank either way, against the allgather wire's O(n*P).
//
// Two schedules are provided:
//
//   * ring       - chunk c of the buffer (collective::ring_chunk
//                  boundaries) accumulates along the ring starting at rank
//                  (c+1) % P; per-element association identical to
//                  collective::allreduce_ring, so the wire path reproduces
//                  the allgather wire's kRing bits exactly;
//   * butterfly  - recursive-halving reduce-scatter whose stage order
//                  (distance 1, 2, 4, ...) and lower-rank-first combine
//                  operands reproduce collective::allreduce_recursive_
//                  doubling's association per element, with the usual
//                  MPICH pre-fold for non-power-of-two rank counts.
//
// The reproducible (superaccumulator) exchange runs over either schedule:
// messages then carry fp::Superaccumulator wire words instead of rounded
// values, merges are exact, and the single final rounding at the shard
// owner makes the result bitwise identical to the allgather wire's exact
// path for every ReductionSpec - the schedule choice moves traffic, never
// bits.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "fpna/collective/allreduce.hpp"
#include "fpna/obs/metrics.hpp"

namespace fpna::comm {

/// Which message pattern a ProcessGroup's deterministic collectives
/// travel. kAllgather gathers all rank buffers and combines locally;
/// kRing / kButterfly route through CollectiveSchedule.
enum class WirePath {
  kAllgather,
  kRing,
  kButterfly,
};

const char* to_string(WirePath path) noexcept;
/// Parses "allgather" / "ring" / "butterfly"; throws std::invalid_argument
/// (listing the valid names) on anything else.
WirePath parse_wire_path(std::string_view name);

/// Half-open element range of the flat buffer.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin == end; }
};

/// One point-to-point message of the schedule. Messages are ordered by
/// `step`; a transport may deliver a step's messages in vector order
/// because every schedule guarantees that no in-step payload range is
/// written by an earlier message of the same step, and that a rank sends
/// at most one message per step.
struct Message {
  std::size_t step = 0;
  std::size_t sender = 0;
  std::size_t receiver = 0;
  ShardRange range;
  /// true: receiver combines the payload into its buffer (reduce-scatter
  /// phase); false: receiver copies it verbatim (allgather phase).
  bool reduce = false;
  /// Combine operand order: incoming + local (true) vs local + incoming
  /// (false). Fixing this per message is what pins the association - and
  /// therefore the bits - of the whole collective.
  bool incoming_left = false;
};

class CollectiveSchedule {
 public:
  /// Ring reduce-scatter + ring allgather over `ranks` ranks and
  /// `elements` flat elements. Shard boundaries follow
  /// collective::ring_chunk; rank r owns chunk r.
  static CollectiveSchedule ring(std::size_t ranks, std::size_t elements);

  /// Recursive-halving reduce-scatter + recursive-doubling allgather.
  /// Stage order and combine operands reproduce
  /// collective::allreduce_recursive_doubling bit for bit; shard
  /// ownership follows the nested halving (rank bits, LSB first, select
  /// halves), with ranks beyond the largest power of two pre-folding into
  /// their partner and owning empty shards.
  static CollectiveSchedule butterfly(std::size_t ranks,
                                      std::size_t elements);

  /// The schedule carrying `algorithm` over `wire`: kRing must travel the
  /// ring schedule and kRecursiveDoubling the butterfly (each is the only
  /// O(n) message pattern that reproduces its association), while the
  /// order-invariant kReproducible rides whichever `wire` names. Throws
  /// std::invalid_argument for kArrivalTree / kAllgather (no schedule:
  /// arrival-order combining has no fixed plan, and the allgather wire
  /// is the non-scheduled path).
  static CollectiveSchedule for_algorithm(collective::Algorithm algorithm,
                                          WirePath wire, std::size_t ranks,
                                          std::size_t elements);

  WirePath path() const noexcept { return path_; }
  std::size_t ranks() const noexcept { return ranks_; }
  std::size_t elements() const noexcept { return elements_; }

  /// Post-reduce-scatter ownership: shards()[r] is the range rank r holds
  /// fully reduced. Shards partition [0, elements) (butterfly extras own
  /// empty ranges).
  const std::vector<ShardRange>& shards() const noexcept { return shards_; }

  /// All messages, reduce-scatter phase first, then the allgather copies,
  /// ordered by step.
  const std::vector<Message>& messages() const noexcept { return messages_; }
  /// messages()[0 .. reduce_message_count) is the reduce-scatter phase.
  std::size_t reduce_message_count() const noexcept { return reduce_count_; }

  /// Elements rank `rank` sends across the whole schedule (the traffic
  /// model: multiply by the per-element wire size). O(n) for both
  /// schedules, vs the allgather wire's (P-1)*n.
  std::size_t elements_sent(std::size_t rank) const noexcept;

 private:
  CollectiveSchedule() = default;

  WirePath path_ = WirePath::kAllgather;
  std::size_t ranks_ = 0;
  std::size_t elements_ = 0;
  std::vector<ShardRange> shards_;
  std::vector<Message> messages_;
  std::size_t reduce_count_ = 0;
};

// ------------------------------------------------------------- traffic --

/// Per-rank wire accounting, accumulated across collectives.
struct Traffic {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages = 0;
};

/// Thread-safe per-rank traffic counters (bucketed_allreduce may issue
/// concurrent collectives on the pool when overlap is enabled).
///
/// The counts live in obs::Counter shards - the run-wide counting
/// mechanism - and this class is only the per-rank *view* that keeps the
/// historic Traffic accessor API. Pass an external obs::Metrics (e.g. a
/// Recorder's) to surface "comm.traffic.rank<r>.*" in that registry's
/// snapshot (and hence the bench metrics table); by default the ledger
/// owns a private registry. Recording is lock-free either way, so
/// overlapped bucket firings never serialise on accounting.
class TrafficLedger {
 public:
  explicit TrafficLedger(std::size_t ranks, obs::Metrics* metrics = nullptr);

  /// Books traffic on one rank (one side of a message, or the
  /// modelled allgather-wire exchange).
  void record_exchange(std::size_t rank, std::uint64_t bytes_sent,
                       std::uint64_t bytes_received, std::uint64_t messages);

  Traffic of_rank(std::size_t rank) const;
  Traffic total() const;
  void reset();

 private:
  struct RankCounters {
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* messages = nullptr;
  };

  std::unique_ptr<obs::Metrics> owned_;  // null when viewing external metrics
  std::vector<RankCounters> per_rank_;
};

}  // namespace fpna::comm
