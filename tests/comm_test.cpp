// Unit and property tests for fpna::comm: the process-group runtime, the
// gradient bucketing engine, the bucketed/sharded allreduce and the
// data-parallel trainer built on them. The reproducibility certifications
// here are the toolkit's distributed-training version of the paper's
// Table-style determinism columns.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fpna/comm/bucket_scheduler.hpp"
#include "fpna/comm/bucketed_allreduce.hpp"
#include "fpna/comm/bucketing.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/comm/schedule.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/dl/data_parallel.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::comm {
namespace {

// ------------------------------------------------------- BucketAssigner --

TEST(BucketAssigner, RejectsZeroCapacity) {
  EXPECT_THROW(BucketAssigner(0), std::invalid_argument);
}

TEST(BucketAssigner, EmptyTensorListGivesNoBuckets) {
  EXPECT_TRUE(BucketAssigner(16).assign({}).empty());
}

TEST(BucketAssigner, PacksGreedilyUpToCapacity) {
  const std::vector<std::size_t> sizes{4, 4, 4, 4, 4};
  const auto buckets = BucketAssigner(8).assign(sizes);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].first_tensor, 0u);
  EXPECT_EQ(buckets[0].tensor_count, 2u);
  EXPECT_EQ(buckets[0].elements, 8u);
  EXPECT_EQ(buckets[1].first_tensor, 2u);
  EXPECT_EQ(buckets[1].tensor_count, 2u);
  EXPECT_EQ(buckets[2].first_tensor, 4u);
  EXPECT_EQ(buckets[2].tensor_count, 1u);
  EXPECT_EQ(buckets[2].elements, 4u);
}

TEST(BucketAssigner, OversizedTensorShipsAloneInItsOwnBucket) {
  const std::vector<std::size_t> sizes{2, 100, 2};
  const auto buckets = BucketAssigner(8).assign(sizes);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[1].first_tensor, 1u);
  EXPECT_EQ(buckets[1].tensor_count, 1u);
  EXPECT_EQ(buckets[1].elements, 100u);
  EXPECT_EQ(buckets[2].first_tensor, 2u);
}

TEST(BucketAssigner, PartitionsEveryTensorExactlyOnce) {
  const std::vector<std::size_t> sizes{7, 1, 0, 13, 5, 29, 3, 0, 11};
  for (const std::size_t cap : {1u, 8u, 16u, 1000u}) {
    const auto buckets = BucketAssigner(cap).assign(sizes);
    std::size_t next = 0;
    std::size_t elements = 0;
    for (const auto& bucket : buckets) {
      EXPECT_EQ(bucket.first_tensor, next);
      next += bucket.tensor_count;
      elements += bucket.elements;
    }
    EXPECT_EQ(next, sizes.size());
    EXPECT_EQ(elements,
              std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
  }
}

TEST(BucketAssigner, ZeroSizeTensorsRideAlong) {
  const std::vector<std::size_t> sizes{0, 0, 0};
  const auto buckets = BucketAssigner(4).assign(sizes);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].tensor_count, 3u);
  EXPECT_EQ(buckets[0].elements, 0u);
}

// --------------------------------------------------------- ProcessGroup --

collective::RankData random_rank_data(std::size_t ranks, std::size_t n,
                                      std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(-1e8, 1e8);
  collective::RankData data(ranks, std::vector<double>(n));
  for (auto& rank : data) {
    for (auto& x : rank) x = dist(rng);
  }
  return data;
}

TEST(ProcessGroup, SimValidatesRankCount) {
  EXPECT_THROW(SimProcessGroup(0), std::invalid_argument);
  SimProcessGroup pg(4);
  EXPECT_EQ(pg.size(), 4u);
  EXPECT_EQ(pg.local_contributions(), 4u);
  EXPECT_STREQ(pg.backend(), "sim");
  const core::EvalContext ctx;
  EXPECT_THROW(pg.allreduce(random_rank_data(3, 8, 1),
                            collective::Algorithm::kRing, ctx),
               std::invalid_argument);
}

TEST(ProcessGroup, SimDelegatesToCollectiveBitwise) {
  SimProcessGroup pg(5);
  const auto data = random_rank_data(5, 64, 3);
  const core::EvalContext ctx;
  const auto ring = pg.allreduce(data, collective::Algorithm::kRing, ctx);
  const auto expect = collective::allreduce_ring(data);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_TRUE(fp::bitwise_equal(ring[i], expect[i]));
  }
}

TEST(ProcessGroup, ExactElementwiseMatchesReproducibleCollective) {
  const auto data = random_rank_data(7, 96, 5);
  const auto via_registry = exact_elementwise_allreduce(
      data, fp::AlgorithmId::kSuperaccumulator);
  const auto historic = collective::allreduce_reproducible(data);
  for (std::size_t i = 0; i < historic.size(); ++i) {
    EXPECT_TRUE(fp::bitwise_equal(via_registry[i], historic[i]));
  }
}

TEST(ProcessGroup, ReproducibleRejectsNonExactMergeAccumulator) {
  SimProcessGroup pg(3);
  const auto data = random_rank_data(3, 8, 7);
  core::EvalContext ctx;
  ctx.accumulator = fp::AlgorithmId::kKahan;
  EXPECT_THROW(
      pg.allreduce(data, collective::Algorithm::kReproducible, ctx),
      std::invalid_argument);
  // The exact-merge algorithms both carry the exchange.
  ctx.accumulator = fp::AlgorithmId::kBinned;
  EXPECT_NO_THROW(
      pg.allreduce(data, collective::Algorithm::kReproducible, ctx));
}

// ----------------------------------------------- CollectiveSchedule -----

void check_schedule_shape(const CollectiveSchedule& s, std::size_t ranks,
                          std::size_t n) {
  ASSERT_EQ(s.ranks(), ranks);
  ASSERT_EQ(s.elements(), n);
  // Shards partition [0, n).
  std::vector<char> covered(n, 0);
  for (const ShardRange& shard : s.shards()) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      EXPECT_FALSE(covered[i]);
      covered[i] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(covered[i]);
  // Messages: valid ranks/ranges, reduce phase first, steps ascending
  // within each phase.
  for (std::size_t m = 0; m < s.messages().size(); ++m) {
    const Message& msg = s.messages()[m];
    EXPECT_LT(msg.sender, ranks);
    EXPECT_LT(msg.receiver, ranks);
    EXPECT_NE(msg.sender, msg.receiver);
    EXPECT_LE(msg.range.begin, msg.range.end);
    EXPECT_LE(msg.range.end, n);
    EXPECT_FALSE(msg.range.empty());
    EXPECT_EQ(msg.reduce, m < s.reduce_message_count());
  }
}

TEST(CollectiveSchedule, RingAndButterflyShardsPartitionTheBuffer) {
  for (const std::size_t ranks : {1u, 2u, 3u, 4u, 6u, 7u, 8u, 16u}) {
    for (const std::size_t n : {0u, 1u, 5u, 64u, 257u}) {
      check_schedule_shape(CollectiveSchedule::ring(ranks, n), ranks, n);
      check_schedule_shape(CollectiveSchedule::butterfly(ranks, n), ranks, n);
    }
  }
}

TEST(CollectiveSchedule, PerRankTrafficIsLinearInElements) {
  // Both schedules move O(n) elements per rank; the allgather backend
  // moves (P-1)*n. The 3n bound is generous: ring sends 2n(P-1)/P < 2n,
  // butterfly about 2n (+n for a pre-folded extra).
  for (const std::size_t ranks : {2u, 4u, 7u, 8u, 32u}) {
    const std::size_t n = 1u << 14;
    for (const auto& s : {CollectiveSchedule::ring(ranks, n),
                          CollectiveSchedule::butterfly(ranks, n)}) {
      for (std::size_t r = 0; r < ranks; ++r) {
        EXPECT_LE(s.elements_sent(r), 3 * n)
            << to_string(s.path()) << " rank " << r << " of " << ranks;
      }
    }
  }
}

TEST(CollectiveSchedule, ForAlgorithmPairsEachAssociationWithItsPath) {
  const auto ring_s = CollectiveSchedule::for_algorithm(
      collective::Algorithm::kRing, WirePath::kButterfly, 4, 64);
  EXPECT_EQ(ring_s.path(), WirePath::kRing);  // ring bits need the ring
  const auto rd = CollectiveSchedule::for_algorithm(
      collective::Algorithm::kRecursiveDoubling, WirePath::kRing, 4, 64);
  EXPECT_EQ(rd.path(), WirePath::kButterfly);
  const auto repro = CollectiveSchedule::for_algorithm(
      collective::Algorithm::kReproducible, WirePath::kButterfly, 4, 64);
  EXPECT_EQ(repro.path(), WirePath::kButterfly);  // order-invariant: free
  EXPECT_THROW(CollectiveSchedule::for_algorithm(
                   collective::Algorithm::kArrivalTree, WirePath::kRing, 4,
                   64),
               std::invalid_argument);
  EXPECT_THROW(parse_wire_path("mesh"), std::invalid_argument);
  EXPECT_EQ(parse_wire_path("butterfly"), WirePath::kButterfly);
}

// --------------------------------------------------- wire == allgather --

template <typename T>
collective::RankDataT<T> mixed_magnitude_rank_data(std::size_t ranks,
                                                   std::size_t n,
                                                   std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(-1e8, 1e8);
  collective::RankDataT<T> data(ranks, std::vector<T>(n));
  for (auto& rank : data) {
    for (auto& x : rank) x = static_cast<T>(dist(rng));
  }
  return data;
}

TEST(WireSchedules, BitwiseEqualToAllgatherBackendForEveryAlgorithm) {
  // The tentpole certification: the ring and butterfly message schedules
  // reproduce the allgather backend's bits exactly - for the rounded
  // deterministic algorithms (whose association the schedule pins per
  // message) and the exact reproducible exchange (whose serialized
  // superaccumulator states make any schedule a no-op for the bits).
  const core::EvalContext ctx;
  for (const std::size_t ranks : {1u, 2u, 3u, 4u, 7u, 8u, 16u}) {
    SimProcessGroup baseline(ranks, WirePath::kAllgather);
    for (const WirePath wire : {WirePath::kRing, WirePath::kButterfly}) {
      SimProcessGroup wired(ranks, wire);
      for (const std::size_t n : {1u, 5u, 63u, 257u}) {
        const auto data = mixed_magnitude_rank_data<double>(ranks, n, 7 * n);
        const auto dataf = mixed_magnitude_rank_data<float>(ranks, n, 7 * n);
        for (const auto algorithm :
             {collective::Algorithm::kRing,
              collective::Algorithm::kRecursiveDoubling,
              collective::Algorithm::kReproducible}) {
          const auto expect = baseline.allreduce(data, algorithm, ctx);
          const auto wired_bits = wired.allreduce(data, algorithm, ctx);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(fp::bitwise_equal(wired_bits[i], expect[i]))
                << to_string(wire) << " " << collective::to_string(algorithm)
                << " P=" << ranks << " n=" << n << " i=" << i;
          }
          const auto expect_f = baseline.allreduce(dataf, algorithm, ctx);
          const auto wired_f = wired.allreduce(dataf, algorithm, ctx);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(fp::bitwise_equal32(wired_f[i], expect_f[i]))
                << to_string(wire) << " " << collective::to_string(algorithm)
                << " P=" << ranks << " n=" << n << " i=" << i << " (f32)";
          }
        }
      }
    }
  }
}

TEST(WireSchedules, ReproducibleSpecRidesTheWireBitwise) {
  // The serialized-superaccumulator exchange honours the full
  // ReductionSpec: storage quantization and accumulate rounding happen at
  // the endpoints, the exact state travels the messages.
  const auto data = mixed_magnitude_rank_data<double>(5, 96, 11);
  for (const WirePath wire : {WirePath::kRing, WirePath::kButterfly}) {
    SimProcessGroup wired(5, wire);
    SimProcessGroup baseline(5, WirePath::kAllgather);
    for (const char* name :
         {"superaccumulator", "superaccumulator@bf16:f32",
          "superaccumulator@f32"}) {
      core::EvalContext ctx;
      ctx.accumulator = fp::parse_reduction_spec(name);
      const auto expect = baseline.allreduce(
          data, collective::Algorithm::kReproducible, ctx);
      const auto wired_bits = wired.allreduce(
          data, collective::Algorithm::kReproducible, ctx);
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(fp::bitwise_equal(wired_bits[i], expect[i]))
            << to_string(wire) << " " << name;
      }
    }
  }
}

TEST(WireSchedules, ReproducibleWireRejectsUnserializableStates) {
  SimProcessGroup wired(3, WirePath::kRing);
  const auto data = mixed_magnitude_rank_data<double>(3, 8, 13);
  core::EvalContext ctx;
  // No exact merge at all: rejected on every wire.
  ctx.accumulator = fp::AlgorithmId::kKahan;
  EXPECT_THROW(
      wired.allreduce(data, collective::Algorithm::kReproducible, ctx),
      std::invalid_argument);
  // Exact merge but unbounded state (binned buffers its inputs): fine on
  // the allgather wire, rejected on a schedule wire.
  ctx.accumulator = fp::AlgorithmId::kBinned;
  EXPECT_THROW(
      wired.allreduce(data, collective::Algorithm::kReproducible, ctx),
      std::invalid_argument);
  SimProcessGroup baseline(3, WirePath::kAllgather);
  EXPECT_NO_THROW(
      baseline.allreduce(data, collective::Algorithm::kReproducible, ctx));
}

TEST(WireSchedules, ArrivalTreeFallsBackToAllgatherCombining) {
  // Arrival-order combining has no fixed wire plan; a scheduled group
  // runs it on the allgather backend with identical draws.
  SimProcessGroup wired(4, WirePath::kRing);
  SimProcessGroup baseline(4, WirePath::kAllgather);
  const auto data = mixed_magnitude_rank_data<double>(4, 64, 17);
  core::RunContext run_a(19, 0);
  core::RunContext run_b(19, 0);
  core::EvalContext ctx_a;
  ctx_a.run = &run_a;
  core::EvalContext ctx_b;
  ctx_b.run = &run_b;
  const auto a =
      wired.allreduce(data, collective::Algorithm::kArrivalTree, ctx_a);
  const auto b =
      baseline.allreduce(data, collective::Algorithm::kArrivalTree, ctx_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(fp::bitwise_equal(a[i], b[i]));
  }
}

TEST(WireSchedules, MeasuredTrafficIsOofNPerRankVsAllgatherOofNP) {
  // The satellite assertion: the ring schedule *measures* O(n) bytes per
  // rank where the allgather backend measures O(n*P).
  const std::size_t ranks = 8;
  const std::size_t n = 1u << 14;
  const auto data = mixed_magnitude_rank_data<double>(ranks, n, 23);
  const core::EvalContext ctx;

  SimProcessGroup wired(ranks, WirePath::kRing);
  (void)wired.allreduce(data, collective::Algorithm::kRing, ctx);
  SimProcessGroup baseline(ranks, WirePath::kAllgather);
  (void)baseline.allreduce(data, collective::Algorithm::kRing, ctx);

  for (std::size_t r = 0; r < ranks; ++r) {
    const Traffic wire_traffic = wired.traffic(r);
    const Traffic allgather_traffic = baseline.traffic(r);
    // Ring: reduce-scatter + allgather move < 2n elements per rank.
    EXPECT_GT(wire_traffic.bytes_sent, 0u);
    EXPECT_LE(wire_traffic.bytes_sent, 2 * n * sizeof(double));
    // Allgather backend: (P-1) * n elements per rank.
    EXPECT_EQ(allgather_traffic.bytes_sent,
              (ranks - 1) * n * sizeof(double));
    EXPECT_GE(allgather_traffic.bytes_sent,
              3 * wire_traffic.bytes_sent);  // O(n*P) dwarfs O(n) at P=8
  }
  wired.reset_traffic();
  EXPECT_EQ(wired.traffic(0).bytes_sent, 0u);
  EXPECT_EQ(wired.total_traffic().messages, 0u);
}

// ----------------------------------------- one rank per participant --

/// A payload held in 8-byte words, as Transport promises its codecs.
struct Payload {
  explicit Payload(std::size_t bytes) : words((bytes + 7) / 8), size(bytes) {}
  std::span<std::byte> bytes() {
    return {reinterpret_cast<std::byte*>(words.data()), size};
  }
  std::vector<std::uint64_t> words;
  std::size_t size;
};

/// The shared mailbox of the threaded loopback: blocking receives, FIFO
/// per (sender, receiver, tag) like MPI's non-overtaking order, so tags
/// may repeat across consecutive collectives.
class LoopbackMailbox {
 public:
  void post(std::size_t from, std::size_t to, std::int64_t tag,
            Payload payload) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      boxes_[{from, to, tag}].push_back(std::move(payload));
    }
    ready_.notify_all();
  }

  /// Times out instead of hanging when a peer has failed.
  Payload receive(std::size_t from, std::size_t to, std::int64_t tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto& box = boxes_[{from, to, tag}];
    if (!ready_.wait_for(lock, std::chrono::seconds(60),
                         [&] { return !box.empty(); })) {
      throw std::runtime_error("loopback: receive timed out");
    }
    Payload payload = std::move(box.front());
    box.pop_front();
    return payload;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::tuple<std::size_t, std::size_t, std::int64_t>,
           std::deque<Payload>>
      boxes_;
};

/// Plays one rank, as the MPI transport does, so the interpreter takes
/// the MPI code path without MPI: sends go to the mailbox before any
/// receive of the step, receives block.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(LoopbackMailbox& mailbox, std::size_t rank,
                    std::size_t ranks)
      : mailbox_(mailbox), rank_(rank), ranks_(ranks) {}

  std::size_t size() const noexcept override { return ranks_; }
  std::size_t first_rank() const noexcept override { return rank_; }
  std::size_t ranks_played() const noexcept override { return 1; }
  const char* name() const noexcept override { return "loopback"; }
  bool supports_concurrent_calls() const noexcept override { return false; }

  void step(std::span<const Message> messages, std::size_t element_bytes,
            const Pack& pack, const Deliver& deliver) override {
    for (const Message& msg : messages) {
      if (msg.sender != rank_) continue;
      Payload out(msg.range.size() * element_bytes);
      pack(msg, out.bytes());
      mailbox_.post(rank_, msg.receiver, static_cast<std::int64_t>(msg.step),
                    std::move(out));
    }
    for (const Message& msg : messages) {
      if (msg.receiver != rank_) continue;
      Payload in = mailbox_.receive(msg.sender, rank_,
                                    static_cast<std::int64_t>(msg.step));
      deliver(msg, in.bytes());
    }
  }

  std::vector<std::byte> gather(std::span<const std::byte> played,
                                std::size_t) override {
    constexpr std::int64_t kGatherTag = -1;
    for (std::size_t q = 0; q < ranks_; ++q) {
      if (q == rank_) continue;
      Payload out(played.size());
      std::memcpy(out.words.data(), played.data(), played.size());
      mailbox_.post(rank_, q, kGatherTag, std::move(out));
    }
    std::vector<std::byte> world(ranks_ * played.size());
    for (std::size_t q = 0; q < ranks_; ++q) {
      std::byte* slot = world.data() + q * played.size();
      if (q == rank_) {
        std::memcpy(slot, played.data(), played.size());
        continue;
      }
      Payload in = mailbox_.receive(q, rank_, kGatherTag);
      if (in.size != played.size()) {
        throw std::invalid_argument("loopback gather: length mismatch");
      }
      std::memcpy(slot, in.bytes().data(), played.size());
    }
    return world;
  }

 private:
  LoopbackMailbox& mailbox_;
  std::size_t rank_;
  std::size_t ranks_;
};

struct WireRecord {
  std::int64_t step = 0;
  std::int64_t receiver = 0;
  std::string spec;
  std::uint64_t bits = 0;
  std::uint64_t elements = 0;
  bool operator==(const WireRecord&) const = default;
};

/// What one process observes of one allreduce: the result bits, its
/// traffic row and its comm.wire records (those for `receiver` only when
/// set).
struct Observed {
  std::vector<std::uint64_t> bits;
  Traffic traffic;
  std::vector<WireRecord> records;
};

struct LoopbackCase {
  collective::Algorithm algorithm;
  const char* spec;  // nullptr: the default superaccumulator exchange
};

template <typename T>
std::vector<std::uint64_t> bit_patterns(const std::vector<T>& values) {
  std::vector<std::uint64_t> bits;
  for (const T x : values) {
    if constexpr (sizeof(T) == 8) {
      bits.push_back(fp::to_bits(x));
    } else {
      bits.push_back(fp::to_bits32(x));
    }
  }
  return bits;
}

template <typename T>
Observed observe(ProcessGroup& pg, const collective::RankDataT<T>& data,
                 const LoopbackCase& c, std::size_t row,
                 std::optional<std::size_t> receiver) {
  obs::Recorder recorder;
  core::EvalContext ctx;
  ctx.recorder = &recorder;
  if (c.spec != nullptr) ctx.accumulator = fp::parse_reduction_spec(c.spec);
  pg.reset_traffic();
  Observed seen;
  seen.bits = bit_patterns(pg.allreduce(data, c.algorithm, ctx));
  seen.traffic = pg.traffic(row);
  for (const auto& stamped : recorder.sorted_provenance()) {
    const auto& r = stamped.record;
    if (r.site != "comm.wire") continue;
    if (receiver && r.sub_index != static_cast<std::int64_t>(*receiver)) {
      continue;
    }
    seen.records.push_back({r.index, r.sub_index, r.spec, r.bits, r.elements});
  }
  return seen;
}

template <typename T>
std::vector<std::uint64_t> reference_bits(const collective::RankDataT<T>& data,
                                          const LoopbackCase& c) {
  if (c.spec != nullptr) {
    return bit_patterns(exact_elementwise_allreduce(
        data, fp::parse_reduction_spec(c.spec)));
  }
  return bit_patterns(
      collective::allreduce(data, c.algorithm, core::EvalContext{}));
}

TEST(WireSchedules, OneRankPerParticipantMatchesSim) {
  // The MPI code path without MPI: P participants on P threads, each
  // playing one rank through a loopback transport, must observe exactly
  // what the in-process simulation computes for that rank - result bits,
  // traffic row and comm.wire provenance - and the bits must equal the
  // collective reference. P = 3 and 5 cover the butterfly pre-fold.
  const std::vector<LoopbackCase> cases{
      {collective::Algorithm::kRing, nullptr},
      {collective::Algorithm::kRecursiveDoubling, nullptr},
      {collective::Algorithm::kReproducible, nullptr},
      {collective::Algorithm::kReproducible, "superaccumulator@bf16:f32"},
  };
  const std::size_t n = 61;
  for (const std::size_t ranks : {3u, 4u, 5u}) {
    const auto data = mixed_magnitude_rank_data<double>(ranks, n, 29 + ranks);
    const auto dataf = mixed_magnitude_rank_data<float>(ranks, n, 31 + ranks);
    for (const WirePath wire :
         {WirePath::kAllgather, WirePath::kRing, WirePath::kButterfly}) {
      // seen[r][2 * case + dtype], dtype 0 = f64, 1 = f32.
      std::vector<std::vector<Observed>> seen(ranks);
      std::vector<std::string> errors(ranks);
      LoopbackMailbox mailbox;
      std::vector<std::thread> participants;
      for (std::size_t r = 0; r < ranks; ++r) {
        participants.emplace_back([&, r] {
          try {
            ProcessGroup pg(
                std::make_unique<LoopbackTransport>(mailbox, r, ranks), wire);
            for (const LoopbackCase& c : cases) {
              seen[r].push_back(observe(pg, collective::RankData{data[r]}, c,
                                        r, std::nullopt));
              seen[r].push_back(observe(pg, collective::RankDataF{dataf[r]},
                                        c, r, std::nullopt));
            }
          } catch (const std::exception& error) {
            errors[r] = error.what();
          }
        });
      }
      for (auto& participant : participants) participant.join();
      for (std::size_t r = 0; r < ranks; ++r) {
        ASSERT_EQ(errors[r], "") << "participant " << r;
        ASSERT_EQ(seen[r].size(), 2 * cases.size());
      }

      SimProcessGroup sim(ranks, wire);
      for (std::size_t k = 0; k < cases.size(); ++k) {
        const LoopbackCase& c = cases[k];
        const auto expect = reference_bits(data, c);
        const auto expect_f = reference_bits(dataf, c);
        for (std::size_t r = 0; r < ranks; ++r) {
          const std::string where =
              std::string(to_string(wire)) + " " +
              collective::to_string(c.algorithm) + " " +
              (c.spec ? c.spec : "default") + " P=" + std::to_string(ranks) +
              " rank " + std::to_string(r);
          const Observed sim_seen = observe(sim, data, c, r, r);
          const Observed sim_seen_f = observe(sim, dataf, c, r, r);
          for (const auto& [mine, simulated, reference] :
               {std::tuple{&seen[r][2 * k], &sim_seen, &expect},
                std::tuple{&seen[r][2 * k + 1], &sim_seen_f, &expect_f}}) {
            EXPECT_EQ(mine->bits, simulated->bits) << where;
            EXPECT_EQ(simulated->bits, *reference) << where;
            EXPECT_EQ(mine->traffic.bytes_sent, simulated->traffic.bytes_sent)
                << where;
            EXPECT_EQ(mine->traffic.bytes_received,
                      simulated->traffic.bytes_received)
                << where;
            EXPECT_EQ(mine->traffic.messages, simulated->traffic.messages)
                << where;
            EXPECT_EQ(mine->records, simulated->records) << where;
            if (r == 0) {  // rank 0 receives on every schedule
              EXPECT_EQ(mine->records.empty(), wire == WirePath::kAllgather)
                  << where;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------ BucketScheduler --

TEST(BucketScheduler, FiresEachBucketWhenItsLastTensorArrives) {
  const std::vector<std::size_t> sizes{4, 4, 4, 4, 2};  // cap 8: {0,1}{2,3}{4}
  std::vector<std::size_t> fired;
  BucketScheduler scheduler(
      sizes, 8,
      [&](std::size_t b, const Bucket& bucket) {
        EXPECT_GE(bucket.tensor_count, 1u);
        fired.push_back(b);
      },
      nullptr);
  ASSERT_EQ(scheduler.buckets().size(), 3u);
  // Reverse arrival (the backward-pass order for forward-ordered sizes).
  scheduler.notify_ready(4);
  EXPECT_EQ(fired, (std::vector<std::size_t>{2}));
  scheduler.notify_ready(3);
  EXPECT_TRUE(fired.size() == 1);  // bucket 1 waits for tensor 2
  scheduler.notify_ready(2);
  EXPECT_EQ(fired, (std::vector<std::size_t>{2, 1}));
  scheduler.notify_ready(0);
  scheduler.notify_ready(1);
  EXPECT_EQ(fired, (std::vector<std::size_t>{2, 1, 0}));
  scheduler.finish();
  EXPECT_EQ(fired.size(), 3u);  // finish() re-fires nothing
}

TEST(BucketScheduler, ValidatesNotificationsAndBackfillsOnFinish) {
  const std::vector<std::size_t> sizes{4, 4};
  std::vector<std::size_t> fired;
  {
    BucketScheduler scheduler(
        sizes, 4, [&](std::size_t b, const Bucket&) { fired.push_back(b); });
    EXPECT_THROW(scheduler.notify_ready(2), std::out_of_range);
    scheduler.notify_ready(0);
    EXPECT_THROW(scheduler.notify_ready(0), std::logic_error);
    // Tensor 1 never announced: finish() still reduces its bucket.
    scheduler.finish();
  }
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 1}));
}

TEST(BucketScheduler, PoolFiringJoinsAndRethrows) {
  util::ThreadPool pool(2);
  const std::vector<std::size_t> sizes{1, 1, 1};
  BucketScheduler scheduler(
      sizes, 1,
      [&](std::size_t b, const Bucket&) {
        if (b == 1) throw std::runtime_error("bucket 1 failed");
      },
      &pool);
  scheduler.notify_ready(0);
  scheduler.notify_ready(1);
  scheduler.notify_ready(2);
  EXPECT_THROW(scheduler.finish(), std::runtime_error);
  scheduler.finish();  // idempotent after the error was observed
}

// -------------------------------------------- OverlappedBucketAllreduce --

TEST(OverlappedBucketAllreduce, MissedEmissionThrowsInsteadOfCorrupting) {
  // finish() backfills never-notified buckets; if a tensor's emission
  // never landed its data, the fire must diagnose the short buffer (a
  // std::logic_error) rather than reduce past its end.
  SimProcessGroup pg(2);
  const std::vector<std::size_t> tensor_sizes{8, 8};
  const std::vector<std::size_t> emit_order{1, 0};
  std::vector<TensorList<double>> rank_tensors(2, TensorList<double>(2));
  for (auto& rank : rank_tensors) rank[1].assign(8, 1.0);  // tensor 0 missing
  const core::EvalContext ctx;
  OverlappedBucketAllreduce<double> reducer(
      pg, rank_tensors, tensor_sizes, emit_order,
      collective::Algorithm::kReproducible, ctx,
      BucketedConfig{.bucket_cap_elements = 8});
  reducer.notify_slot_ready(0);  // tensor 1's bucket: fine
  EXPECT_THROW(reducer.finish(), std::logic_error);

  // Fully-fed runs reduce every tensor (values = rank count here).
  for (auto& rank : rank_tensors) rank[0].assign(8, 2.0);
  OverlappedBucketAllreduce<double> ok(
      pg, rank_tensors, tensor_sizes, emit_order,
      collective::Algorithm::kReproducible, ctx,
      BucketedConfig{.bucket_cap_elements = 8});
  const auto combined = ok.finish();  // backfill path, both buckets
  ASSERT_EQ(combined.size(), 2u);
  EXPECT_EQ(combined[0], std::vector<double>(8, 4.0));
  EXPECT_EQ(combined[1], std::vector<double>(8, 2.0));
}

TEST(OverlappedBucketAllreduce, ValidatesEmissionOrderAndRankCount) {
  SimProcessGroup pg(2);
  const std::vector<std::size_t> tensor_sizes{4, 4};
  std::vector<TensorList<double>> rank_tensors(2, TensorList<double>(2));
  const core::EvalContext ctx;
  const std::vector<std::size_t> repeated{0, 0};
  EXPECT_THROW(OverlappedBucketAllreduce<double>(
                   pg, rank_tensors, tensor_sizes, repeated,
                   collective::Algorithm::kRing, ctx),
               std::invalid_argument);
  const std::vector<std::size_t> order{1, 0};
  const std::vector<TensorList<double>> short_ranks(1,
                                                    TensorList<double>(2));
  EXPECT_THROW(OverlappedBucketAllreduce<double>(
                   pg, short_ranks, tensor_sizes, order,
                   collective::Algorithm::kRing, ctx),
               std::invalid_argument);
  // Arrival tree needs a run identity at construction (seed pre-draws).
  EXPECT_THROW(OverlappedBucketAllreduce<double>(
                   pg, rank_tensors, tensor_sizes, order,
                   collective::Algorithm::kArrivalTree, ctx),
               std::invalid_argument);
}

// --------------------------------------------------- bucketed_allreduce --

std::vector<TensorList<double>> random_rank_tensors(
    std::size_t ranks, const std::vector<std::size_t>& sizes,
    std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(-1e8, 1e8);
  std::vector<TensorList<double>> tensors(ranks);
  for (auto& rank : tensors) {
    rank.resize(sizes.size());
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      rank[t].resize(sizes[t]);
      for (auto& x : rank[t]) x = dist(rng);
    }
  }
  return tensors;
}

const std::vector<std::size_t> kSizes{130, 7, 0, 64, 33, 257, 1};

TEST(BucketedAllreduce, MatchesUnbucketedCollectivePerTensor) {
  // Recursive doubling pairs *ranks* independently of an element's
  // position in the buffer, and the reproducible exchange is
  // order-invariant outright: for both, any bucket cap gives the bits of
  // the whole-tensor collective. (Ring is position-dependent - covered by
  // RingBitsMoveWithBucketLayout below.)
  SimProcessGroup pg(4);
  const auto tensors = random_rank_tensors(4, kSizes, 11);
  const core::EvalContext ctx;
  for (const auto algorithm : {collective::Algorithm::kRecursiveDoubling,
                               collective::Algorithm::kReproducible}) {
    for (const std::size_t cap : {1u, 64u, 100000u}) {
      BucketedConfig config;
      config.bucket_cap_elements = cap;
      const auto reduced =
          bucketed_allreduce(pg, tensors, algorithm, ctx, config);
      ASSERT_EQ(reduced.size(), kSizes.size());
      for (std::size_t t = 0; t < kSizes.size(); ++t) {
        collective::RankData one(4);
        for (std::size_t r = 0; r < 4; ++r) one[r] = tensors[r][t];
        const auto expect = pg.allreduce(one, algorithm, ctx);
        ASSERT_EQ(reduced[t].size(), kSizes[t]);
        for (std::size_t i = 0; i < kSizes[t]; ++i) {
          EXPECT_TRUE(fp::bitwise_equal(reduced[t][i], expect[i]))
              << collective::to_string(algorithm) << " cap " << cap;
        }
      }
    }
  }
}

TEST(BucketedAllreduce, RingBitsMoveWithBucketLayout) {
  // The ring reduce-scatter walks chunk c starting at rank (c+1) % P, so
  // an element's combining order over ranks depends on its *offset in the
  // reduced buffer* - and therefore on the bucket cap. Re-bucketing a
  // gradient exchange re-rounds a ring allreduce: the DDP re-layout
  // hazard, absent from the reproducible path by construction.
  SimProcessGroup pg(4);
  const auto tensors = random_rank_tensors(4, kSizes, 11);
  const core::EvalContext ctx;
  const auto with_cap = [&](std::size_t cap) {
    BucketedConfig config;
    config.bucket_cap_elements = cap;
    return bucketed_allreduce(pg, tensors, collective::Algorithm::kRing,
                              ctx, config);
  };
  const auto narrow = with_cap(1);       // every tensor its own bucket
  const auto wide = with_cap(100000);    // one flat bucket
  // cap=1 buckets are single tensors: bitwise equal to the per-tensor
  // ring collective.
  for (std::size_t t = 0; t < kSizes.size(); ++t) {
    collective::RankData one(4);
    for (std::size_t r = 0; r < 4; ++r) one[r] = tensors[r][t];
    const auto expect = pg.allreduce(one, collective::Algorithm::kRing, ctx);
    for (std::size_t i = 0; i < kSizes[t]; ++i) {
      EXPECT_TRUE(fp::bitwise_equal(narrow[t][i], expect[i]));
    }
  }
  // The flat layout re-rounds somewhere.
  bool any_moved = false;
  for (std::size_t t = 0; t < kSizes.size(); ++t) {
    for (std::size_t i = 0; i < kSizes[t]; ++i) {
      if (!fp::bitwise_equal(narrow[t][i], wide[t][i])) any_moved = true;
    }
  }
  EXPECT_TRUE(any_moved);
}

TEST(BucketedAllreduce, EmptyTensorListReturnsEmpty) {
  SimProcessGroup pg(3);
  const std::vector<TensorList<double>> tensors(3);
  const core::EvalContext ctx;
  EXPECT_TRUE(
      bucketed_allreduce(pg, tensors, collective::Algorithm::kRing, ctx)
          .empty());
}

TEST(BucketedAllreduce, ValidatesShapesAndRankCount) {
  SimProcessGroup pg(2);
  const core::EvalContext ctx;
  // Wrong number of rank lists.
  EXPECT_THROW(bucketed_allreduce(pg, random_rank_tensors(3, kSizes, 13),
                                  collective::Algorithm::kRing, ctx),
               std::invalid_argument);
  // Mismatched tensor sizes across ranks.
  auto ragged = random_rank_tensors(2, kSizes, 13);
  ragged[1][0].pop_back();
  EXPECT_THROW(bucketed_allreduce(pg, ragged,
                                  collective::Algorithm::kRing, ctx),
               std::invalid_argument);
  // Arrival tree needs a run identity.
  EXPECT_THROW(bucketed_allreduce(pg, random_rank_tensors(2, kSizes, 13),
                                  collective::Algorithm::kArrivalTree, ctx),
               std::invalid_argument);
}

TEST(BucketedAllreduce, OverlapChangesWallClockNotBits) {
  SimProcessGroup pg(6);
  const auto tensors = random_rank_tensors(6, kSizes, 17);
  util::ThreadPool pool(4);
  for (const auto algorithm : {collective::Algorithm::kRing,
                               collective::Algorithm::kArrivalTree,
                               collective::Algorithm::kReproducible}) {
    for (const std::size_t cap : {32u, 256u}) {
      const auto reduce_with = [&](bool overlap, std::uint64_t run_index) {
        core::RunContext run(23, run_index);
        core::EvalContext ctx;
        ctx.run = &run;
        ctx.pool = &pool;
        BucketedConfig config;
        config.bucket_cap_elements = cap;
        config.overlap = overlap;
        return bucketed_allreduce(pg, tensors, algorithm, ctx, config);
      };
      const auto inline_bits = reduce_with(false, 0);
      const auto overlapped = reduce_with(true, 0);
      for (std::size_t t = 0; t < kSizes.size(); ++t) {
        for (std::size_t i = 0; i < kSizes[t]; ++i) {
          EXPECT_TRUE(
              fp::bitwise_equal(inline_bits[t][i], overlapped[t][i]))
              << collective::to_string(algorithm) << " cap " << cap;
        }
      }
    }
  }
}

TEST(BucketedAllreduce, PerBucketContextHookSelectsAccumulators) {
  // Bucket 0 rides the superaccumulator exchange, bucket 1+ the binned
  // sum: both exact-merge, so both are arrival-invariant, and the hook
  // demonstrably reaches each bucket (binned and superaccumulator round
  // identically here, so equality with the unhooked run certifies the
  // plumbing rather than moving bits).
  SimProcessGroup pg(4);
  const auto tensors = random_rank_tensors(4, kSizes, 19);
  const core::EvalContext ctx;
  BucketedConfig config;
  config.bucket_cap_elements = 128;
  std::vector<std::size_t> hooked;
  config.context_hook = [&](std::size_t b, core::EvalContext& bctx) {
    hooked.push_back(b);
    bctx.accumulator = b == 0 ? fp::AlgorithmId::kSuperaccumulator
                              : fp::AlgorithmId::kBinned;
  };
  const auto reduced = bucketed_allreduce(
      pg, tensors, collective::Algorithm::kReproducible, ctx, config);
  EXPECT_GT(hooked.size(), 1u);
  const auto unhooked = bucketed_allreduce(
      pg, tensors, collective::Algorithm::kReproducible, ctx,
      BucketedConfig{.bucket_cap_elements = 128});
  for (std::size_t t = 0; t < kSizes.size(); ++t) {
    for (std::size_t i = 0; i < kSizes[t]; ++i) {
      EXPECT_TRUE(fp::bitwise_equal(reduced[t][i], unhooked[t][i]));
    }
  }
}

// ------------------------------------------- sharded_bucketed_allreduce --

std::vector<TensorList<double>> ill_conditioned_samples(
    std::size_t samples, const std::vector<std::size_t>& sizes,
    std::uint64_t seed) {
  // Large magnitude spread with cancellation: every re-association of the
  // sample contributions is visible in the low-order bits.
  util::Xoshiro256pp rng(seed);
  std::vector<TensorList<double>> grads(samples);
  for (auto& sample : grads) {
    sample.resize(sizes.size());
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      sample[t].resize(sizes[t]);
      for (auto& x : sample[t]) {
        const double mag =
            std::ldexp(1.0, static_cast<int>(rng() % 60) - 30);
        x = ((rng() & 1) ? mag : -mag) *
            (1.0 + static_cast<double>(rng() % 1000) * 1e-3);
      }
    }
  }
  return grads;
}

std::vector<std::size_t> owner_map(std::size_t samples, std::size_t ranks,
                                   std::uint64_t seed) {
  // Deliberately uneven: a seeded random assignment, so some ranks own
  // many samples and (for small sample counts) some own none.
  util::Xoshiro256pp rng(seed);
  std::vector<std::size_t> owner(samples);
  for (auto& r : owner) r = rng() % ranks;
  return owner;
}

TEST(ShardedBucketedAllreduce, ReproducibleBitsInvariantToEverything) {
  // The tentpole certification: identical bits for every (rank count,
  // bucket cap, arrival order, shard split) combination.
  const auto samples = ill_conditioned_samples(24, kSizes, 29);
  const core::EvalContext base_ctx;
  SimProcessGroup one(1);
  const std::vector<std::size_t> all_zero(24, 0);
  const auto reference = sharded_bucketed_allreduce(
      one, samples, all_zero, collective::Algorithm::kReproducible,
      base_ctx, {});
  for (const std::size_t ranks : {1u, 2u, 3u, 8u, 24u}) {
    SimProcessGroup pg(ranks);
    for (const std::size_t cap : {1u, 100u, 1u << 20}) {
      for (const std::uint64_t split_seed : {1u, 2u, 3u}) {
        for (const std::uint64_t run_index : {0u, 1u}) {
          core::RunContext run(31, run_index);
          core::EvalContext ctx;
          ctx.run = &run;
          const auto reduced = sharded_bucketed_allreduce(
              pg, samples, owner_map(24, ranks, split_seed),
              collective::Algorithm::kReproducible, ctx,
              BucketedConfig{.bucket_cap_elements = cap});
          for (std::size_t t = 0; t < kSizes.size(); ++t) {
            for (std::size_t i = 0; i < kSizes[t]; ++i) {
              EXPECT_TRUE(
                  fp::bitwise_equal(reduced[t][i], reference[t][i]))
                  << "ranks " << ranks << " cap " << cap << " split "
                  << split_seed << " run " << run_index;
            }
          }
        }
      }
    }
  }
}

TEST(ShardedBucketedAllreduce, ArrivalTreeMovesWithArrivalOrder) {
  const auto samples = ill_conditioned_samples(24, kSizes, 37);
  SimProcessGroup pg(8);
  const auto owner = owner_map(24, 8, 4);
  const auto kernel = [&](core::RunContext& run) {
    core::EvalContext ctx;
    ctx.run = &run;
    const auto reduced = sharded_bucketed_allreduce(
        pg, samples, owner, collective::Algorithm::kArrivalTree, ctx,
        BucketedConfig{.bucket_cap_elements = 64});
    std::vector<double> flat;
    for (const auto& tensor : reduced) {
      flat.insert(flat.end(), tensor.begin(), tensor.end());
    }
    return flat;
  };
  EXPECT_FALSE(core::certify_deterministic(kernel, 8, 41).deterministic);
}

TEST(ShardedBucketedAllreduce, RoundedAlgorithmsMoveWithShardSplit) {
  // The deterministic-but-rounded collectives commit to the shard
  // association: a different owner map generally lands on different bits
  // (the re-layout hazard the reproducible path removes).
  const auto samples = ill_conditioned_samples(24, kSizes, 43);
  SimProcessGroup pg(6);
  const core::EvalContext ctx;
  const auto a = sharded_bucketed_allreduce(
      pg, samples, owner_map(24, 6, 1), collective::Algorithm::kRing, ctx,
      {});
  const auto b = sharded_bucketed_allreduce(
      pg, samples, owner_map(24, 6, 2), collective::Algorithm::kRing, ctx,
      {});
  bool any_moved = false;
  for (std::size_t t = 0; t < kSizes.size(); ++t) {
    for (std::size_t i = 0; i < kSizes[t]; ++i) {
      if (!fp::bitwise_equal(a[t][i], b[t][i])) any_moved = true;
    }
  }
  EXPECT_TRUE(any_moved);
}

TEST(ShardedBucketedAllreduce, WireSchedulesMatchAllgatherForEverySpec) {
  // Schedule wires against the allgather baseline across rank count x
  // bucket cap x ReductionSpec: the rounded path (kahan@bf16:f32 local
  // folds feeding a ring collective) and the exact superaccumulator path
  // both land on identical bits whichever wire carries them.
  const auto samples = ill_conditioned_samples(16, kSizes, 51);
  for (const char* name :
       {"kahan@bf16:f32", "serial", "superaccumulator",
        "superaccumulator@bf16:f32"}) {
    const fp::ReductionSpec spec = fp::parse_reduction_spec(name);
    const auto algorithm = fp::traits_of(spec).exact_merge
                               ? collective::Algorithm::kReproducible
                               : collective::Algorithm::kRing;
    for (const std::size_t ranks : {2u, 3u, 8u}) {
      const auto owner = owner_map(16, ranks, 5);
      SimProcessGroup baseline(ranks, WirePath::kAllgather);
      for (const WirePath wire : {WirePath::kRing, WirePath::kButterfly}) {
        SimProcessGroup wired(ranks, wire);
        for (const std::size_t cap : {64u, 1u << 20}) {
          core::EvalContext ctx;
          ctx.accumulator = spec;
          const BucketedConfig config{.bucket_cap_elements = cap};
          const auto expect = sharded_bucketed_allreduce(
              baseline, samples, owner, algorithm, ctx, config);
          const auto got = sharded_bucketed_allreduce(
              wired, samples, owner, algorithm, ctx, config);
          for (std::size_t t = 0; t < kSizes.size(); ++t) {
            for (std::size_t i = 0; i < kSizes[t]; ++i) {
              ASSERT_TRUE(fp::bitwise_equal(got[t][i], expect[t][i]))
                  << name << " " << to_string(wire) << " P=" << ranks
                  << " cap=" << cap;
            }
          }
        }
      }
    }
  }
}

TEST(ShardedBucketedAllreduce, Validation) {
  SimProcessGroup pg(2);
  const core::EvalContext ctx;
  const auto samples = ill_conditioned_samples(4, {8}, 47);
  const std::vector<TensorList<double>> no_samples;
  EXPECT_THROW(sharded_bucketed_allreduce(pg, no_samples, {},
                                          collective::Algorithm::kRing, ctx),
               std::invalid_argument);
  const std::vector<std::size_t> short_owner(3, 0);
  EXPECT_THROW(
      sharded_bucketed_allreduce(pg, samples, short_owner,
                                 collective::Algorithm::kRing, ctx),
      std::invalid_argument);
  const std::vector<std::size_t> bad_owner{0, 1, 2, 0};
  EXPECT_THROW(
      sharded_bucketed_allreduce(pg, samples, bad_owner,
                                 collective::Algorithm::kRing, ctx),
      std::out_of_range);
}

}  // namespace
}  // namespace fpna::comm

// --------------------------------------------------- data-parallel dl --

namespace fpna::dl {
namespace {

DatasetConfig tiny_config() {
  auto config = DatasetConfig::small();
  config.num_nodes = 120;
  config.num_undirected_edges = 300;
  config.num_features = 32;
  config.words_per_node = 5;
  return config;
}

TEST(DataParallel, ShardMasksPartitionTrainingNodes) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  for (const auto split :
       {ShardSplit::kRoundRobin, ShardSplit::kContiguous}) {
    // 7 ranks over the training nodes: shards are uneven by construction.
    const auto masks = shard_train_mask(ds.train_mask, 7, split);
    ASSERT_EQ(masks.size(), 7u);
    std::size_t covered = 0;
    bool uneven = false;
    std::size_t first_count = 0;
    for (std::size_t r = 0; r < masks.size(); ++r) {
      std::size_t count = 0;
      for (std::size_t v = 0; v < ds.train_mask.size(); ++v) {
        EXPECT_TRUE(!masks[r][v] || ds.train_mask[v]);
        if (masks[r][v]) ++count;
      }
      if (r == 0) {
        first_count = count;
      } else if (count != first_count) {
        uneven = true;
      }
      covered += count;
    }
    EXPECT_EQ(covered, static_cast<std::size_t>(ds.train_count()));
    EXPECT_TRUE(uneven);  // 120 * 0.6 = 72 training nodes, 72 % 7 != 0
  }
}

TEST(DataParallel, SingleRankMatchesSerialTrainerBitwise) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  TrainConfig base;
  base.epochs = 4;
  base.hidden = 8;

  core::RunContext serial_run(53, 0);
  const auto serial = train(ds, base, serial_run);

  for (const auto algorithm : {collective::Algorithm::kReproducible,
                               collective::Algorithm::kRing}) {
    DataParallelConfig config;
    config.base = base;
    config.ranks = 1;
    config.algorithm = algorithm;
    core::RunContext run(53, 0);
    const auto parallel = train_data_parallel(ds, config, run);
    ASSERT_EQ(parallel.final_weights.size(), serial.final_weights.size());
    for (std::size_t i = 0; i < serial.final_weights.size(); ++i) {
      EXPECT_TRUE(fp::bitwise_equal(parallel.final_weights[i],
                                    serial.final_weights[i]))
          << collective::to_string(algorithm);
    }
    ASSERT_EQ(parallel.epoch_losses.size(), serial.epoch_losses.size());
    for (std::size_t e = 0; e < serial.epoch_losses.size(); ++e) {
      EXPECT_TRUE(fp::bitwise_equal(parallel.epoch_losses[e],
                                    serial.epoch_losses[e]));
    }
  }
}

TEST(DataParallel, ReproducibleTrainingIsRunToRunBitStable) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  DataParallelConfig config;
  config.base.epochs = 3;
  config.base.hidden = 8;
  config.ranks = 5;
  config.bucket_cap_elements = 64;  // many buckets
  const auto kernel = [&](core::RunContext& run) {
    return train_data_parallel(ds, config, run).final_weights;
  };
  EXPECT_TRUE(core::certify_deterministic(kernel, 4, 59).deterministic);
}

TEST(DataParallel, ArrivalTreeTrainsUniqueModels) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  DataParallelConfig config;
  config.base.epochs = 3;
  config.base.hidden = 8;
  config.ranks = 5;
  config.algorithm = collective::Algorithm::kArrivalTree;
  std::vector<std::vector<double>> weights;
  for (std::uint64_t r = 0; r < 6; ++r) {
    core::RunContext run(61, r);
    weights.push_back(train_data_parallel(ds, config, run).final_weights);
  }
  // Distributed analogue of the paper's SV.B: every run a unique model,
  // even though every rank's local computation is deterministic.
  EXPECT_EQ(core::count_unique_outputs(weights), weights.size());
}

TEST(DataParallel, OverlapDoesNotMoveTrainingBits) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  util::ThreadPool pool(4);
  DataParallelConfig config;
  config.base.epochs = 3;
  config.base.hidden = 8;
  config.ranks = 4;
  config.bucket_cap_elements = 64;
  core::RunContext run_a(67, 0);
  const auto inline_weights =
      train_data_parallel(ds, config, run_a).final_weights;
  config.overlap = true;
  config.pool = &pool;
  core::RunContext run_b(67, 0);
  const auto overlapped =
      train_data_parallel(ds, config, run_b).final_weights;
  ASSERT_EQ(inline_weights.size(), overlapped.size());
  for (std::size_t i = 0; i < inline_weights.size(); ++i) {
    EXPECT_TRUE(fp::bitwise_equal(inline_weights[i], overlapped[i]));
  }
}

TEST(DataParallel, BackwardOverlapBitwiseEqualsPackedInReproducibleMode) {
  // The tentpole training certification: firing buckets mid-backward
  // (reverse-order readiness, pool-overlapped reduction) produces the
  // exact bits of the PR 2 packed-gradient path in reproducible mode, at
  // every pool width - and for the dtype-quantized exchange too.
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  DataParallelConfig packed;
  packed.base.epochs = 3;
  packed.base.hidden = 8;
  packed.ranks = 4;
  packed.bucket_cap_elements = 64;  // several buckets
  packed.exchange = GradientExchange::kPacked;

  for (const char* comm_spec : {"", "superaccumulator@bf16:f32"}) {
    DataParallelConfig reference = packed;
    if (*comm_spec != '\0') {
      reference.comm_accumulator = fp::parse_reduction_spec(comm_spec);
    }
    core::RunContext packed_run(83, 0);
    const auto packed_weights =
        train_data_parallel(ds, reference, packed_run).final_weights;

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      DataParallelConfig overlap = reference;
      overlap.exchange = GradientExchange::kBucketOverlap;
      overlap.overlap = true;
      overlap.pool = &pool;
      core::RunContext run(83, 0);
      const auto weights =
          train_data_parallel(ds, overlap, run).final_weights;
      ASSERT_EQ(weights.size(), packed_weights.size());
      for (std::size_t i = 0; i < weights.size(); ++i) {
        ASSERT_TRUE(fp::bitwise_equal(weights[i], packed_weights[i]))
            << "threads " << threads << " spec '" << comm_spec << "'";
      }
    }
  }
}

TEST(DataParallel, BackwardOverlapIsRunToRunStableForDeterministicRing) {
  // The rounded ring commits to the emission-order bucket layout, so its
  // bits may differ from the packed path - but each layout is a pure
  // function of the configuration, certified bit-stable run to run.
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  util::ThreadPool pool(4);
  DataParallelConfig config;
  config.base.epochs = 3;
  config.base.hidden = 8;
  config.ranks = 5;
  config.bucket_cap_elements = 64;
  config.algorithm = collective::Algorithm::kRing;
  config.overlap = true;
  config.pool = &pool;
  const auto kernel = [&](core::RunContext& run) {
    return train_data_parallel(ds, config, run).final_weights;
  };
  EXPECT_TRUE(core::certify_deterministic(kernel, 4, 89).deterministic);
}

TEST(DataParallel, TrainingBitsInvariantToWireSchedule) {
  // Reproducible training over the allgather, ring and butterfly wires:
  // identical weights - the wire moves traffic, never bits.
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  DataParallelConfig config;
  config.base.epochs = 2;
  config.base.hidden = 8;
  config.ranks = 4;
  config.bucket_cap_elements = 64;
  core::RunContext run_a(97, 0);
  const auto reference = train_data_parallel(ds, config, run_a).final_weights;
  for (const comm::WirePath wire :
       {comm::WirePath::kRing, comm::WirePath::kButterfly}) {
    config.wire = wire;
    core::RunContext run(97, 0);
    const auto weights = train_data_parallel(ds, config, run).final_weights;
    ASSERT_EQ(weights.size(), reference.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      EXPECT_TRUE(fp::bitwise_equal(weights[i], reference[i]))
          << comm::to_string(wire);
    }
  }
}

TEST(DataParallel, UnevenContiguousShardsStillCertify) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  DataParallelConfig config;
  config.base.epochs = 2;
  config.base.hidden = 4;
  config.ranks = 7;  // 72 training nodes -> shards of 11 and 10
  config.split = ShardSplit::kContiguous;
  const auto kernel = [&](core::RunContext& run) {
    return train_data_parallel(ds, config, run).final_weights;
  };
  EXPECT_TRUE(core::certify_deterministic(kernel, 3, 71).deterministic);
}

TEST(DataParallel, Validation) {
  const auto ds = make_synthetic_citation_dataset(tiny_config());
  DataParallelConfig config;
  config.base.epochs = 0;
  core::RunContext run(73, 0);
  EXPECT_THROW(train_data_parallel(ds, config, run), std::invalid_argument);
  config.base.epochs = 1;
  config.ranks = 3;
  comm::SimProcessGroup mismatched(2);
  EXPECT_THROW(train_data_parallel(ds, config, run, mismatched),
               std::invalid_argument);
  // Loss scaling is not implemented for the gradient exchange: an enabled
  // scale throws instead of silently training unscaled.
  config.ranks = 2;
  for (const auto& scale : {LossScaleConfig::static_scale(1024.0f),
                            LossScaleConfig::dynamic(1024.0f)}) {
    config.base.loss_scale = scale;
    EXPECT_THROW(train_data_parallel(ds, config, run), std::invalid_argument);
  }
}

}  // namespace
}  // namespace fpna::dl
