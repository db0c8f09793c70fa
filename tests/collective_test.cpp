// Unit and property tests of the allreduce algorithms (the paper's SVI
// future-work direction) - ring, recursive doubling, arrival-order tree
// and the reproducible superaccumulator exchange - and the distributed
// sum. The shipped allreduce is comm's process group; every deterministic
// result is certified against the independent loops of
// reference_allreduce.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "fpna/collective/allreduce.hpp"
#include "fpna/comm/process_group.hpp"
#include "fpna/core/chunking.hpp"
#include "fpna/core/harness.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/rng.hpp"
#include "reference_allreduce.hpp"

namespace fpna::collective {
namespace {

RankData random_rank_data(std::size_t ranks, std::size_t n,
                          std::uint64_t seed, double lo = -1e6,
                          double hi = 1e6) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(lo, hi);
  RankData data(ranks, std::vector<double>(n));
  for (auto& rank : data) {
    for (auto& x : rank) x = dist(rng);
  }
  return data;
}

constexpr comm::WirePath kWires[] = {
    comm::WirePath::kAllgather, comm::WirePath::kRing,
    comm::WirePath::kButterfly};

/// The shipped allreduce: a simulated process group on `wire`.
std::vector<double> shipped(const RankData& data, Algorithm algorithm,
                            comm::WirePath wire = comm::WirePath::kAllgather) {
  comm::SimProcessGroup pg(data.size(), wire);
  return pg.allreduce(data, algorithm, core::EvalContext{});
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(fp::bitwise_equal(got[i], want[i])) << where << " i=" << i;
  }
}

TEST(Allreduce, ValidatesShapes) {
  EXPECT_THROW(validate(RankData{}), std::invalid_argument);
  RankData ragged{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(validate(ragged), std::invalid_argument);
  EXPECT_THROW(reference::ring(ragged), std::invalid_argument);
  for (const comm::WirePath wire : kWires) {
    EXPECT_THROW(shipped(ragged, Algorithm::kRing, wire),
                 std::invalid_argument);
  }
}

TEST(Allreduce, SingleRankIsIdentity) {
  const RankData one{{1.5, -2.5, 3.0}};
  for (const comm::WirePath wire : kWires) {
    for (const auto algorithm :
         {Algorithm::kRing, Algorithm::kRecursiveDoubling,
          Algorithm::kReproducible}) {
      EXPECT_EQ(shipped(one, algorithm, wire), one[0])
          << comm::to_string(wire) << " " << to_string(algorithm);
      EXPECT_EQ(reference::allreduce(one, algorithm), one[0]);
    }
  }
}

TEST(Allreduce, AllVariantsAgreeOnExactData) {
  // Integer-valued contributions sum exactly: all algorithms must agree.
  RankData data(5, std::vector<double>(16));
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t i = 0; i < 16; ++i) {
      data[r][i] = static_cast<double>(r * 16 + i);
    }
  }
  const auto ring = shipped(data, Algorithm::kRing);
  const auto rd = shipped(data, Algorithm::kRecursiveDoubling);
  const auto repro = shipped(data, Algorithm::kReproducible);
  core::RunContext ctx(1, 0);
  const auto arrival = allreduce_arrival_tree(data, ctx);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(ring[i], repro[i]);
    EXPECT_EQ(rd[i], repro[i]);
    EXPECT_EQ(arrival[i], repro[i]);
  }
}

TEST(Allreduce, AllVariantsCloseToExactOnRandomData) {
  const auto data = random_rank_data(8, 64, 7);
  const auto repro = shipped(data, Algorithm::kReproducible);
  expect_bitwise(repro, reference::superaccumulator(data), "reproducible");
  core::RunContext ctx(2, 0);
  for (const auto& result :
       {shipped(data, Algorithm::kRing),
        shipped(data, Algorithm::kRecursiveDoubling),
        allreduce_arrival_tree(data, ctx)}) {
    for (std::size_t i = 0; i < repro.size(); ++i) {
      EXPECT_NEAR(result[i], repro[i], std::fabs(repro[i]) * 1e-13 + 1e-9);
    }
  }
}

TEST(Allreduce, RingAndButterflyAreDeterministicButDiffer) {
  const auto data = random_rank_data(7, 256, 11);
  for (const comm::WirePath wire : kWires) {
    const auto ring_kernel = [&](core::RunContext&) {
      return shipped(data, Algorithm::kRing, wire);
    };
    const auto rd_kernel = [&](core::RunContext&) {
      return shipped(data, Algorithm::kRecursiveDoubling, wire);
    };
    EXPECT_TRUE(core::certify_deterministic(ring_kernel, 5, 3).deterministic);
    EXPECT_TRUE(core::certify_deterministic(rd_kernel, 5, 3).deterministic);
  }
  // Different association => generally different bits somewhere (the MPI
  // algorithm-selection hazard).
  const auto ring = shipped(data, Algorithm::kRing);
  const auto rd = shipped(data, Algorithm::kRecursiveDoubling);
  expect_bitwise(ring, reference::ring(data), "ring");
  expect_bitwise(rd, reference::recursive_doubling(data), "rd");
  EXPECT_GT(core::vc(ring, rd), 0.0);
}

TEST(Allreduce, ArrivalTreeIsNonDeterministic) {
  const auto data = random_rank_data(16, 512, 13);
  const auto kernel = [&](core::RunContext& ctx) {
    return allreduce_arrival_tree(data, ctx);
  };
  const auto cert = core::certify_deterministic(kernel, 10, 5);
  EXPECT_FALSE(cert.deterministic);
}

TEST(Allreduce, ReproducibleInvariantToArrivalAndPermutation) {
  auto data = random_rank_data(9, 128, 17);
  for (const comm::WirePath wire : kWires) {
    auto permuted = data;
    const auto reference = shipped(permuted, Algorithm::kReproducible, wire);
    // Permuting the ranks must not change a single bit.
    std::rotate(permuted.begin(), permuted.begin() + 4, permuted.end());
    const auto rotated = shipped(permuted, Algorithm::kReproducible, wire);
    expect_bitwise(rotated, reference, comm::to_string(wire));
  }
}

TEST(Allreduce, RecursiveDoublingHandlesNonPowerOfTwo) {
  for (const std::size_t ranks : {3u, 5u, 6u, 7u, 12u}) {
    const auto data = random_rank_data(ranks, 32, 19 + ranks);
    const auto exact = shipped(data, Algorithm::kReproducible);
    for (const comm::WirePath wire : kWires) {
      const auto result = shipped(data, Algorithm::kRecursiveDoubling, wire);
      expect_bitwise(result, reference::recursive_doubling(data),
                     comm::to_string(wire));
      for (std::size_t i = 0; i < exact.size(); ++i) {
        EXPECT_NEAR(result[i], exact[i], std::fabs(exact[i]) * 1e-13 + 1e-9);
      }
    }
  }
}

// ------------------------------------------------------ distributed sum --

/// The distributed sum under test, with `run` as its only context field.
double dsum(std::span<const double> data, std::size_t ranks,
            Algorithm algorithm, core::RunContext* run = nullptr) {
  core::EvalContext ctx;
  ctx.run = run;
  return comm::distributed_sum(data, ranks, algorithm, ctx);
}

std::vector<double> mixed_magnitude(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal mantissa(-1.0, 1.0);
  const util::UniformReal exponent(-12.0, 12.0);
  std::vector<double> data(n);
  for (auto& x : data) x = mantissa(rng) * std::pow(10.0, exponent(rng));
  return data;
}

TEST(DistributedSum, ShardPartitionsEverything) {
  std::vector<double> data(103);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = double(i);
  const auto shards = shard(data, 7);
  ASSERT_EQ(shards.size(), 7u);
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  EXPECT_EQ(total, data.size());
  // Order preserved: concatenation reproduces the data.
  std::vector<double> cat;
  for (const auto& s : shards) cat.insert(cat.end(), s.begin(), s.end());
  EXPECT_EQ(cat, data);
}

TEST(DistributedSum, MatchesAlgorithms) {
  util::Xoshiro256pp rng(23);
  const util::UniformReal dist(-1.0, 1.0);
  std::vector<double> data(10000);
  for (auto& x : data) x = dist(rng);

  const double exact = fp::Superaccumulator::sum(data);
  EXPECT_EQ(dsum(data, 8, Algorithm::kReproducible), exact);

  core::RunContext ctx(3, 0);
  for (const auto algorithm :
       {Algorithm::kRing, Algorithm::kRecursiveDoubling,
        Algorithm::kArrivalTree}) {
    const double value = dsum(data, 8, algorithm, &ctx);
    EXPECT_NEAR(value, exact, std::fabs(exact) * 1e-12 + 1e-9)
        << to_string(algorithm);
  }
}

TEST(DistributedSum, RoundedAlgorithmsCombineSerialPartialsInTheirOrder) {
  // Each rank folds its shard serially; the P partials then meet in the
  // reference association of the algorithm.
  const auto data = mixed_magnitude(999, 37);
  for (const std::size_t ranks : {1u, 2u, 3u, 5u, 8u, 64u}) {
    RankData partials;
    for (const auto& s : shard(data, ranks)) {
      partials.push_back(
          {fp::reduce<double>(fp::AlgorithmId::kSerial, std::span(s))});
    }
    for (const auto algorithm :
         {Algorithm::kRing, Algorithm::kRecursiveDoubling}) {
      EXPECT_TRUE(fp::bitwise_equal(
          dsum(data, ranks, algorithm),
          reference::allreduce(partials, algorithm)[0]))
          << to_string(algorithm) << " P=" << ranks;
    }
  }
}

TEST(DistributedSum, ReproducibleInvariantToRankCount) {
  util::Xoshiro256pp rng(29);
  const util::UniformReal dist(-1e3, 1e3);
  std::vector<double> data(4321);
  for (auto& x : data) x = dist(rng);

  const double reference = dsum(data, 1, Algorithm::kReproducible);
  for (const std::size_t ranks : {2u, 3u, 8u, 16u, 64u}) {
    EXPECT_TRUE(fp::bitwise_equal(
        dsum(data, ranks, Algorithm::kReproducible), reference));
  }
  // The ring sum, by contrast, depends on the rank count (different
  // association).
  const double ring1 = dsum(data, 2, Algorithm::kRing);
  const double ring2 = dsum(data, 64, Algorithm::kRing);
  EXPECT_FALSE(fp::bitwise_equal(ring1, ring2));
}

TEST(DistributedSum, ArrivalTreeVariesAcrossRuns) {
  util::Xoshiro256pp rng(31);
  const util::UniformReal dist(-1e6, 1e6);
  std::vector<double> data(50000);
  for (auto& x : data) x = dist(rng);

  const auto kernel = [&](core::RunContext& ctx) {
    return dsum(data, 16, Algorithm::kArrivalTree, &ctx);
  };
  EXPECT_FALSE(core::certify_deterministic_scalar(kernel, 20, 7).deterministic);
}

TEST(DistributedSum, Validation) {
  const std::vector<double> data{1.0};
  EXPECT_THROW(dsum(data, 0, Algorithm::kRing), std::invalid_argument);
  EXPECT_THROW(dsum(data, 2, Algorithm::kArrivalTree, nullptr),
               std::invalid_argument);
}

TEST(DistributedSum, GoldenBits) {
  // Pins every algorithm's distributed sum over rank counts that cover
  // one rank, the butterfly pre-fold and more ranks than a power of two.
  const auto data = random_rank_data(1, 4321, 41).front();
  struct Case {
    Algorithm algorithm;
    const char* golden;
  };
  const Case cases[] = {
      {Algorithm::kRing, "d6a529159af73c2e"},
      {Algorithm::kRecursiveDoubling, "d6d584fd21b7158a"},
      {Algorithm::kReproducible, "6b2b5cb731229153"},
      {Algorithm::kArrivalTree, "8e27b7e6ccd0bcd1"},
  };
  for (const Case& c : cases) {
    obs::Fingerprint print;
    for (const std::size_t ranks : {1u, 2u, 3u, 5u, 8u, 64u}) {
      core::RunContext run(43, 0);
      print.feed(dsum(data, ranks, c.algorithm, &run));
    }
    EXPECT_EQ(obs::hex64(print.value()), c.golden) << to_string(c.algorithm);
  }
}

TEST(DistributedSum, MetadataHelpers) {
  EXPECT_TRUE(is_deterministic(Algorithm::kRing));
  EXPECT_TRUE(is_deterministic(Algorithm::kReproducible));
  EXPECT_FALSE(is_deterministic(Algorithm::kArrivalTree));
  EXPECT_STREQ(to_string(Algorithm::kRecursiveDoubling),
               "recursive-doubling");
}

// The collective wrappers delegate to core/chunking.hpp; these pins mean
// a change to the shared rules cannot silently move wire boundaries (and
// with them the certified bits of every schedule-based reduction).
TEST(Chunking, RingChunkIsTheCeilRuleAndShardSizesTheEvenRule) {
  for (const std::size_t total : {0u, 1u, 9u, 64u, 1000u}) {
    for (const std::size_t ranks : {1u, 2u, 3u, 8u, 41u}) {
      std::size_t shard_total = 0;
      const auto sizes = shard_sizes(total, ranks);
      ASSERT_EQ(sizes.size(), ranks);
      for (std::size_t r = 0; r < ranks; ++r) {
        EXPECT_EQ(ring_chunk(total, ranks, r),
                  core::ceil_chunk(total, ranks, r));
        EXPECT_EQ(sizes[r], core::even_chunk_size(total, ranks, r));
        shard_total += sizes[r];
      }
      EXPECT_EQ(shard_total, total);
    }
  }
  EXPECT_THROW(ring_chunk(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_sizes(10, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fpna::collective
