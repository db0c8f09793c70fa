#include "fpna/collective/allreduce.hpp"

#include <algorithm>
#include <stdexcept>

#include "fpna/core/chunking.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/fp/superaccumulator.hpp"
#include "fpna/util/permutation.hpp"

namespace fpna::collective {

template <typename T>
void validate(const RankDataT<T>& contributions) {
  if (contributions.empty()) {
    throw std::invalid_argument("allreduce: no ranks");
  }
  const std::size_t n = contributions.front().size();
  for (const auto& rank : contributions) {
    if (rank.size() != n) {
      throw std::invalid_argument("allreduce: rank vector length mismatch");
    }
  }
}

std::pair<std::size_t, std::size_t> ring_chunk(std::size_t total,
                                               std::size_t ranks,
                                               std::size_t chunk_index) {
  if (ranks == 0) throw std::invalid_argument("ring_chunk: zero ranks");
  // The ceil-stride rule shared through core/chunking.hpp: every rank
  // derives chunk boundaries from (total, ranks) alone, so no boundary
  // metadata travels the wire. Deliberately distinct from the near-even
  // shard_sizes rule below - see the core header for the invariant.
  return core::ceil_chunk(total, ranks, chunk_index);
}

template <typename T>
std::vector<T> allreduce_ring(const RankDataT<T>& contributions) {
  validate(contributions);
  const std::size_t ranks = contributions.size();
  const std::size_t n = contributions.front().size();

  // Reduce-scatter: chunk c travels the ring starting after its owner;
  // the accumulation order for chunk c is ranks (c+1)%P, (c+2)%P, ...,
  // c%P - fixed by topology, independent of timing.
  std::vector<T> result(n, T{0});
  for (std::size_t c = 0; c < ranks; ++c) {
    const auto [begin, end] = ring_chunk(n, ranks, c);
    for (std::size_t i = begin; i < end; ++i) {
      T acc = contributions[(c + 1) % ranks][i];
      for (std::size_t hop = 2; hop <= ranks; ++hop) {
        acc = static_cast<T>(acc + contributions[(c + hop) % ranks][i]);
      }
      result[i] = acc;
    }
  }
  // Allgather distributes identical chunks: every rank sees `result`.
  return result;
}

template <typename T>
std::vector<T> allreduce_recursive_doubling(const RankDataT<T>& contributions) {
  validate(contributions);
  const std::size_t ranks = contributions.size();
  const std::size_t n = contributions.front().size();

  // Butterfly: at stage s, rank r combines with rank r ^ 2^s. For
  // non-power-of-two counts the remainder ranks fold in first (the usual
  // MPICH pre-step), still in a fixed order.
  RankDataT<T> buffers = contributions;
  std::size_t active = 1;
  while (active * 2 <= ranks) active *= 2;

  // Fold extras into their partner in the active set.
  for (std::size_t r = active; r < ranks; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      buffers[r - active][i] =
          static_cast<T>(buffers[r - active][i] + buffers[r][i]);
    }
  }
  for (std::size_t stage = 1; stage < active; stage *= 2) {
    for (std::size_t r = 0; r < active; ++r) {
      const std::size_t partner = r ^ stage;
      if (partner < r) continue;  // combine each pair once per stage
      for (std::size_t i = 0; i < n; ++i) {
        buffers[r][i] = static_cast<T>(buffers[r][i] + buffers[partner][i]);
      }
      buffers[partner] = buffers[r];
    }
  }
  return buffers[0];
}

template <typename T>
std::vector<T> allreduce_arrival_tree(const RankDataT<T>& contributions,
                                      core::RunContext& ctx,
                                      std::size_t block_elements) {
  validate(contributions);
  const std::size_t ranks = contributions.size();
  const std::size_t n = contributions.front().size();
  if (block_elements == 0) block_elements = 1;

  // Advance the run's own stream so successive collectives in one run see
  // fresh arrival orders, then decorrelate through a fork.
  auto rng = util::Xoshiro256pp(ctx.rng()());
  std::vector<T> result(n, T{0});
  // The switch reduces each network block in the order rank messages
  // arrive; arrival order is redrawn per block (independent flows).
  for (std::size_t begin = 0; begin < n; begin += block_elements) {
    const std::size_t end = std::min(n, begin + block_elements);
    const auto arrival = util::random_permutation(ranks, rng);
    for (std::size_t i = begin; i < end; ++i) {
      T acc = contributions[arrival[0]][i];
      for (std::size_t k = 1; k < ranks; ++k) {
        acc = static_cast<T>(acc + contributions[arrival[k]][i]);
      }
      result[i] = acc;
    }
  }
  return result;
}

template <typename T>
std::vector<T> allreduce_reproducible(const RankDataT<T>& contributions) {
  validate(contributions);
  const std::size_t ranks = contributions.size();
  const std::size_t n = contributions.front().size();

  // Each rank contributes to an exact superaccumulator; the merge is
  // exact, so the rounded result is bitwise independent of arrival order,
  // rank count and sharding.
  std::vector<T> result(n, T{0});
  for (std::size_t i = 0; i < n; ++i) {
    fp::Superaccumulator acc;
    for (std::size_t r = 0; r < ranks; ++r) {
      acc.add(static_cast<double>(contributions[r][i]));
    }
    // The exact double-rounded value, narrowed once: still order- and
    // rank-count-invariant for T = float (single final rounding).
    result[i] = static_cast<T>(acc.round());
  }
  return result;
}

template <typename T>
std::vector<T> allreduce(const RankDataT<T>& contributions,
                         Algorithm algorithm, const core::EvalContext& ctx,
                         std::size_t block_elements) {
  switch (algorithm) {
    case Algorithm::kRing:
      return allreduce_ring(contributions);
    case Algorithm::kRecursiveDoubling:
      return allreduce_recursive_doubling(contributions);
    case Algorithm::kArrivalTree:
      if (ctx.run == nullptr) {
        throw std::invalid_argument(
            "allreduce: arrival-tree needs EvalContext.run");
      }
      return allreduce_arrival_tree(contributions, *ctx.run, block_elements);
    case Algorithm::kReproducible:
      return allreduce_reproducible(contributions);
  }
  throw std::invalid_argument("allreduce: unknown algorithm");
}

// Explicit instantiations for the wire types the experiments use.
#define FPNA_INSTANTIATE_ALLREDUCE(T)                                         \
  template void validate<T>(const RankDataT<T>&);                             \
  template std::vector<T> allreduce_ring<T>(const RankDataT<T>&);             \
  template std::vector<T> allreduce_recursive_doubling<T>(                    \
      const RankDataT<T>&);                                                   \
  template std::vector<T> allreduce_arrival_tree<T>(const RankDataT<T>&,      \
                                                    core::RunContext&,        \
                                                    std::size_t);             \
  template std::vector<T> allreduce_reproducible<T>(const RankDataT<T>&);     \
  template std::vector<T> allreduce<T>(const RankDataT<T>&, Algorithm,        \
                                       const core::EvalContext&,              \
                                       std::size_t);

FPNA_INSTANTIATE_ALLREDUCE(double)
FPNA_INSTANTIATE_ALLREDUCE(float)

#undef FPNA_INSTANTIATE_ALLREDUCE

const char* to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kRing: return "ring";
    case Algorithm::kRecursiveDoubling: return "recursive-doubling";
    case Algorithm::kArrivalTree: return "arrival-tree";
    case Algorithm::kReproducible: return "reproducible";
  }
  return "?";
}

bool is_deterministic(Algorithm algorithm) noexcept {
  return algorithm != Algorithm::kArrivalTree;
}

double distributed_sum(std::span<const double> data, std::size_t ranks,
                       Algorithm algorithm, const core::EvalContext& ctx) {
  if (ranks == 0) throw std::invalid_argument("distributed_sum: zero ranks");
  if (algorithm == Algorithm::kReproducible) {
    // Exact local states merged exactly are one exact sum of the data:
    // sharding it moves no bits.
    return fp::reduce<double>(fp::AlgorithmId::kSuperaccumulator, data);
  }

  // Local partial per rank through the context's registry-selected
  // reduction spec (storage quantization + accumulate dtype + algorithm),
  // then a P-element collective over the rounded partials.
  const RankData shards = shard(data, ranks);
  RankData partials(ranks, std::vector<double>(1, 0.0));
  for (std::size_t r = 0; r < ranks; ++r) {
    partials[r][0] = fp::reduce(ctx.reduction_in_effect(),
                                std::span<const double>(shards[r]));
  }
  return allreduce(partials, algorithm, ctx)[0];
}

double distributed_sum(std::span<const double> data, std::size_t ranks,
                       Algorithm algorithm, core::RunContext* ctx) {
  core::EvalContext ec;
  ec.run = ctx;
  ec.deterministic_override = false;
  return distributed_sum(data, ranks, algorithm, ec);
}

std::vector<std::size_t> shard_sizes(std::size_t total, std::size_t ranks) {
  if (ranks == 0) throw std::invalid_argument("shard_sizes: zero ranks");
  // Near-even rule from core/chunking.hpp (the same split cpu_sum and
  // ThreadPool::parallel_for use); with ranks > total trailing shards
  // are empty.
  std::vector<std::size_t> sizes(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    sizes[r] = core::even_chunk_size(total, ranks, r);
  }
  return sizes;
}

RankData shard(std::span<const double> data, std::size_t ranks) {
  const auto sizes = shard_sizes(data.size(), ranks);
  RankData shards(ranks);
  std::size_t begin = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    shards[r].assign(data.begin() + static_cast<std::ptrdiff_t>(begin),
                     data.begin() + static_cast<std::ptrdiff_t>(begin +
                                                                sizes[r]));
    begin += sizes[r];
  }
  return shards;
}

}  // namespace fpna::collective
