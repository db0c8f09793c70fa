#include "fpna/collective/allreduce.hpp"

#include <algorithm>
#include <stdexcept>

#include "fpna/core/chunking.hpp"
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

// Explicit instantiations for the wire types the experiments use.
#define FPNA_INSTANTIATE_ALLREDUCE(T)                                         \
  template void validate<T>(const RankDataT<T>&);                             \
  template std::vector<T> allreduce_arrival_tree<T>(const RankDataT<T>&,      \
                                                    core::RunContext&,        \
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
