#pragma once
// Independent reference loops for the deterministic allreduce
// associations (Thakur, Rabenseifner & Gropp, "Optimization of collective
// communication operations in MPICH", IJHPCA 2005). Each is written
// directly over the rank buffers, with no schedule, codec or transport,
// so the tests can certify that comm's schedule interpreter reproduces
// the textbook order bit for bit. Header-only; test code only.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "fpna/collective/allreduce.hpp"
#include "fpna/fp/superaccumulator.hpp"

namespace fpna::reference {

/// Ring reduce-scatter + allgather: chunk c (collective::ring_chunk
/// boundaries) accumulates ranks (c+1)%P, (c+2)%P, ..., c%P, each new
/// contribution added on the right.
template <typename T>
std::vector<T> ring(const collective::RankDataT<T>& contributions) {
  collective::validate(contributions);
  const std::size_t ranks = contributions.size();
  const std::size_t n = contributions.front().size();
  std::vector<T> result(n, T{0});
  for (std::size_t c = 0; c < ranks; ++c) {
    const auto [begin, end] = collective::ring_chunk(n, ranks, c);
    for (std::size_t i = begin; i < end; ++i) {
      T acc = contributions[(c + 1) % ranks][i];
      for (std::size_t hop = 2; hop <= ranks; ++hop) {
        acc = static_cast<T>(acc + contributions[(c + hop) % ranks][i]);
      }
      result[i] = acc;
    }
  }
  return result;
}

/// Recursive-doubling butterfly: ranks beyond the largest power of two
/// fold into rank r - active first (the MPICH pre-step), then at stage s
/// rank r combines with rank r ^ s, the lower rank's partial on the left.
template <typename T>
std::vector<T> recursive_doubling(
    const collective::RankDataT<T>& contributions) {
  collective::validate(contributions);
  const std::size_t ranks = contributions.size();
  const std::size_t n = contributions.front().size();
  collective::RankDataT<T> buffers = contributions;
  std::size_t active = 1;
  while (active * 2 <= ranks) active *= 2;
  for (std::size_t r = active; r < ranks; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      buffers[r - active][i] =
          static_cast<T>(buffers[r - active][i] + buffers[r][i]);
    }
  }
  for (std::size_t stage = 1; stage < active; stage *= 2) {
    for (std::size_t r = 0; r < active; ++r) {
      const std::size_t partner = r ^ stage;
      if (partner < r) continue;
      for (std::size_t i = 0; i < n; ++i) {
        buffers[r][i] = static_cast<T>(buffers[r][i] + buffers[partner][i]);
      }
      buffers[partner] = buffers[r];
    }
  }
  return buffers[0];
}

/// The exact combine: one superaccumulator per element over every rank's
/// value, rounded once to double and then narrowed to T.
template <typename T>
std::vector<T> superaccumulator(
    const collective::RankDataT<T>& contributions) {
  collective::validate(contributions);
  std::vector<T> result(contributions.front().size(), T{0});
  for (std::size_t i = 0; i < result.size(); ++i) {
    fp::Superaccumulator acc;
    for (const auto& rank : contributions) {
      acc.add(static_cast<double>(rank[i]));
    }
    result[i] = static_cast<T>(acc.round());
  }
  return result;
}

/// The reference of a deterministic algorithm (the exact combine for
/// kReproducible); throws for kArrivalTree, which has no fixed order.
template <typename T>
std::vector<T> allreduce(const collective::RankDataT<T>& contributions,
                         collective::Algorithm algorithm) {
  switch (algorithm) {
    case collective::Algorithm::kRing:
      return ring(contributions);
    case collective::Algorithm::kRecursiveDoubling:
      return recursive_doubling(contributions);
    case collective::Algorithm::kReproducible:
      return superaccumulator(contributions);
    case collective::Algorithm::kArrivalTree:
      break;
  }
  throw std::invalid_argument("reference::allreduce: no fixed order");
}

}  // namespace fpna::reference
