#pragma once
// The accumulation algorithms: their identifiers, declared contracts and
// the one constant catalogue every name-driven surface reads (spec
// strings, --algorithm flags, bench row labels, the golden spec grid).
// Split from accumulator.hpp so that light-weight context headers
// (core::EvalContext and everything layered on it) can name an algorithm
// without compiling the whole accumulation layer.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fpna::fp {

enum class AlgorithmId : std::uint8_t {
  kSerial = 0,
  kPairwise,
  kKahan,
  kNeumaier,
  kKlein,
  kDoubleDouble,
  kVectorized,
  kBinned,
  kSuperaccumulator,
};

/// Contract an algorithm declares in its catalogue row; property-tested
/// for every algorithm in tests/fp_test.cpp.
struct AlgorithmTraits {
  /// Same input order => bitwise identical result. True for every
  /// algorithm in the catalogue (the toolkit measures *order*
  /// sensitivity, not nondeterminism of the kernels themselves).
  bool deterministic_fixed_order = true;
  /// Bitwise identical under any permutation of the input.
  bool permutation_invariant = false;
  /// merge() of streaming state loses no information (so chunked/sharded
  /// evaluation is bitwise independent of the chunking).
  bool exact_merge = false;
};

/// One catalogue row.
struct AlgorithmInfo {
  AlgorithmId id;
  const char* name;  // CLI-facing key, e.g. "kahan"
  const char* description;
  AlgorithmTraits traits{};
};

inline constexpr AlgorithmTraits kReproducibleTraits{
    .deterministic_fixed_order = true,
    .permutation_invariant = true,
    .exact_merge = true,
};

/// Every algorithm, in the canonical bench/table row order: cheap and
/// order-sensitive first, reproducible last. Adding an algorithm is three
/// edits in src/fp: (1) an AlgorithmId value plus its row here, (2) a tag
/// plus its visit_algorithm case in accumulator.hpp (the visitor is a
/// deliberately closed set, so an id it does not know throws instead of
/// silently running the wrong algorithm), (3) its fold TU,
/// src/fp/src/fold_<algorithm>.cpp, holding one FPNA_FOLD_TABLES(<tag>)
/// line - after which the algorithm appears in every name-driven surface
/// and every reduction kernel with no changes outside src/fp.
inline constexpr std::array kAlgorithms{
    AlgorithmInfo{AlgorithmId::kSerial, "serial",
                  "left-to-right recursive sum"},
    AlgorithmInfo{AlgorithmId::kPairwise, "pairwise",
                  "cascade (pairwise) sum, base block 32"},
    AlgorithmInfo{AlgorithmId::kVectorized, "vectorized",
                  "4-lane strided partials, like a vectorised loop"},
    AlgorithmInfo{AlgorithmId::kKahan, "kahan", "Kahan compensated sum"},
    AlgorithmInfo{AlgorithmId::kNeumaier, "neumaier",
                  "Neumaier compensated sum"},
    AlgorithmInfo{AlgorithmId::kKlein, "klein",
                  "Klein second-order compensated sum"},
    AlgorithmInfo{AlgorithmId::kDoubleDouble, "double_double",
                  "double-double (~106-bit) accumulation"},
    AlgorithmInfo{AlgorithmId::kBinned, "binned",
                  "Demmel-Nguyen binned reproducible sum",
                  kReproducibleTraits},
    AlgorithmInfo{AlgorithmId::kSuperaccumulator, "superaccumulator",
                  "exact long-accumulator reproducible sum",
                  kReproducibleTraits},
};

inline constexpr std::size_t kNumAlgorithms = kAlgorithms.size();

namespace detail {
/// The index of id's row; kNumAlgorithms for an id outside the enum.
constexpr std::size_t row_of(AlgorithmId id) noexcept {
  std::size_t i = 0;
  while (i < kNumAlgorithms && kAlgorithms[i].id != id) ++i;
  return i;
}
}  // namespace detail

// One row per id, one id per name.
static_assert([] {
  for (std::size_t i = 0; i < kNumAlgorithms; ++i) {
    if (detail::row_of(static_cast<AlgorithmId>(i)) == kNumAlgorithms) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (std::string_view(kAlgorithms[i].name) == kAlgorithms[j].name) {
        return false;
      }
    }
  }
  return true;
}());

/// The catalogue name ("?" for an id outside the enum).
constexpr const char* to_string(AlgorithmId id) noexcept {
  const std::size_t row = detail::row_of(id);
  return row < kNumAlgorithms ? kAlgorithms[row].name : "?";
}

/// The row named `name`; an unknown name throws std::invalid_argument
/// listing every name, so CLI typos are self-explaining.
const AlgorithmInfo& algorithm_named(std::string_view name);

/// Declared traits for an id (throws on an id outside the enum).
const AlgorithmTraits& traits_of(AlgorithmId id);

}  // namespace fpna::fp
