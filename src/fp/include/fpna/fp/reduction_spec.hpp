#pragma once
// ReductionSpec: the dtype- and lane-polymorphic "which reduction"
// selector. A reduction is no longer just an algorithm - it is the tuple
//
//     storage dtype x accumulate dtype x algorithm x SIMD lane count
//
// matching how GPU tensor cores actually sum (bf16-stored operands,
// fp32 accumulate) versus how the historic double kernels sum (native
// storage, native accumulate), and - on the lane axis - how a vector
// unit actually sums: L interleaved sub-streams folded in a pinned
// order. The default-constructed spec is native/native/serial/1 lane,
// which reproduces the seed's bits in every layer.
//
// Name grammar (the CLI/bench surface):
//
//     <algorithm>[@[simd<L>[:]][<storage>[:<accumulate>]]]
//
//     "kahan"                - native storage, native accumulate, scalar
//     "kahan@bf16:f32"       - bf16-quantized addends, fp32 accumulate
//     "kahan@f32"            - f32 storage, accumulate defaults to storage
//     "kahan@simd8"          - 8 lane-blocked Kahan sub-streams, native dtypes
//     "kahan@simd8:bf16:f32" - the lane axis composed with the dtype axes
//     "kahan@simd1"          - explicit scalar (bitwise = "kahan")
//
// Each (algorithm, L) names exactly one re-association - lane l sums
// elements l, l+L, l+2L, ... and the lanes fold in ascending index order
// at result() - so a lane-qualified name is as bitwise-certifiable as the
// scalar names (see fp/simd.hpp for the dispatch machinery).
//
// Light-weight by design: core::EvalContext stores a ReductionSpec, so
// this header must not pull in the accumulation layer. Parsing validates
// the algorithm key against the constant catalogue (algorithm_id.hpp).

#include <cstdint>
#include <string>
#include <string_view>

#include "fpna/fp/algorithm_id.hpp"
#include "fpna/fp/dtype.hpp"

namespace fpna::fp {

struct ReductionSpec {
  AlgorithmId algorithm = AlgorithmId::kSerial;
  /// Dtype every addend (or, for dot-product kernels, operand) is
  /// quantized to before it enters the accumulation stream. kNative: the
  /// kernel's own element type, no quantization.
  Dtype storage = Dtype::kNative;
  /// Dtype the selected algorithm's streaming accumulator runs in.
  /// kNative: the kernel's own element type.
  Dtype accumulate = Dtype::kNative;
  /// SIMD lane count: the input stream is dealt round-robin across
  /// `lanes` independent sub-streams of the selected algorithm, folded
  /// lane 0 upward at finalize. 1 = the scalar algorithm (no wrapper,
  /// bitwise the historic path). Valid counts are fp::kSimdLaneCounts.
  std::uint8_t lanes = 1;

  constexpr ReductionSpec() noexcept = default;
  /// The compat shim for the historic scalar selector: an AlgorithmId
  /// converts implicitly to a native/native spec, so every call site that
  /// used to say `ctx.accumulator = AlgorithmId::kKahan` still compiles
  /// and still means exactly what it meant.
  constexpr ReductionSpec(AlgorithmId id) noexcept : algorithm(id) {}
  constexpr ReductionSpec(AlgorithmId id, Dtype storage_dtype,
                          Dtype accumulate_dtype,
                          std::uint8_t lane_count = 1) noexcept
      : algorithm(id),
        storage(storage_dtype),
        accumulate(accumulate_dtype),
        lanes(lane_count) {}

  /// This spec with a different lane count (the other axes unchanged).
  constexpr ReductionSpec with_lanes(std::uint8_t lane_count) const noexcept {
    ReductionSpec out = *this;
    out.lanes = lane_count;
    return out;
  }

  /// True when the lane axis changes the re-association (lanes > 1).
  constexpr bool lane_blocked() const noexcept { return lanes > 1; }

  /// True when neither axis changes the kernel's native dtype - the
  /// specs whose results are bitwise identical to the pre-dtype API.
  constexpr bool native() const noexcept {
    return storage == Dtype::kNative && accumulate == Dtype::kNative;
  }

  /// This spec with kNative pinned to the calling kernel's element dtype.
  constexpr ReductionSpec resolved(Dtype native_dtype) const noexcept {
    ReductionSpec out = *this;
    if (out.storage == Dtype::kNative) out.storage = native_dtype;
    if (out.accumulate == Dtype::kNative) out.accumulate = native_dtype;
    return out;
  }

  friend constexpr bool operator==(const ReductionSpec&,
                                   const ReductionSpec&) noexcept = default;
};

/// "kahan", "kahan@bf16:f32", ... (native/native renders as the bare
/// algorithm name, so historic row labels are unchanged).
std::string to_string(const ReductionSpec& spec);

/// Parses the name grammar above. The algorithm key is validated by
/// algorithm_named (unknown names throw listing every catalogue name);
/// dtype keys throw listing the valid dtypes.
ReductionSpec parse_reduction_spec(std::string_view name);

/// Declared traits of a spec. The algorithm's traits hold for every dtype
/// instantiation: storage quantization is elementwise (commutes with any
/// permutation or chunking of the input) and the exactness of the
/// exact-merge states is internal to the accumulator, independent of the
/// dtype its result rounds to.
inline const AlgorithmTraits& traits_of(const ReductionSpec& spec) {
  return traits_of(spec.algorithm);
}

}  // namespace fpna::fp
