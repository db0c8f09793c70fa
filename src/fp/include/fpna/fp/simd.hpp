#pragma once
// SIMD execution tier for the accumulation layer: runtime CPU-feature
// detection and the force-scalar override that makes both halves of every
// lane-blocked algorithm testable on any host.
//
// The contract (see LaneBlockedAccumulator in accumulator.hpp): for each
// (algorithm, L) there is exactly ONE reference re-association - lane l
// sums elements l, l+L, l+2L, ... and the lanes fold in ascending index
// order at finalize - implemented twice:
//
//   * a portable scalar lane-emulation (always compiled, runs anywhere),
//   * an intrinsics fast path (AVX2 / AVX-512, compiled into dedicated
//     translation units, selected by CPUID at run time),
//
// and the two are REQUIRED to be bitwise identical: the vector step
// performs the exact per-lane IEEE op sequence of the scalar algorithm,
// one lane per register slot, so `kahan@simd8` produces the same bits on
// every host whether or not the host has vector units. CI certifies the
// fast path against the emulation through FPNA_FORCE_SCALAR_SIMD and the
// microbench bit gates.
//
// This header is deliberately free of accumulator types: it is the
// support/override surface benches and tests program against. The
// dispatch into concrete kernels lives with the accumulators
// (accumulator.hpp + src/fp/src/simd*.cpp).

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace fpna::fp {

/// The valid ReductionSpec lane counts - the closed set the spec grammar
/// accepts and visit_lanes monomorphises. 1 is the scalar
/// algorithm itself; {4, 8, 16} are the register-shaped blockings
/// (AVX2 holds 4 f64 / 8 f32 per register, AVX-512 twice that).
inline constexpr std::array<std::size_t, 4> kSimdLaneCounts{1, 4, 8, 16};

constexpr bool simd_lane_count_supported(std::size_t lanes) noexcept {
  for (const std::size_t l : kSimdLaneCounts) {
    if (l == lanes) return true;
  }
  return false;
}

/// What the CPU offers (CPUID, queried once). All-false on non-x86.
struct SimdSupport {
  bool avx2 = false;
  bool avx512f = false;
};

/// Runtime CPU capabilities. Independent of the force-scalar override -
/// this reports what the host HAS, not what dispatch will USE.
const SimdSupport& simd_support() noexcept;

/// True when lane-blocked accumulators must take the scalar emulation
/// even where intrinsics exist. Resolution order: the programmatic
/// override (set_simd_force_scalar) if set, else the FPNA_FORCE_SCALAR_SIMD
/// environment variable (any value other than empty/"0" forces scalar,
/// read once), else false.
bool simd_force_scalar() noexcept;

/// Test hook: force (true) or re-allow (false) the intrinsics tier,
/// overriding the environment; nullopt restores the environment-derived
/// default. Tests flip this to certify intrinsics bits == emulation bits
/// in one process.
void set_simd_force_scalar(std::optional<bool> force) noexcept;

/// The tier dispatch selects for f64 lane kernels right now: "avx512f",
/// "avx2" or "scalar" (no support, or force-scalar in effect). Bench
/// tables print this so a JSON artifact records which tier produced its
/// timings.
const char* simd_active_isa() noexcept;

/// Element-wise in-place i64 add: dst[i] += src[i]. Vectorized where the
/// host allows (integer adds are exact, so the tiers are trivially
/// bitwise identical; the force-scalar override is still honoured for
/// symmetry). This is the Superaccumulator limb-merge primitive: the
/// PR 5 wire layout keeps the 68 limbs contiguous, so a state merge is
/// exactly this loop.
void simd_add_i64(std::int64_t* dst, const std::int64_t* src,
                  std::size_t n) noexcept;

}  // namespace fpna::fp
