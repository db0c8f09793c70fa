#pragma once
// Internal machinery for the lane-blocked intrinsics tier. Three pieces:
//
//  * LaneWords<Base>: maps an accumulator's private state onto an ordered
//    word list (through detail::SimdLaneAccess) so a generic driver can
//    gather L lanes' state into vector registers and scatter it back;
//  * Step<Vec>: one algorithm's per-element update written against a
//    minimal vector-ops wrapper - the SAME IEEE op sequence as the scalar
//    add(), one lane per register slot, which is what makes the fast path
//    bitwise identical to the emulation;
//  * the per-ISA entry points (simd_detail::avx2 / ::avx512): defined in
//    simd_avx2.cpp / simd_avx512.cpp, which CMake compiles with -mavx2 /
//    -mavx512f on x86 (see src/CMakeLists.txt). Those TUs are only ever
//    entered after simd.cpp's runtime CPUID check, so the flags never
//    leak unsupported instructions onto the startup path.
//
// The Vec wrapper contract (each ISA TU defines its own):
//   using scalar; static constexpr int kWidth; using mask;
//   load/store/zero/add/sub/abs; ge_abs(a,b) -> mask (|a| >= |b|,
//   ordered-quiet: false on NaN, matching the scalar `abs(a) >= abs(b)`
//   branch including its NaN and signed-zero behaviour); select(m, t, f).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "fpna/fp/accumulator.hpp"

namespace fpna::fp::simd_detail {

using detail::SimdLaneAccess;

// ------------------------------------------------- state word mapping --

template <typename Base>
struct LaneWords;

template <typename T>
struct LaneWords<SerialAccumulator<T>> {
  static constexpr int kWords = 1;
  static T& word(SerialAccumulator<T>& a, int) noexcept {
    return SimdLaneAccess::sum(a);
  }
};

template <typename T>
struct LaneWords<KahanAccumulator<T>> {
  static constexpr int kWords = 2;
  static T& word(KahanAccumulator<T>& a, int w) noexcept {
    return w == 0 ? SimdLaneAccess::sum(a) : SimdLaneAccess::comp(a);
  }
};

template <typename T>
struct LaneWords<NeumaierAccumulator<T>> {
  static constexpr int kWords = 2;
  static T& word(NeumaierAccumulator<T>& a, int w) noexcept {
    return w == 0 ? SimdLaneAccess::sum(a) : SimdLaneAccess::comp(a);
  }
};

template <typename T>
struct LaneWords<KleinAccumulator<T>> {
  static constexpr int kWords = 3;
  static T& word(KleinAccumulator<T>& a, int w) noexcept {
    return w == 0   ? SimdLaneAccess::sum(a)
           : w == 1 ? SimdLaneAccess::cs(a)
                    : SimdLaneAccess::ccs(a);
  }
};

// ------------------------------------------------- per-element steps --

// Each step runs the scalar add()'s op sequence on a whole register of
// lanes. st[] is the state word array (same order as LaneWords).

template <typename Vec>
struct SerialStep {
  static constexpr int kWords = 1;  // sum
  static void step(Vec* st, Vec x) noexcept { st[0] = Vec::add(st[0], x); }
};

template <typename Vec>
struct KahanStep {
  static constexpr int kWords = 2;  // sum, comp
  static void step(Vec* st, Vec x) noexcept {
    const Vec y = Vec::sub(x, st[1]);
    const Vec t = Vec::add(st[0], y);
    st[1] = Vec::sub(Vec::sub(t, st[0]), y);
    st[0] = t;
  }
};

template <typename Vec>
struct NeumaierStep {
  static constexpr int kWords = 2;  // sum, comp
  static void step(Vec* st, Vec x) noexcept {
    const Vec s = st[0];
    const Vec t = Vec::add(s, x);
    // Branchless transcription of the |sum| >= |x| branch pair: both
    // arms compute comp + ((big - t) + small) with big/small selected by
    // the compare, so a blend IS the branch. GE ordered-quiet is false
    // for NaN, exactly like the scalar compare.
    const typename Vec::mask m = Vec::ge_abs(s, x);
    const Vec big = Vec::select(m, s, x);
    const Vec small = Vec::select(m, x, s);
    st[1] = Vec::add(st[1], Vec::add(Vec::sub(big, t), small));
    st[0] = t;
  }
};

template <typename Vec>
struct KleinStep {
  static constexpr int kWords = 3;  // sum, cs, ccs
  static void step(Vec* st, Vec x) noexcept {
    const Vec s = st[0];
    const Vec t = Vec::add(s, x);
    const typename Vec::mask m1 = Vec::ge_abs(s, x);
    // Both of Klein's levels compute the error of their add as
    // (big - t) + small, Neumaier's step; the first level's error c feeds
    // the second, whose error is accumulated in ccs - transcribed exactly.
    const Vec c = Vec::add(Vec::sub(Vec::select(m1, s, x), t),
                           Vec::select(m1, x, s));
    st[0] = t;
    const Vec cs = st[1];
    const Vec t2 = Vec::add(cs, c);
    const typename Vec::mask m2 = Vec::ge_abs(cs, c);
    const Vec cc = Vec::add(Vec::sub(Vec::select(m2, cs, c), t2),
                            Vec::select(m2, c, cs));
    st[1] = t2;
    st[2] = Vec::add(st[2], cc);
  }
};

// ------------------------------------------------------------ drivers --

/// Generic lane-blocked span kernel over R registers of Vec (L =
/// R * Vec::kWidth lanes): scalar prologue to round-robin phase 0,
/// gather state words into registers, one Step per vector row (element
/// i*L + r*W + w updates lane r*W + w - the same element->lane map as
/// the emulation), scatter state back, scalar tail for the last n mod L
/// elements. Every scalar element on the prologue/tail goes through
/// Base::add itself, so there is nothing to keep in sync.
template <typename Vec, int R, template <typename> class StepT,
          typename Base>
void run_span(Base* lanes, std::size_t& next,
              const typename Base::value_type* x, std::size_t n) {
  using T = typename Base::value_type;
  using Step = StepT<Vec>;
  using Words = LaneWords<Base>;
  static_assert(std::is_same_v<typename Vec::scalar, T>);
  static_assert(Words::kWords == Step::kWords);
  constexpr int W = Vec::kWidth;
  constexpr std::size_t L = static_cast<std::size_t>(W) * R;

  while (next != 0 && n != 0) {
    lanes[next].add(*x++);
    next = (next + 1) % L;
    --n;
  }
  if (n == 0) return;

  const std::size_t rows = n / L;
  if (rows != 0) {
    alignas(64) T buf[L];
    Vec st[R][Step::kWords];
    for (int w = 0; w < Step::kWords; ++w) {
      for (std::size_t l = 0; l < L; ++l) buf[l] = Words::word(lanes[l], w);
      for (int r = 0; r < R; ++r) st[r][w] = Vec::load(buf + r * W);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      for (int r = 0; r < R; ++r) Step::step(st[r], Vec::load(x + r * W));
      x += L;
    }
    for (int w = 0; w < Step::kWords; ++w) {
      for (int r = 0; r < R; ++r) Vec::store(st[r][w], buf + r * W);
      for (std::size_t l = 0; l < L; ++l) Words::word(lanes[l], w) = buf[l];
    }
    n -= rows * L;
  }
  for (std::size_t i = 0; i < n; ++i) lanes[i].add(x[i]);
  next = n;  // n < L here
}

/// Pairwise is stateful beyond a few words (binary-counter cascade), so
/// the vector path only runs while the lanes are in lockstep: phase 0
/// and every lane at the same base-block fill. Then all lanes fill their
/// 32-element base blocks in vector registers and push simultaneously
/// (push_block stays per-lane scalar - it touches the O(log n) cascade).
/// Returns false when the lanes are desynchronised (e.g. after a
/// mid-block scalar tail); the caller emulates, which re-synchronises
/// nothing but stays bit-correct by definition.
template <typename Vec, int R, typename T>
bool run_pairwise(PairwiseAccumulator<T>* lanes, std::size_t& next,
                  const T* x, std::size_t n) {
  static_assert(std::is_same_v<typename Vec::scalar, T>);
  constexpr int W = Vec::kWidth;
  constexpr std::size_t L = static_cast<std::size_t>(W) * R;
  constexpr std::size_t kBase = PairwiseAccumulator<T>::kBase;

  if (next != 0) return false;
  std::size_t bc = SimdLaneAccess::block_count(lanes[0]);
  for (std::size_t l = 1; l < L; ++l) {
    if (SimdLaneAccess::block_count(lanes[l]) != bc) return false;
  }

  alignas(64) T buf[L];
  for (std::size_t l = 0; l < L; ++l) {
    buf[l] = SimdLaneAccess::block(lanes[l]);
  }
  Vec bl[R];
  for (int r = 0; r < R; ++r) bl[r] = Vec::load(buf + r * W);

  std::size_t rows = n / L;
  const std::size_t rem = n - rows * L;
  while (rows != 0) {
    const std::size_t take = std::min(rows, kBase - bc);
    for (std::size_t i = 0; i < take; ++i) {
      for (int r = 0; r < R; ++r) {
        bl[r] = Vec::add(bl[r], Vec::load(x + r * W));
      }
      x += L;
    }
    bc += take;
    rows -= take;
    if (bc == kBase) {
      for (int r = 0; r < R; ++r) Vec::store(bl[r], buf + r * W);
      for (std::size_t l = 0; l < L; ++l) {
        SimdLaneAccess::push_block(lanes[l], buf[l]);
      }
      for (int r = 0; r < R; ++r) bl[r] = Vec::zero();
      bc = 0;
    }
  }
  for (int r = 0; r < R; ++r) Vec::store(bl[r], buf + r * W);
  for (std::size_t l = 0; l < L; ++l) {
    SimdLaneAccess::block(lanes[l]) = buf[l];
    SimdLaneAccess::block_count(lanes[l]) = bc;
  }
  for (std::size_t i = 0; i < rem; ++i) lanes[i].add(x[i]);
  next = rem;
  return true;
}

// ------------------------------------------------- per-ISA entry points --

// Coverage (false for anything else; the dispatcher falls through to the
// next tier, then to the emulation):
//   avx2:   f64 L in {4, 8, 16}, f32 L in {8, 16}
//   avx512: f64 L in {8, 16},    f32 L in {16}
// Only called after simd.cpp verified the CPU feature.

#define FPNA_SIMD_ARCH_DECLS                                               \
  bool add_span(SerialAccumulator<double>* lanes, std::size_t lane_count,  \
                std::size_t& next, const double* x, std::size_t n);        \
  bool add_span(SerialAccumulator<float>* lanes, std::size_t lane_count,   \
                std::size_t& next, const float* x, std::size_t n);         \
  bool add_span(KahanAccumulator<double>* lanes, std::size_t lane_count,   \
                std::size_t& next, const double* x, std::size_t n);        \
  bool add_span(KahanAccumulator<float>* lanes, std::size_t lane_count,    \
                std::size_t& next, const float* x, std::size_t n);         \
  bool add_span(NeumaierAccumulator<double>* lanes,                        \
                std::size_t lane_count, std::size_t& next, const double* x,\
                std::size_t n);                                            \
  bool add_span(NeumaierAccumulator<float>* lanes, std::size_t lane_count, \
                std::size_t& next, const float* x, std::size_t n);         \
  bool add_span(KleinAccumulator<double>* lanes, std::size_t lane_count,   \
                std::size_t& next, const double* x, std::size_t n);        \
  bool add_span(KleinAccumulator<float>* lanes, std::size_t lane_count,    \
                std::size_t& next, const float* x, std::size_t n);         \
  bool add_span(PairwiseAccumulator<double>* lanes,                        \
                std::size_t lane_count, std::size_t& next, const double* x,\
                std::size_t n);                                            \
  bool add_span(PairwiseAccumulator<float>* lanes, std::size_t lane_count, \
                std::size_t& next, const float* x, std::size_t n);         \
  bool add_i64(std::int64_t* dst, const std::int64_t* src, std::size_t n);

namespace avx2 {
FPNA_SIMD_ARCH_DECLS
}
namespace avx512 {
FPNA_SIMD_ARCH_DECLS
}

}  // namespace fpna::fp::simd_detail
