#pragma once
// The unified accumulation layer: the streaming accumulator types behind
// every algorithm of the catalogue (algorithm_id.hpp) the toolkit's
// reductions select from.
//
// Each algorithm is one stateful Accumulator type, and it is the only
// implementation of the algorithm: every entry point - fp::reduce, the
// fold table's operations and every kernel built on them - streams the
// same accumulator, so a spec names one association everywhere.
// Element-at-a-time streaming and chunk-merge use (thread partials,
// block partials, per-destination scatter reductions) share it; state is
// merged with `merge`, which is exact for the reproducible algorithms and
// deterministic for all.
//
// The layer is dtype-polymorphic (see reduction_spec.hpp): every
// algorithm instantiates at double, float and the software bf16, and the
// SIMD lane axis (simd.hpp) wraps any of them: `tags::Simd<Tag, L>` swaps
// the algorithm's accumulator for the L-lane LaneBlockedAccumulator.
//
// The static visitors below (`visit_algorithm`, `visit_lanes`,
// `visit_dtypes`) turn a ReductionSpec into concrete types. They are
// instantiated in one place: the fold table (fold.hpp), compiled once per
// algorithm in src/fp/src/fold_<algorithm>.cpp. Kernels outside this
// module never name an accumulator type - they call the table's
// operations, one indirect call per chunk, row or destination range, and
// the per-element loop runs inside the table.

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpna/fp/algorithm_id.hpp"
#include "fpna/fp/bf16.hpp"
#include "fpna/fp/binned_sum.hpp"
#include "fpna/fp/double_double.hpp"
#include "fpna/fp/fold.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/fp/simd.hpp"
#include "fpna/fp/superaccumulator.hpp"

namespace fpna::fp {

namespace detail {
// Raw state access for the SIMD kernels (src/fp/src/simd*.cpp): the
// intrinsics fast path loads accumulator members into register lanes,
// runs the exact scalar op sequence vectorised, and stores them back.
// Defined after the accumulator classes below.
struct SimdLaneAccess;
}  // namespace detail

// -------------------------------------------------------------- concept --

/// A streaming accumulator: default-constructible empty state, element and
/// span ingestion, deterministic state merge, and a rounded result.
template <typename A>
concept Accumulator =
    std::default_initializable<A> &&
    requires(A a, const A& other, typename A::value_type x,
             std::span<const typename A::value_type> s) {
      typename A::value_type;
      { a.add(x) } -> std::same_as<void>;
      { a.add(s) } -> std::same_as<void>;
      { a.merge(other) } -> std::same_as<void>;
      { other.result() } -> std::convertible_to<typename A::value_type>;
    };

// ------------------------------------------------- streaming accumulators --

/// Left-to-right recursive accumulation (the "sequential recursive method").
template <typename T = double>
class SerialAccumulator {
 public:
  using value_type = T;
  void add(T x) noexcept { sum_ = static_cast<T>(sum_ + x); }
  void add(std::span<const T> values) noexcept {
    // The element loop with the sum held in a register: `values` may
    // alias sum_ as far as the compiler knows.
    T sum = sum_;
    for (const T x : values) sum = static_cast<T>(sum + x);
    sum_ = sum;
  }
  void merge(const SerialAccumulator& other) noexcept { add(other.sum_); }
  T result() const noexcept { return sum_; }

 private:
  friend struct detail::SimdLaneAccess;
  T sum_{};
};

/// Streaming cascade (binary-counter pairwise): base blocks of kBase
/// elements are summed serially, then combined in binary-carry order - the
/// O(log n) error growth of the recursive cascade, with O(log n) state
/// instead of the whole input.
///
/// Parity contract with the recursive power-of-two cascade with 32-element
/// serial leaves (pinned against a reference in fp_test):
///
///   * streaming one whole span through add() yields the cascade's result
///     bit for bit: the cascade splits at the largest power of two
///     strictly below n, so every leaf is a serial fold of the same
///     32-aligned block and every internal add pairs the same binary-
///     counter levels in the same left/right order the carry chain and
///     result() use (signed-zero caveat: result() seeds the fold with
///     +0.0, so an input whose lowest-level partial is -0.0 rounds to
///     +0.0 where the recursive cascade preserves -0.0);
///   * merge() does NOT splice the other cascade's levels - it folds the
///     other accumulator's *rounded* result in as one element of this
///     stream. Chunked accumulation therefore associates the chunk
///     boundaries differently from one stream over the concatenated
///     input and generally lands on different bits (deterministic for a
///     fixed chunking; exact_merge stays false). This is the documented
///     behaviour, chosen over splicing: splicing would make merge bits
///     depend on both cascades' internal fill state, which a thread-pool
///     reduction cannot fix in advance.
template <typename T = double>
class PairwiseAccumulator {
 public:
  using value_type = T;
  static constexpr std::size_t kBase = 32;

  void add(T x) {
    block_ = static_cast<T>(block_ + x);
    if (++block_count_ == kBase) {
      push_block(block_);
      block_ = T{};
      block_count_ = 0;
    }
  }
  void add(std::span<const T> values) {
    // Up to the next block boundary one element at a time, then whole
    // blocks from +0.0 (what an empty block holds) with a fixed trip
    // count, so consecutive blocks run as independent add chains.
    std::size_t i = 0;
    for (; i < values.size() && block_count_ != 0; ++i) add(values[i]);
    for (; values.size() - i >= kBase; i += kBase) {
      T block{};
      for (std::size_t j = 0; j < kBase; ++j) {
        block = static_cast<T>(block + values[i + j]);
      }
      push_block(block);
    }
    for (; i < values.size(); ++i) add(values[i]);
  }
  /// Folds the other accumulator's rounded result in as one element:
  /// deterministic (and the natural chunked-pairwise association).
  void merge(const PairwiseAccumulator& other) { add(other.result()); }
  T result() const {
    T acc = block_;
    std::uint64_t mask = blocks_;
    for (std::size_t level = 0; mask != 0; ++level, mask >>= 1) {
      if (mask & 1) acc = static_cast<T>(levels_[level] + acc);
    }
    return acc;
  }

 private:
  friend struct detail::SimdLaneAccess;

  void push_block(T v) {
    std::size_t level = 0;
    std::uint64_t mask = blocks_;
    while (mask & 1) {
      v = static_cast<T>(levels_[level] + v);
      mask >>= 1;
      ++level;
    }
    if (level == levels_.size()) {
      levels_.push_back(v);
    } else {
      levels_[level] = v;
    }
    ++blocks_;
  }

  T block_{};
  std::size_t block_count_ = 0;
  std::uint64_t blocks_ = 0;  // bit b set <=> levels_[b] holds a partial
  std::vector<T> levels_;
};

/// Kahan compensated accumulation.
template <typename T = double>
class KahanAccumulator {
 public:
  using value_type = T;
  void add(T x) noexcept {
    const T y = static_cast<T>(x - comp_);
    const T t = static_cast<T>(sum_ + y);
    comp_ = static_cast<T>(static_cast<T>(t - sum_) - y);
    sum_ = t;
  }
  void add(std::span<const T> values) noexcept {
    for (const T x : values) add(x);
  }
  void merge(const KahanAccumulator& other) noexcept {
    add(other.sum_);
    add(static_cast<T>(-other.comp_));
  }
  T result() const noexcept { return sum_; }

 private:
  friend struct detail::SimdLaneAccess;
  T sum_{};
  T comp_{};
};

/// Neumaier's improvement of Kahan (Neumaier, ZAMM 1974): the rounding
/// error of each add, (big - t) + small with big the larger-magnitude
/// operand, is accumulated whole into a separate correction term,
/// comp + ((big - t) + small), which result() adds back once.
template <typename T = double>
class NeumaierAccumulator {
 public:
  using value_type = T;
  void add(T x) noexcept {
    const T t = static_cast<T>(sum_ + x);
    T err;
    if (abs_(sum_) >= abs_(x)) {
      err = static_cast<T>(static_cast<T>(sum_ - t) + x);
    } else {
      err = static_cast<T>(static_cast<T>(x - t) + sum_);
    }
    comp_ = static_cast<T>(comp_ + err);
    sum_ = t;
  }
  void add(std::span<const T> values) noexcept {
    for (const T x : values) add(x);
  }
  void merge(const NeumaierAccumulator& other) noexcept {
    add(other.sum_);
    comp_ = static_cast<T>(comp_ + other.comp_);
  }
  T result() const noexcept { return static_cast<T>(sum_ + comp_); }

 private:
  friend struct detail::SimdLaneAccess;
  static T abs_(T v) noexcept { return v < T{} ? static_cast<T>(-v) : v; }
  T sum_{};
  T comp_{};
};

/// Klein's second-order ("iterative Kahan-Babuska") compensation.
template <typename T = double>
class KleinAccumulator {
 public:
  using value_type = T;
  void add(T x) noexcept {
    T t = static_cast<T>(sum_ + x);
    T c;
    if (abs_(sum_) >= abs_(x)) {
      c = static_cast<T>(static_cast<T>(sum_ - t) + x);
    } else {
      c = static_cast<T>(static_cast<T>(x - t) + sum_);
    }
    sum_ = t;
    t = static_cast<T>(cs_ + c);
    T cc;
    if (abs_(cs_) >= abs_(c)) {
      cc = static_cast<T>(static_cast<T>(cs_ - t) + c);
    } else {
      cc = static_cast<T>(static_cast<T>(c - t) + cs_);
    }
    cs_ = t;
    ccs_ = static_cast<T>(ccs_ + cc);
  }
  void add(std::span<const T> values) noexcept {
    for (const T x : values) add(x);
  }
  void merge(const KleinAccumulator& other) noexcept {
    add(other.sum_);
    cs_ = static_cast<T>(cs_ + other.cs_);
    ccs_ = static_cast<T>(ccs_ + other.ccs_);
  }
  T result() const noexcept {
    return static_cast<T>(static_cast<T>(sum_ + cs_) + ccs_);
  }

 private:
  friend struct detail::SimdLaneAccess;
  static T abs_(T v) noexcept { return v < T{} ? static_cast<T>(-v) : v; }
  T sum_{};
  T cs_{};
  T ccs_{};
};

/// Double-double (~106-bit) accumulation, rounded to T at the end.
template <typename T = double>
class DoubleDoubleAccumulator {
 public:
  using value_type = T;
  void add(T x) noexcept { acc_ += static_cast<double>(x); }
  void add(std::span<const T> values) noexcept {
    for (const T x : values) add(x);
  }
  void merge(const DoubleDoubleAccumulator& other) noexcept {
    acc_ += other.acc_;
  }
  T result() const noexcept { return static_cast<T>(acc_.to_double()); }

 private:
  DoubleDouble acc_;
};

/// Round-robin lane partials combined left-to-right - the streaming
/// analogue of a compiler-vectorised accumulation loop.
template <typename T = double>
class VectorizedAccumulator {
 public:
  using value_type = T;
  static constexpr std::size_t kLanes = 4;

  void add(T x) noexcept {
    lanes_[next_] = static_cast<T>(lanes_[next_] + x);
    next_ = (next_ + 1) % kLanes;
  }
  void add(std::span<const T> values) noexcept {
    // Up to the next round boundary one element at a time, then whole
    // rounds with the lanes held in registers: the same round-robin.
    while (!values.empty() && next_ != 0) {
      add(values.front());
      values = values.subspan(1);
    }
    const std::size_t whole = values.size() - values.size() % kLanes;
    std::array<T, kLanes> lanes = lanes_;
    for (std::size_t i = 0; i < whole; i += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        lanes[l] = static_cast<T>(lanes[l] + values[i + l]);
      }
    }
    lanes_ = lanes;
    for (const T x : values.subspan(whole)) add(x);
  }
  void merge(const VectorizedAccumulator& other) noexcept {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes_[l] = static_cast<T>(lanes_[l] + other.lanes_[l]);
    }
  }
  T result() const noexcept {
    T sum{};
    for (const T lane : lanes_) sum = static_cast<T>(sum + lane);
    return sum;
  }

 private:
  std::array<T, kLanes> lanes_{};
  std::size_t next_ = 0;
};

/// Demmel-Nguyen binned sum. Binning needs the global max magnitude, so the
/// streaming form buffers its inputs (in double) and bins at result() time;
/// BinnedSum::sum is permutation-invariant, which makes both add order and
/// merge order irrelevant to the result.
template <typename T = double>
class BinnedAccumulator {
 public:
  using value_type = T;
  void add(T x) { buffer_.push_back(static_cast<double>(x)); }
  void add(std::span<const T> values) {
    buffer_.insert(buffer_.end(), values.begin(), values.end());
  }
  void merge(const BinnedAccumulator& other) {
    buffer_.insert(buffer_.end(), other.buffer_.begin(), other.buffer_.end());
  }
  T result() const {
    return static_cast<T>(BinnedSum::sum(std::span<const double>(buffer_)));
  }

 private:
  std::vector<double> buffer_;
};

/// Long-accumulator (superaccumulator) streaming state: exact adds, exact
/// merges, one rounding at result(). Bitwise invariant to any ordering,
/// chunking or merge tree. (Named after the ExBLAS "long accumulator" to
/// avoid a case-only collision with the underlying fp::Superaccumulator.)
template <typename T = double>
class LongAccumulator {
 public:
  using value_type = T;
  void add(T x) noexcept { acc_.add(static_cast<double>(x)); }
  void add(std::span<const T> values) noexcept {
    for (const T x : values) acc_.add(static_cast<double>(x));
  }
  void merge(const LongAccumulator& other) noexcept { acc_.add(other.acc_); }
  T result() const noexcept { return static_cast<T>(acc_.round()); }

 private:
  Superaccumulator acc_;
};

static_assert(Accumulator<SerialAccumulator<double>>);
static_assert(Accumulator<SerialAccumulator<float>>);
static_assert(Accumulator<PairwiseAccumulator<double>>);
static_assert(Accumulator<KahanAccumulator<double>>);
static_assert(Accumulator<NeumaierAccumulator<double>>);
static_assert(Accumulator<KleinAccumulator<double>>);
static_assert(Accumulator<DoubleDoubleAccumulator<double>>);
static_assert(Accumulator<VectorizedAccumulator<double>>);
static_assert(Accumulator<BinnedAccumulator<double>>);
static_assert(Accumulator<LongAccumulator<double>>);
static_assert(Accumulator<LongAccumulator<float>>);

// Every streaming accumulator also instantiates at the software bf16
// storage dtype (arithmetic runs through the implicit float conversion
// with one rounding per assignment - the pure-bf16 accumulate the dtype
// sweeps use as the "no mixed precision" ablation).
static_assert(Accumulator<SerialAccumulator<bf16>>);
static_assert(Accumulator<PairwiseAccumulator<bf16>>);
static_assert(Accumulator<KahanAccumulator<bf16>>);
static_assert(Accumulator<NeumaierAccumulator<bf16>>);
static_assert(Accumulator<KleinAccumulator<bf16>>);
static_assert(Accumulator<DoubleDoubleAccumulator<bf16>>);
static_assert(Accumulator<VectorizedAccumulator<bf16>>);
static_assert(Accumulator<BinnedAccumulator<bf16>>);
static_assert(Accumulator<LongAccumulator<bf16>>);

// ------------------------------------------- lane-blocked (SIMD) tier --

namespace detail {

struct SimdLaneAccess {
  template <typename T>
  static T& sum(SerialAccumulator<T>& a) noexcept {
    return a.sum_;
  }
  template <typename T>
  static T& sum(KahanAccumulator<T>& a) noexcept {
    return a.sum_;
  }
  template <typename T>
  static T& comp(KahanAccumulator<T>& a) noexcept {
    return a.comp_;
  }
  template <typename T>
  static T& sum(NeumaierAccumulator<T>& a) noexcept {
    return a.sum_;
  }
  template <typename T>
  static T& comp(NeumaierAccumulator<T>& a) noexcept {
    return a.comp_;
  }
  template <typename T>
  static T& sum(KleinAccumulator<T>& a) noexcept {
    return a.sum_;
  }
  template <typename T>
  static T& cs(KleinAccumulator<T>& a) noexcept {
    return a.cs_;
  }
  template <typename T>
  static T& ccs(KleinAccumulator<T>& a) noexcept {
    return a.ccs_;
  }
  template <typename T>
  static T& block(PairwiseAccumulator<T>& a) noexcept {
    return a.block_;
  }
  template <typename T>
  static std::size_t& block_count(PairwiseAccumulator<T>& a) noexcept {
    return a.block_count_;
  }
  template <typename T>
  static void push_block(PairwiseAccumulator<T>& a, T v) {
    a.push_block(v);
  }
};

// Intrinsics dispatch for LaneBlockedAccumulator::add(span): deal
// x[0..n) round-robin into lanes[0..lane_count) starting at lane `next`,
// bitwise identical to the scalar emulation loop. Returns true when an
// intrinsics kernel consumed the span; false (no host support,
// force-scalar in effect, or no kernel for this (algorithm, dtype, L))
// sends the caller down the emulation loop. Implemented in
// src/fp/src/simd.cpp; kernels in src/fp/src/simd_avx2.cpp / _avx512.cpp.
bool simd_add_span(SerialAccumulator<double>* lanes, std::size_t lane_count,
                   std::size_t& next, const double* x, std::size_t n) noexcept;
bool simd_add_span(SerialAccumulator<float>* lanes, std::size_t lane_count,
                   std::size_t& next, const float* x, std::size_t n) noexcept;
bool simd_add_span(KahanAccumulator<double>* lanes, std::size_t lane_count,
                   std::size_t& next, const double* x, std::size_t n) noexcept;
bool simd_add_span(KahanAccumulator<float>* lanes, std::size_t lane_count,
                   std::size_t& next, const float* x, std::size_t n) noexcept;
bool simd_add_span(NeumaierAccumulator<double>* lanes, std::size_t lane_count,
                   std::size_t& next, const double* x, std::size_t n) noexcept;
bool simd_add_span(NeumaierAccumulator<float>* lanes, std::size_t lane_count,
                   std::size_t& next, const float* x, std::size_t n) noexcept;
bool simd_add_span(KleinAccumulator<double>* lanes, std::size_t lane_count,
                   std::size_t& next, const double* x, std::size_t n) noexcept;
bool simd_add_span(KleinAccumulator<float>* lanes, std::size_t lane_count,
                   std::size_t& next, const float* x, std::size_t n) noexcept;
bool simd_add_span(PairwiseAccumulator<double>* lanes, std::size_t lane_count,
                   std::size_t& next, const double* x, std::size_t n) noexcept;
bool simd_add_span(PairwiseAccumulator<float>* lanes, std::size_t lane_count,
                   std::size_t& next, const float* x, std::size_t n) noexcept;
/// Catch-all: no intrinsics tier for this accumulator/dtype (bf16 lanes,
/// the exact-merge states, double-double, ...) - always emulate.
template <typename Base>
bool simd_add_span(Base*, std::size_t, std::size_t&,
                   const typename Base::value_type*, std::size_t) noexcept {
  return false;
}

}  // namespace detail

/// The lane-blocked wrapper: L independent sub-streams of Base, dealt
/// round-robin (element i of a stream goes to lane i mod L - exactly how
/// a vector register blocks a summation loop), folded lane 0 upward with
/// Base::merge at result(). This IS the reference re-association for
/// `<algorithm>@simd<L>`: the element-at-a-time path below is the
/// portable scalar emulation, and the intrinsics path reached through
/// add(span) is REQUIRED to produce identical bits (it runs the same
/// per-lane IEEE op sequence, one lane per register slot; property-tested
/// in fp_test and gated in CI via FPNA_FORCE_SCALAR_SIMD).
///
/// merge() combines lane-wise (lane l with lane l), ignoring both sides'
/// round-robin phase - the chunked analogue of concatenating each lane's
/// sub-stream. Deterministic for a fixed chunking, exact iff Base's merge
/// is exact; like every non-exact accumulator here, chunked bits differ
/// from one-shot bits by association, never by schedule.
template <typename Base, std::size_t L>
class LaneBlockedAccumulator {
  static_assert(L >= 2,
                "LaneBlockedAccumulator<Base, 1> is Base itself; "
                "visit_lanes hands lanes == 1 the base tag");

 public:
  using value_type = typename Base::value_type;
  using base_type = Base;
  static constexpr std::size_t kLanes = L;

  void add(value_type x) {
    lanes_[next_].add(x);
    next_ = (next_ + 1) % L;
  }
  void add(std::span<const value_type> values) {
    if (detail::simd_add_span(lanes_.data(), L, next_, values.data(),
                              values.size())) {
      return;
    }
    for (const value_type x : values) add(x);
  }
  void merge(const LaneBlockedAccumulator& other) {
    for (std::size_t l = 0; l < L; ++l) lanes_[l].merge(other.lanes_[l]);
  }
  /// Pinned lane fold: start from lane 0's state and merge lanes 1..L-1
  /// in ascending index order - one fixed association, so the result is
  /// a pure function of the per-lane sub-streams.
  value_type result() const {
    Base total = lanes_[0];
    for (std::size_t l = 1; l < L; ++l) total.merge(lanes_[l]);
    return total.result();
  }

 private:
  std::array<Base, L> lanes_{};
  std::size_t next_ = 0;  // lane the next element lands in
};

static_assert(Accumulator<LaneBlockedAccumulator<SerialAccumulator<double>, 4>>);
static_assert(Accumulator<LaneBlockedAccumulator<KahanAccumulator<float>, 8>>);
static_assert(Accumulator<LaneBlockedAccumulator<KleinAccumulator<bf16>, 16>>);
static_assert(Accumulator<LaneBlockedAccumulator<LongAccumulator<double>, 4>>);

// ---------------------------------------------------------------- tags --

// One tag type per algorithm. A tag carries the streaming accumulator
// template - everything the static visitor hands to a monomorphised hot
// loop. Names and traits live in the catalogue (algorithm_id.hpp).

namespace tags {

struct Serial {
  template <typename T>
  using accumulator_t = SerialAccumulator<T>;
};

struct Pairwise {
  template <typename T>
  using accumulator_t = PairwiseAccumulator<T>;
};

struct Kahan {
  template <typename T>
  using accumulator_t = KahanAccumulator<T>;
};

struct Neumaier {
  template <typename T>
  using accumulator_t = NeumaierAccumulator<T>;
};

struct Klein {
  template <typename T>
  using accumulator_t = KleinAccumulator<T>;
};

struct DoubleDoubleTag {
  template <typename T>
  using accumulator_t = DoubleDoubleAccumulator<T>;
};

struct Vectorized {
  template <typename T>
  using accumulator_t = VectorizedAccumulator<T>;
};

struct Binned {
  template <typename T>
  using accumulator_t = BinnedAccumulator<T>;
};

struct Super {
  template <typename T>
  using accumulator_t = LongAccumulator<T>;
};

/// Lane-blocked wrapper tag: Tag's algorithm with the accumulator swapped
/// for the L-lane blocking. Tag's catalogue traits carry over verbatim:
/// lane-blocking is deterministic for a fixed L (the lane assignment
/// i mod L and the fold order are pinned), and it preserves
/// permutation-invariance/exact-merge exactly when Base has them (exact
/// lanes fold exactly; for order-sensitive bases both the scalar and the
/// lane-blocked association are order-sensitive).
template <typename Tag, std::size_t L>
struct Simd {
  template <typename T>
  using accumulator_t =
      LaneBlockedAccumulator<typename Tag::template accumulator_t<T>, L>;
};

}  // namespace tags

/// Static visitor: one switch per reduction *call*, monomorphised inner
/// loops. `f` receives the tag by value and can read its accumulator_t
/// without any virtual dispatch. An id outside the enum
/// (e.g. cast from an untrusted config integer) throws rather than
/// silently computing a different algorithm - in a toolkit certifying
/// which algorithm produced which bits, a quiet fallback would be a
/// correctness bug.
template <typename F>
decltype(auto) visit_algorithm(AlgorithmId id, F&& f) {
  switch (id) {
    case AlgorithmId::kSerial: return f(tags::Serial{});
    case AlgorithmId::kPairwise: return f(tags::Pairwise{});
    case AlgorithmId::kKahan: return f(tags::Kahan{});
    case AlgorithmId::kNeumaier: return f(tags::Neumaier{});
    case AlgorithmId::kKlein: return f(tags::Klein{});
    case AlgorithmId::kDoubleDouble: return f(tags::DoubleDoubleTag{});
    case AlgorithmId::kVectorized: return f(tags::Vectorized{});
    case AlgorithmId::kBinned: return f(tags::Binned{});
    case AlgorithmId::kSuperaccumulator: return f(tags::Super{});
  }
  throw std::invalid_argument(
      "visit_algorithm: AlgorithmId outside the enum");
}

/// Lane dispatch for one algorithm tag: lanes <= 1 hands `f` the tag
/// itself (so `@simd1` IS the scalar algorithm, bitwise), other supported
/// counts the tags::Simd wrapper. The set is deliberately closed
/// (kSimdLaneCounts) for the same reason visit_algorithm's switch is: a
/// lane count the visitor does not know must throw, never silently run a
/// different re-association. The spec parser enforces the same set, so
/// this throw only fires for programmatically built specs.
template <typename Tag, typename F>
decltype(auto) visit_lanes(std::size_t lanes, F&& f) {
  switch (lanes) {
    case 0:
    case 1: return f(Tag{});
    case 4: return f(tags::Simd<Tag, 4>{});
    case 8: return f(tags::Simd<Tag, 8>{});
    case 16: return f(tags::Simd<Tag, 16>{});
    default: break;
  }
  throw std::invalid_argument(
      "unsupported SIMD lane count " +
      std::to_string(lanes) + " (supported: 1, 4, 8, 16)");
}

// --------------------------------------------- dtype-polymorphic visit --

/// Type constant naming a concrete accumulate dtype inside
/// visit_dtypes' callback.
template <typename T>
struct dtype_c {
  using type = T;
};

// Storage quantizers: monomorphic value transforms (N -> N, the quantized
// value is exactly representable in N because bf16 c f32 c f64) applied to
// every addend - or, in the dot-product kernels, operand - before it
// enters the accumulation stream. The identity is a distinct type so hot
// loops compile the no-op away entirely.

struct QuantizeNone {
  static constexpr bool is_identity = true;
  template <typename N>
  N operator()(N x) const noexcept {
    return x;
  }
};

struct QuantizeF32 {
  static constexpr bool is_identity = false;
  template <typename N>
  N operator()(N x) const noexcept {
    return static_cast<N>(static_cast<float>(x));
  }
};

struct QuantizeBf16 {
  static constexpr bool is_identity = false;
  template <typename N>
  N operator()(N x) const noexcept {
    return static_cast<N>(static_cast<float>(bf16(static_cast<float>(x))));
  }
};

namespace detail {

/// Storage dispatch for a kernel whose native element type is N. A
/// storage dtype at least as wide as N is a no-op (the values already
/// live in N); narrower dtypes quantize.
template <typename N, typename F>
decltype(auto) visit_storage(Dtype storage, F&& f) {
  switch (storage) {
    case Dtype::kBf16:
      return f(QuantizeBf16{});
    case Dtype::kF32:
      if constexpr (std::same_as<N, double>) {
        return f(QuantizeF32{});
      } else {
        return f(QuantizeNone{});
      }
    case Dtype::kNative:
    case Dtype::kF64:
      break;
  }
  return f(QuantizeNone{});
}

template <typename N, typename F>
decltype(auto) visit_accumulate(Dtype accumulate, F&& f) {
  switch (accumulate) {
    case Dtype::kF64: return f(dtype_c<double>{});
    case Dtype::kF32: return f(dtype_c<float>{});
    case Dtype::kBf16: return f(dtype_c<bf16>{});
    case Dtype::kNative: break;
  }
  return f(dtype_c<N>{});
}

}  // namespace detail

/// The dtype axes of a ReductionSpec: `f(acc_c, quantize)` runs
/// monomorphised - `acc_c` a dtype_c naming the accumulate dtype,
/// `quantize` the storage transform to wrap around every addend/operand.
/// N is the calling kernel's native element type; it resolves
/// Dtype::kNative on both axes.
template <typename N, typename F>
decltype(auto) visit_dtypes(const ReductionSpec& spec, F&& f) {
  return detail::visit_storage<N>(
      spec.storage, [&](auto quantize) -> decltype(auto) {
        return detail::visit_accumulate<N>(
            spec.accumulate,
            [&](auto acc_c) -> decltype(auto) { return f(acc_c, quantize); });
      });
}

}  // namespace fpna::fp
