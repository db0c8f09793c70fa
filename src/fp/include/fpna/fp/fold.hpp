#pragma once
// The fold table: every reduction kernel outside this module folds
// through it. `Fold<N>::of(spec)` returns one static table per
// (algorithm, lanes, accumulate dtype, storage quantizer) for a kernel
// whose native element type is N (float or double). The tables are
// compiled once per algorithm, in src/fp/src/fold_<algorithm>.cpp, so
// the kernels in reduce, tensor, dl and comm are ordinary functions
// compiled once per element type: they look the table up once per call
// and make one indirect call per chunk, row, run or destination range -
// the per-element loop lives inside the table's operations.
//
// Every operation quantizes each addend (or, in the dot-product loops,
// each operand) to the spec's storage dtype and runs the algorithm's
// streaming accumulator at its accumulate dtype; results round back to N
// (exact, every narrower value is representable in N).
//
// The seed rule, written once (`seed`): the native serial fold (serial
// accumulator at N, identity quantizer) starts its stream from the seed
// value, so a -0.0 seed survives; every other combination adds the seed
// as the stream's first element.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "fpna/fp/reduction_spec.hpp"

namespace fpna::fp {

/// One contribution of a scatter fold: source element `src` lands on
/// destination element `dst` (flat offsets).
struct Contribution {
  std::int64_t dst;
  std::int64_t src;
};

/// A destination-grouped scatter fold (index_add, scatter_reduce):
/// destination d's stream is out[d] (when `seed`), then
/// alpha * src[c.src] for its contributions c in issue order.
template <typename N>
struct ScatterFold {
  std::span<N> out;
  std::span<const N> src;
  N alpha;
  std::span<const Contribution> contributions;
  bool seed;
  /// The grouping: grouped[offsets[d] .. offsets[d + 1]) indexes
  /// destination d's contributions in issue order; `destinations` lists
  /// the touched ones in ascending order.
  std::span<const std::size_t> destinations;
  std::span<const std::size_t> offsets;
  std::span<const std::size_t> grouped;
};

template <typename N>
struct Fold {
  /// Bytes of one accumulator state; states live in caller-owned blocks
  /// (see FoldStates), aligned to alignof(std::max_align_t).
  std::size_t state_size;
  void (*construct)(void* states, std::size_t count);
  void (*destroy)(void* states, std::size_t count) noexcept;

  // ---- streams over caller-owned states -------------------------------
  /// Starts a fresh state's stream from `value` (the seed rule above).
  void (*seed)(void* state, N value);
  /// Adds x[0], x[stride], ... (n elements).
  void (*add_run)(void* state, const N* x, std::size_t n,
                  std::ptrdiff_t stride);
  /// Elementwise: state k of the block adds x[k].
  void (*add_each)(void* states, const N* x, std::size_t count);
  /// Elementwise: state k of `into` merges state k of `from`.
  void (*merge)(void* into, const void* from, std::size_t count);
  /// Elementwise: out[k] = state k's rounded result.
  void (*results)(const void* states, N* out, std::size_t count);

  // ---- whole folds ----------------------------------------------------
  /// A fresh stream over x[0], x[stride], ... (n elements).
  N (*sum_run)(const N* x, std::size_t n, std::ptrdiff_t stride);
  /// A fresh stream over base[index[0]], base[index[1]], ...
  N (*sum_gather)(const N* base, const std::size_t* index, std::size_t n);
  /// In-place running prefix of first[0], first[stride], ... (length
  /// elements): element 0 seeds the stream and stays as it is; element i
  /// becomes the result after adding it.
  void (*prefix)(N* first, std::ptrdiff_t stride, std::size_t length);
  /// out[j] = sum over p in [p_begin, p_end) of x[x_first + p * x_stride]
  /// * w[p * n + j] for the n = out.size() columns of row-major w, p
  /// ascending, both operands quantized, p skipped when the quantized x
  /// entry is zero (the sparsity skip of matmul, matmul_transpose_a and
  /// linear_row). Column j's state comes from a per-thread scratch row.
  /// Float tables only (the dense kernels run on dl::Matrix, a float
  /// tensor); null in every Fold<double> table.
  void (*fold_row)(std::span<const N> x, std::int64_t x_first,
                   std::int64_t x_stride, std::span<const N> w,
                   std::int64_t p_begin, std::int64_t p_end,
                   std::span<N> out);
  /// out[j] = sum over p in [0, k) of a[p] * b[j * k + p] (no skip).
  /// Float tables only, like fold_row.
  void (*dot_row)(const N* a, const N* b, std::int64_t k, std::span<N> out);
  /// Folds destinations [begin, end) of job.destinations.
  void (*scatter)(const ScatterFold<N>& job, std::size_t begin,
                  std::size_t end);
  /// Non-null only for the native serial fold, whose seeded stream is a
  /// plain in-place add: then a seeded scatter needs no grouping and
  /// commits out[c.dst] += alpha * src[c.src] in one pass in issue order.
  void (*scatter_in_place)(const ScatterFold<N>& job);

  /// Elementwise over runs of `count` elements: out[k] = the stream
  /// runs[0][k], runs[1][k], ... (add_each over blocks of states). A run
  /// may be `out` itself.
  void sum_each(std::span<const N* const> runs, std::size_t count,
                N* out) const;

  /// The table for `spec`. Throws std::invalid_argument for an algorithm
  /// outside the enum or an unsupported lane count.
  static const Fold& of(const ReductionSpec& spec);
};

extern template struct Fold<float>;
extern template struct Fold<double>;

/// A caller-owned block of `count` fresh accumulator states of one
/// table, destroyed with the block.
template <typename N>
class FoldStates {
 public:
  FoldStates(const Fold<N>& fold, std::size_t count)
      : fold_(fold),
        count_(count),
        data_(std::make_unique_for_overwrite<std::max_align_t[]>(
            (fold.state_size * count + sizeof(std::max_align_t) - 1) /
            sizeof(std::max_align_t))) {
    fold.construct(data_.get(), count);
  }
  ~FoldStates() { fold_.destroy(data_.get(), count_); }
  FoldStates(const FoldStates&) = delete;
  FoldStates& operator=(const FoldStates&) = delete;

  void* operator[](std::size_t k) noexcept {
    return reinterpret_cast<std::byte*>(data_.get()) + k * fold_.state_size;
  }

 private:
  const Fold<N>& fold_;
  std::size_t count_;
  std::unique_ptr<std::max_align_t[]> data_;
};

/// One-shot dtype-polymorphic reduction: Fold<T>::of(spec).sum_run over
/// `values`, one fresh stream - every addend quantized to the storage
/// dtype and streamed through the algorithm's accumulator at the
/// accumulate dtype. The same spec gives the same bits here as in every
/// kernel that streams the same values through one state (cpu_sum at one
/// chunk, the fold table's operations). A bare AlgorithmId converts to
/// its native spec.
template <typename T>
T reduce(const ReductionSpec& spec, std::span<const T> values);

extern template float reduce<float>(const ReductionSpec&,
                                    std::span<const float>);
extern template double reduce<double>(const ReductionSpec&,
                                      std::span<const double>);

}  // namespace fpna::fp
