#pragma once
// The fold table's operations, instantiated per (element type N, tag,
// accumulate dtype A, storage quantizer Q). Included only by the
// per-algorithm TUs fold_<algorithm>.cpp, each of which instantiates
// fold_tables<Tag, N> for its own algorithm - so every accumulator loop
// of the library compiles in exactly one TU.

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "fpna/fp/accumulator.hpp"
#include "fpna/fp/fold.hpp"

namespace fpna::fp::detail {

template <typename N, typename Tag, typename A, typename Q>
struct FoldOps {
  using Acc = typename Tag::template accumulator_t<A>;
  static_assert(alignof(Acc) <= alignof(std::max_align_t));

  /// The serial accumulator at N with no quantization: its seeded stream
  /// is a plain in-place add from the seed.
  static constexpr bool kNativeSerial =
      std::is_same_v<Acc, SerialAccumulator<N>> && Q::is_identity;
  /// Addends enter unchanged, so a contiguous run takes the bulk add
  /// (the same element loop by definition, and the entry point of the
  /// lane-blocked intrinsics path).
  static constexpr bool kBulk = std::is_same_v<A, N> && Q::is_identity;

  static Acc& at(void* state) noexcept {
    return *std::launder(static_cast<Acc*>(state));
  }
  static const Acc& at(const void* state) noexcept {
    return *std::launder(static_cast<const Acc*>(state));
  }
  static A addend(N x) noexcept { return static_cast<A>(Q{}(x)); }

  static void construct(void* states, std::size_t count) {
    std::uninitialized_value_construct_n(static_cast<Acc*>(states), count);
  }
  static void destroy(void* states, std::size_t count) noexcept {
    std::destroy_n(&at(states), count);
  }

  static void seed(void* state, N value) {
    if constexpr (kNativeSerial) {
      SimdLaneAccess::sum(at(state)) = value;
    } else {
      at(state).add(addend(value));
    }
  }
  static void add_run(void* state, const N* x, std::size_t n,
                      std::ptrdiff_t stride) {
    Acc& acc = at(state);
    if constexpr (kBulk) {
      if (stride == 1) {
        acc.add(std::span<const N>(x, n));
        return;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      acc.add(addend(x[static_cast<std::ptrdiff_t>(i) * stride]));
    }
  }
  static void add_each(void* states, const N* x, std::size_t count) {
    Acc* acc = &at(states);
    for (std::size_t k = 0; k < count; ++k) acc[k].add(addend(x[k]));
  }
  static void merge(void* into, const void* from, std::size_t count) {
    Acc* dst = &at(into);
    const Acc* src = &at(from);
    for (std::size_t k = 0; k < count; ++k) dst[k].merge(src[k]);
  }
  static void results(const void* states, N* out, std::size_t count) {
    const Acc* acc = &at(states);
    for (std::size_t k = 0; k < count; ++k) {
      out[k] = static_cast<N>(acc[k].result());
    }
  }

  static N reduce(std::span<const N> values) {
    // The historic free function where the tag has one (the lane-blocked
    // tags do not).
    if constexpr (std::is_same_v<N, double> && kBulk &&
                  requires(std::span<const double> v) { Tag::reduce(v); }) {
      return Tag::reduce(values);
    } else {
      return sum_run(values.data(), values.size(), 1);
    }
  }
  static N sum_run(const N* x, std::size_t n, std::ptrdiff_t stride) {
    Acc acc;
    add_run(&acc, x, n, stride);
    return static_cast<N>(acc.result());
  }
  static N sum_gather(const N* base, const std::size_t* index,
                      std::size_t n) {
    Acc acc;
    for (std::size_t i = 0; i < n; ++i) acc.add(addend(base[index[i]]));
    return static_cast<N>(acc.result());
  }
  static void prefix(N* first, std::ptrdiff_t stride, std::size_t length) {
    if (length == 0) return;
    Acc acc;
    seed(&acc, first[0]);
    for (std::size_t i = 1; i < length; ++i) {
      N& x = first[static_cast<std::ptrdiff_t>(i) * stride];
      acc.add(addend(x));
      x = static_cast<N>(acc.result());
    }
  }

  static void fold_row(std::span<const N> x, std::int64_t x_first,
                       std::int64_t x_stride, std::span<const N> w,
                       std::int64_t p_begin, std::int64_t p_end,
                       std::span<N> out) {
    const std::size_t n = out.size();
    thread_local std::vector<Acc> scratch;
    if (scratch.size() < n) scratch.resize(n);
    Acc* row = scratch.data();
    for (std::size_t j = 0; j < n; ++j) row[j] = Acc{};
    const Q quantize;
    for (std::int64_t p = p_begin; p < p_end; ++p) {
      const N av =
          quantize(x[static_cast<std::size_t>(x_first + p * x_stride)]);
      if (av == N{0}) continue;
      const N* wrow = w.data() + static_cast<std::size_t>(p) * n;
      for (std::size_t j = 0; j < n; ++j) {
        row[j].add(static_cast<A>(av * quantize(wrow[j])));
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = static_cast<N>(row[j].result());
    }
  }
  static void dot_row(const N* a, const N* b, std::int64_t k,
                      std::span<N> out) {
    const Q quantize;
    for (std::size_t j = 0; j < out.size(); ++j) {
      const N* bj = b + static_cast<std::ptrdiff_t>(j) * k;
      Acc acc;
      for (std::int64_t p = 0; p < k; ++p) {
        acc.add(static_cast<A>(quantize(a[p]) * quantize(bj[p])));
      }
      out[j] = static_cast<N>(acc.result());
    }
  }

  static N scaled(const ScatterFold<N>& job, const Contribution& c) noexcept {
    return static_cast<N>(job.alpha * job.src[static_cast<std::size_t>(c.src)]);
  }
  static void scatter(const ScatterFold<N>& job, std::size_t begin,
                      std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const std::size_t d = job.destinations[j];
      Acc acc;
      if (job.seed) seed(&acc, job.out[d]);
      for (std::size_t k = job.offsets[d]; k < job.offsets[d + 1]; ++k) {
        acc.add(addend(scaled(job, job.contributions[job.grouped[k]])));
      }
      job.out[d] = static_cast<N>(acc.result());
    }
  }
  static void scatter_in_place(const ScatterFold<N>& job) {
    for (const Contribution& c : job.contributions) {
      N& o = job.out[static_cast<std::size_t>(c.dst)];
      o = static_cast<N>(o + scaled(job, c));
    }
  }
  static constexpr Fold<N> table() noexcept {
    Fold<N> ops{sizeof(Acc), &construct, &destroy, &seed,    &add_run,
                &add_each,   &merge,     &results, &reduce,  &sum_run,
                &sum_gather, &prefix,    nullptr,  nullptr,  &scatter,
                nullptr};
    // Only the float dense kernels (dl::Matrix) fold rows: the double
    // tables leave the row ops uninstantiated.
    if constexpr (std::is_same_v<N, float>) {
      ops.fold_row = &fold_row;
      ops.dot_row = &dot_row;
    }
    if constexpr (kNativeSerial) ops.scatter_in_place = &scatter_in_place;
    return ops;
  }
};

template <typename N, typename Tag, typename A, typename Q>
inline constexpr Fold<N> kFoldTable = FoldOps<N, Tag, A, Q>::table();

/// The tables of one algorithm: the lane count, accumulate dtype and
/// storage quantizer resolve here, once per lookup.
template <typename Tag, typename N>
const Fold<N>& fold_tables(const ReductionSpec& spec) {
  return visit_lanes<Tag>(spec.lanes, [&](auto tag) -> const Fold<N>& {
    return visit_dtypes<N>(
        spec, [](auto acc_c, auto quantize) -> const Fold<N>& {
          return kFoldTable<N, decltype(tag), typename decltype(acc_c)::type,
                            decltype(quantize)>;
        });
  });
}

}  // namespace fpna::fp::detail

/// Instantiates one algorithm's tables (the body of fold_<algorithm>.cpp).
#define FPNA_FOLD_TABLES(tag_type)                                     \
  namespace fpna::fp::detail {                                         \
  template const Fold<float>& fold_tables<tags::tag_type, float>(      \
      const ReductionSpec&);                                           \
  template const Fold<double>& fold_tables<tags::tag_type, double>(    \
      const ReductionSpec&);                                           \
  }
