#include "fpna/tensor/indexed_ops.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpna/fp/fold.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/util/permutation.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::tensor {

const char* to_string(Reduce reduce) noexcept {
  switch (reduce) {
    case Reduce::kSum: return "sum";
    case Reduce::kMean: return "mean";
    case Reduce::kProd: return "prod";
    case Reduce::kAmax: return "amax";
    case Reduce::kAmin: return "amin";
  }
  return "?";
}

namespace {

/// One atomic update: source element `src` lands on destination element
/// `dst` (both flat offsets).
using fp::Contribution;

/// Calls `commit` on every contribution in a commit order: issue order
/// on the deterministic path, a contention-aware scheduler draw on the
/// non-deterministic one.
///
/// Contention model: same-address atomics funnel through a per-address
/// queue. When an address is heavily contended (c contributions), the
/// queue saturates and drains in issue order - back-pressure serialises
/// the pipeline - so with probability 1 - 1/c^2 the address's
/// contributions commit FIFO this run. Lightly contended addresses
/// (c = 2, 3) are races between a few in-flight requests whose winner is
/// scheduler/latency jitter, i.e. effectively random order.
///
/// This reproduces the paper's Fig. 3/4 phenomenology: variability
/// *grows* with the reduction ratio R, because small R means high
/// per-address contention and therefore near-FIFO (reproducible) commit
/// despite the many collisions, while R near 1 leaves exactly the racy
/// two-way collisions that reorder run to run.
///
/// Draw contract: the run's generator is drawn for exactly
/// util::random_permutation(n) - the global interleaving of the
/// contributions - and then one util::canonical per destination with
/// >= 2 contributions, in ascending destination order, deciding whether
/// its queue drains FIFO. Nothing else is drawn, so the same RunContext
/// gives the same bits (pinned by tensor_test's IndexedOpsGolden
/// fingerprints and the benchmark's infer-nd fingerprint).
///
/// A commit touches only its own destination, so the only observable
/// order is each destination's own: a FIFO destination commits its
/// contributions in issue order, a racing one in the order the
/// interleaving visits them. Two linear passes realise exactly that -
/// issue order for the FIFO (and single-contribution) destinations, then
/// the interleaving for the racing ones - with no per-destination lists.
template <typename Commit>
void for_each_commit(const std::vector<Contribution>& contribs,
                     std::int64_t out_numel, const OpContext& ctx,
                     bool is_store, const Commit& commit) {
  if (!ctx.nondeterministic()) {
    for (const auto& c : contribs) commit(c);
    return;
  }
  const std::size_t n = contribs.size();
  const auto numel = static_cast<std::size_t>(out_numel);
  auto& rng = ctx.run->rng();

  // Global scheduler jitter: any interleaving of distinct addresses is
  // fair game.
  const std::vector<std::size_t> interleaving =
      util::random_permutation(n, rng);

  // Per-destination contention counts.
  std::vector<std::uint32_t> count(numel, 0);
  for (const auto& c : contribs) ++count[static_cast<std::size_t>(c.dst)];

  // Mean queue depth g = contributions per output element. The race
  // probability falls as 1/g^2: once the atomic pipeline is saturated,
  // back-pressure drains queues in issue order and the jitter window that
  // lets two requests swap shrinks with the queue depth (calibrated
  // against the paper's Fig. 4 index_add curve, which is ~linear in R).
  const double g = std::max(
      1.0, static_cast<double>(n) /
               static_cast<double>(std::max<std::int64_t>(1, out_numel)));
  double race_probability = std::min(1.0, 1.0 / (g * g));
  // Stores only flip their winner when the final two writes race; see
  // OpContext::store_race_scale.
  if (is_store) race_probability *= ctx.store_race_scale;

  // Decide per destination whether its queue drains in issue order this
  // run (a lone contribution has no order to lose, and draws nothing).
  std::vector<char> in_order(numel, 0);
  for (std::size_t d = 0; d < numel; ++d) {
    in_order[d] = count[d] < 2 || util::canonical(rng) >= race_probability;
  }

  std::vector<char> racing(n, 0);
  bool any_racing = false;
  for (std::size_t k = 0; k < n; ++k) {
    if (in_order[static_cast<std::size_t>(contribs[k].dst)]) {
      commit(contribs[k]);
    } else {
      racing[k] = 1;
      any_racing = true;
    }
  }
  if (!any_racing) return;
  for (const std::size_t k : interleaving) {
    if (racing[k]) commit(contribs[k]);
  }
}

void check_dim(std::int64_t dim, std::int64_t rank, const char* op) {
  if (dim < 0 || dim >= rank) {
    throw std::out_of_range(std::string(op) + ": dim " + std::to_string(dim) +
                            " out of range for rank " + std::to_string(rank));
  }
}

/// Checks every index value against the size of `dim` in the output, in
/// flat order, so the first bad value in source order is the one named.
void check_index_values(std::span<const std::int64_t> targets,
                        std::int64_t out_dim_size, const char* op) {
  for (const std::int64_t target : targets) {
    if (target < 0 || target >= out_dim_size) {
      throw std::out_of_range(std::string(op) + ": index value " +
                              std::to_string(target) + " out of range [0, " +
                              std::to_string(out_dim_size) + ")");
    }
  }
}

/// Flat offsets, under `strides`, of every row-major position of
/// `shape`'s dims [begin, end), the other coordinates being zero.
std::vector<std::int64_t> embedded_offsets(const Shape& shape,
                                           const Shape& strides,
                                           std::size_t begin,
                                           std::size_t end) {
  std::int64_t count = 1;
  for (std::size_t d = begin; d < end; ++d) count *= shape[d];
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(count));
  for (std::int64_t p = 0; p < count; ++p) {
    std::int64_t rest = p;
    std::int64_t offset = 0;
    for (std::size_t d = end; d-- > begin;) {
      offset += (rest % shape[d]) * strides[d];
      rest /= shape[d];
    }
    offsets[static_cast<std::size_t>(p)] = offset;
  }
  return offsets;
}

/// Builds the contribution list of index_add / index_copy: source slice k
/// (along `dim`) maps onto destination slice index[k]. Contribution s is
/// source element s, so the list is in issue order.
template <typename T>
std::vector<Contribution> slice_contributions(
    const Tensor<T>& out, std::int64_t dim,
    const Tensor<std::int64_t>& index, const Tensor<T>& source,
    const char* op) {
  if (source.dim() != out.dim()) {
    throw std::invalid_argument(std::string(op) + ": rank mismatch between "
                                "self and source");
  }
  for (std::int64_t d = 0; d < out.dim(); ++d) {
    if (d != dim && out.shape()[static_cast<std::size_t>(d)] !=
                        source.shape()[static_cast<std::size_t>(d)]) {
      throw std::invalid_argument(std::string(op) +
                                  ": self/source shape mismatch outside dim");
    }
  }
  if (index.numel() != source.size(dim)) {
    throw std::invalid_argument(std::string(op) +
                                ": index length must equal source.size(dim)");
  }

  std::vector<Contribution> contribs;
  if (source.numel() == 0) return contribs;  // nothing commits
  const std::int64_t out_dim_size = out.size(dim);
  const std::span<const std::int64_t> targets = index.data();
  check_index_values(targets, out_dim_size, op);

  // Row-major [outer, k, inner] around dim. Shapes agree outside dim, so
  // source element (o, k, i) lands on destination element (o, index[k], i).
  const std::int64_t k_size = source.size(dim);
  const std::int64_t inner = source.stride(dim);
  const std::int64_t outer = source.numel() / (k_size * inner);
  contribs.reserve(static_cast<std::size_t>(source.numel()));
  std::int64_t s = 0;
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t k = 0; k < k_size; ++k) {
      const std::int64_t base =
          (o * out_dim_size + targets[static_cast<std::size_t>(k)]) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        contribs.push_back({base + i, s++});
      }
    }
  }
  return contribs;
}

/// Builds the contribution list of scatter / scatter_reduce: every element
/// p of src maps onto p with its `dim` coordinate replaced by index[p].
template <typename T>
std::vector<Contribution> elementwise_contributions(
    const Tensor<T>& out, std::int64_t dim,
    const Tensor<std::int64_t>& index, const Tensor<T>& src, const char* op) {
  if (src.dim() != out.dim()) {
    throw std::invalid_argument(std::string(op) +
                                ": rank mismatch between self and src");
  }
  if (index.shape() != src.shape()) {
    throw std::invalid_argument(std::string(op) +
                                ": index must have the shape of src");
  }
  for (std::int64_t d = 0; d < out.dim(); ++d) {
    if (d != dim && src.shape()[static_cast<std::size_t>(d)] >
                        out.shape()[static_cast<std::size_t>(d)]) {
      throw std::invalid_argument(std::string(op) +
                                  ": src exceeds self outside dim");
    }
  }

  std::vector<Contribution> contribs;
  if (src.numel() == 0) return contribs;
  const std::span<const std::int64_t> targets = index.data();
  check_index_values(targets, out.size(dim), op);

  // src may be narrower than out outside dim, so its outer and inner
  // coordinates map to out offsets through out's strides.
  const auto d = static_cast<std::size_t>(dim);
  const auto outer_offsets =
      embedded_offsets(src.shape(), out.strides(), 0, d);
  const auto inner_offsets =
      embedded_offsets(src.shape(), out.strides(), d + 1, src.shape().size());
  const std::int64_t out_stride = out.strides()[d];
  const std::int64_t k_size = src.shape()[d];
  contribs.reserve(static_cast<std::size_t>(src.numel()));
  std::int64_t s = 0;
  for (const std::int64_t outer : outer_offsets) {
    for (std::int64_t k = 0; k < k_size; ++k) {
      for (const std::int64_t inner : inner_offsets) {
        contribs.push_back(
            {outer + targets[static_cast<std::size_t>(s)] * out_stride + inner,
             s});
        ++s;
      }
    }
  }
  return contribs;
}

/// Contributions grouped by destination: a stable counting sort, so
/// grouped[offsets[d] .. offsets[d + 1]) lists destination d's
/// contributions in issue order; `destinations` names the touched ones in
/// ascending order.
struct DestinationGroups {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> grouped;
  std::vector<std::size_t> destinations;
};

DestinationGroups group_by_destination(
    const std::vector<Contribution>& contribs, std::size_t numel) {
  DestinationGroups g;
  g.offsets.assign(numel + 1, 0);
  for (const auto& c : contribs) {
    ++g.offsets[static_cast<std::size_t>(c.dst) + 1];
  }
  for (std::size_t d = 0; d < numel; ++d) g.offsets[d + 1] += g.offsets[d];
  g.grouped.resize(contribs.size());
  std::vector<std::size_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  for (std::size_t k = 0; k < contribs.size(); ++k) {
    g.grouped[fill[static_cast<std::size_t>(contribs[k].dst)]++] = k;
  }
  for (std::size_t d = 0; d < numel; ++d) {
    if (g.offsets[d + 1] > g.offsets[d]) g.destinations.push_back(d);
  }
  return g;
}

/// Deterministic accumulation of `contribs` into `out` through the
/// context's registry-selected accumulator: per destination, the self
/// value seeds the stream (unless `seed_self` is false, the
/// scatter_reduce include_self=false case), then alpha * src of its
/// contributions folds in issue order. The contributions are grouped by
/// destination and the destinations folded inline, or split across
/// ctx.pool when there is one; destinations never alias and each one's
/// stream is fixed by the grouping, so the pooled result is bitwise the
/// inline one for every accumulator and thread count, by construction.
/// The native serial fold of a seeded stream is an in-place add, so
/// without a pool it needs no grouping at all - one pass in issue order.
template <typename T>
void accumulate_deterministic(Tensor<T>& out,
                              const std::vector<Contribution>& contribs,
                              const Tensor<T>& src, T alpha,
                              const OpContext& ctx, bool seed_self) {
  const bool pooled =
      ctx.pool != nullptr && ctx.pool->size() > 1 && contribs.size() > 1;
  const fp::Fold<T>& fold = fp::Fold<T>::of(ctx.reduction_in_effect());
  fp::ScatterFold<T> job{out.data(), src.data(), alpha, contribs, seed_self,
                         {}, {}, {}};
  if (seed_self && !pooled && fold.scatter_in_place != nullptr) {
    fold.scatter_in_place(job);
    return;
  }
  const DestinationGroups g = group_by_destination(contribs, out.data().size());
  job.destinations = g.destinations;
  job.offsets = g.offsets;
  job.grouped = g.grouped;
  if (pooled) {
    ctx.pool->parallel_for(
        g.destinations.size(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          fold.scatter(job, begin, end);
        });
  } else {
    fold.scatter(job, 0, g.destinations.size());
  }
}

/// scatter_reduce's mean epilogue: one PyTorch denominator rule for both
/// the registry-accumulator path and the commit-order path. Destinations
/// with no contribution (count 0) keep the self value untouched.
template <typename T>
void divide_mean_destinations(Tensor<T>& out,
                              const std::vector<std::int64_t>& counts,
                              bool include_self) {
  const std::span<T> o = out.data();
  for (std::size_t f = 0; f < o.size(); ++f) {
    if (counts[f] == 0) continue;
    const auto denom = static_cast<T>(counts[f] + (include_self ? 1 : 0));
    o[f] = static_cast<T>(o[f] / denom);
  }
}

/// Whole-tensor result fingerprint (read-only; emitted from the calling
/// thread so provenance order never depends on pool scheduling).
template <typename T>
std::uint64_t tensor_bits(const Tensor<T>& t) {
  obs::Fingerprint print;
  print.feed(t.data());
  return print.value();
}

template <typename T>
T reduce_combine(Reduce reduce, T acc, T value) {
  switch (reduce) {
    case Reduce::kSum:
    case Reduce::kMean:
      return static_cast<T>(acc + value);
    case Reduce::kProd: return static_cast<T>(acc * value);
    case Reduce::kAmax: return value > acc ? value : acc;
    case Reduce::kAmin: return value < acc ? value : acc;
  }
  return acc;
}

}  // namespace

template <typename T>
Tensor<T> index_add(const Tensor<T>& self, std::int64_t dim,
                    const Tensor<std::int64_t>& index,
                    const Tensor<T>& source, T alpha, const OpContext& ctx) {
  check_dim(dim, self.dim(), "index_add");
  obs::Span span(ctx.recorder, "tensor.index_add");
  Tensor<T> out = self;
  const auto contribs =
      slice_contributions(out, dim, index, source, "index_add");
  // Shapes are checked above, so the loops below index raw storage.
  const std::span<T> o = out.data();
  const std::span<const T> s = source.data();
  if (ctx.recorder != nullptr) {
    span.arg("contributions", static_cast<std::uint64_t>(contribs.size()));
    span.arg("numel", static_cast<std::int64_t>(out.numel()));
    span.arg("deterministic", ctx.nondeterministic() ? "no" : "yes");
    ctx.recorder->metrics().counter("tensor.index_add.calls").increment();
  }
  if (!ctx.nondeterministic()) {
    // Deterministic path: per-destination reduction through the registry
    // accumulator, contributions in issue order.
    accumulate_deterministic(out, contribs, source, alpha, ctx,
                             /*seed_self=*/true);
  } else {
    // Atomic adds commit in scheduler order; each add is out[dst] += a*src,
    // evaluated in T precision exactly as the device would (hardware
    // atomics are plain serial adds, so the accumulator selection does not
    // apply).
    for_each_commit(contribs, out.numel(), ctx, /*is_store=*/false,
                    [&](const Contribution& c) {
                      const auto d = static_cast<std::size_t>(c.dst);
                      o[d] = static_cast<T>(
                          o[d] + alpha * s[static_cast<std::size_t>(c.src)]);
                    });
  }
  if (ctx.recorder != nullptr) {
    ctx.recorder->provenance({"tensor.index_add", "result", dim, -1,
                              fp::to_string(ctx.reduction_in_effect()),
                              tensor_bits(out),
                              static_cast<std::uint64_t>(out.numel())});
  }
  return out;
}

template <typename T>
Tensor<T> index_copy(const Tensor<T>& self, std::int64_t dim,
                     const Tensor<std::int64_t>& index,
                     const Tensor<T>& source, const OpContext& ctx) {
  check_dim(dim, self.dim(), "index_copy");
  Tensor<T> out = self;
  const auto contribs =
      slice_contributions(out, dim, index, source, "index_copy");
  // Plain stores: for duplicate destinations the last committed store
  // wins, so the result depends on the order for the ND path.
  const std::span<T> o = out.data();
  const std::span<const T> s = source.data();
  for_each_commit(contribs, out.numel(), ctx, /*is_store=*/true,
                  [&](const Contribution& c) {
                    o[static_cast<std::size_t>(c.dst)] =
                        s[static_cast<std::size_t>(c.src)];
                  });
  return out;
}

template <typename T>
Tensor<T> index_put(const Tensor<T>& self, const Tensor<std::int64_t>& indices,
                    const Tensor<T>& values, bool accumulate,
                    const OpContext& ctx) {
  if (accumulate) {
    return index_add(self, 0, indices, values, T{1}, ctx);
  }
  return index_copy(self, 0, indices, values, ctx);
}

template <typename T>
Tensor<T> scatter(const Tensor<T>& self, std::int64_t dim,
                  const Tensor<std::int64_t>& index, const Tensor<T>& src,
                  const OpContext& ctx) {
  check_dim(dim, self.dim(), "scatter");
  Tensor<T> out = self;
  const auto contribs =
      elementwise_contributions(out, dim, index, src, "scatter");
  const std::span<T> o = out.data();
  const std::span<const T> s = src.data();
  for_each_commit(contribs, out.numel(), ctx, /*is_store=*/true,
                  [&](const Contribution& c) {
                    o[static_cast<std::size_t>(c.dst)] =
                        s[static_cast<std::size_t>(c.src)];
                  });
  return out;
}

template <typename T>
Tensor<T> scatter_reduce(const Tensor<T>& self, std::int64_t dim,
                         const Tensor<std::int64_t>& index,
                         const Tensor<T>& src, Reduce reduce,
                         bool include_self, const OpContext& ctx) {
  check_dim(dim, self.dim(), "scatter_reduce");
  obs::Span span(ctx.recorder, "tensor.scatter_reduce");
  Tensor<T> out = self;
  const auto contribs =
      elementwise_contributions(out, dim, index, src, "scatter_reduce");
  const std::span<T> o = out.data();
  const std::span<const T> s = src.data();
  if (ctx.recorder != nullptr) {
    span.arg("contributions", static_cast<std::uint64_t>(contribs.size()));
    span.arg("numel", static_cast<std::int64_t>(out.numel()));
    span.arg("reduce", to_string(reduce));
    span.arg("deterministic", ctx.nondeterministic() ? "no" : "yes");
    ctx.recorder->metrics()
        .counter("tensor.scatter_reduce.calls")
        .increment();
  }
  const auto emit_result = [&]() {
    if (ctx.recorder != nullptr) {
      ctx.recorder->provenance({"tensor.scatter_reduce", "result", dim, -1,
                                fp::to_string(ctx.reduction_in_effect()),
                                tensor_bits(out),
                                static_cast<std::uint64_t>(out.numel())});
    }
  };

  // Sum-family reductions on the deterministic path route through the
  // registry accumulator (non-sum modes - prod/amax/amin - have no
  // accumulation to re-associate and keep the direct combine loop). A
  // non-native dtype spec or a lane-blocked (@simd<L>) spec takes this
  // path even for the serial algorithm: the direct combine loop below
  // never quantizes and never lane-blocks, so those axes would otherwise
  // be silently dropped.
  const bool sum_family = reduce == Reduce::kSum || reduce == Reduce::kMean;
  if (sum_family && !ctx.nondeterministic() &&
      (ctx.reduction_in_effect().algorithm != fp::AlgorithmId::kSerial ||
       !ctx.reduction_in_effect().native() ||
       ctx.reduction_in_effect().lane_blocked())) {
    accumulate_deterministic(out, contribs, src, T{1}, ctx,
                             /*seed_self=*/include_self);
    if (reduce == Reduce::kMean) {
      std::vector<std::int64_t> counts(static_cast<std::size_t>(out.numel()),
                                       0);
      for (const auto& c : contribs) ++counts[static_cast<std::size_t>(c.dst)];
      divide_mean_destinations(out, counts, include_self);
    }
    emit_result();
    return out;
  }

  // Per-destination bookkeeping: whether it received any contribution
  // (controls include_self seeding) and, for mean, how many.
  std::vector<char> touched(static_cast<std::size_t>(out.numel()), 0);
  std::vector<std::int64_t> counts;
  if (reduce == Reduce::kMean) {
    counts.assign(static_cast<std::size_t>(out.numel()), 0);
  }

  for_each_commit(
      contribs, out.numel(), ctx, /*is_store=*/false,
      [&](const Contribution& c) {
        const auto d = static_cast<std::size_t>(c.dst);
        const T value = s[static_cast<std::size_t>(c.src)];
        if (!touched[d] && !include_self) {
          o[d] = value;  // first commit replaces the self value
        } else {
          o[d] = reduce_combine(reduce, o[d], value);
        }
        touched[d] = 1;
        if (reduce == Reduce::kMean) ++counts[d];
      });

  // touched[d] implies counts[d] > 0 under kMean, so the shared epilogue
  // divides exactly the touched destinations.
  if (reduce == Reduce::kMean) {
    divide_mean_destinations(out, counts, include_self);
  }
  emit_result();
  return out;
}

// Explicit instantiations for the floating-point element types the
// experiments use (float mirrors PyTorch's default dtype).
#define FPNA_INSTANTIATE_INDEXED_OPS(T)                                        \
  template Tensor<T> index_add<T>(const Tensor<T>&, std::int64_t,             \
                                  const Tensor<std::int64_t>&,                \
                                  const Tensor<T>&, T, const OpContext&);     \
  template Tensor<T> index_copy<T>(const Tensor<T>&, std::int64_t,            \
                                   const Tensor<std::int64_t>&,               \
                                   const Tensor<T>&, const OpContext&);       \
  template Tensor<T> index_put<T>(const Tensor<T>&,                           \
                                  const Tensor<std::int64_t>&,                \
                                  const Tensor<T>&, bool, const OpContext&);  \
  template Tensor<T> scatter<T>(const Tensor<T>&, std::int64_t,               \
                                const Tensor<std::int64_t>&,                  \
                                const Tensor<T>&, const OpContext&);          \
  template Tensor<T> scatter_reduce<T>(const Tensor<T>&, std::int64_t,        \
                                       const Tensor<std::int64_t>&,           \
                                       const Tensor<T>&, Reduce, bool,        \
                                       const OpContext&);

FPNA_INSTANTIATE_INDEXED_OPS(float)
FPNA_INSTANTIATE_INDEXED_OPS(double)

#undef FPNA_INSTANTIATE_INDEXED_OPS

}  // namespace fpna::tensor
