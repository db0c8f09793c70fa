#include "fpna/tensor/scan_ops.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fpna/fp/fold.hpp"
#include "fpna/util/permutation.hpp"

namespace fpna::tensor {

namespace {

/// Scans one line (stride-accessed) of the tensor.
template <typename T>
void scan_line(std::span<T> data, std::int64_t start, std::int64_t stride,
               std::int64_t length, const OpContext& ctx,
               std::size_t scan_blocks) {
  const auto at = [&](std::int64_t i) -> T& {
    return data[static_cast<std::size_t>(start + i * stride)];
  };
  const fp::Fold<T>& fold = fp::Fold<T>::of(ctx.reduction_in_effect());

  if (!ctx.nondeterministic() || length <= 2 || scan_blocks <= 1) {
    // Deterministic scan: the running prefix is the context's registry
    // accumulator (at the spec's accumulate dtype, over storage-quantized
    // addends), seeded from the first element and read after every add.
    fold.prefix(&at(0), stride, static_cast<std::size_t>(length));
    return;
  }

  // Blocked scan. Aggregate each block, then give block b the offset
  // sum(aggregates[0..b-1]) accumulated in a per-run shuffled order -
  // the association pattern of a decoupled-lookback scan whose partials
  // arrive asynchronously.
  const auto blocks = static_cast<std::int64_t>(
      std::min<std::size_t>(scan_blocks, static_cast<std::size_t>(length)));
  const std::int64_t base = length / blocks;
  const std::int64_t rem = length % blocks;

  std::vector<std::int64_t> begin(static_cast<std::size_t>(blocks) + 1, 0);
  for (std::int64_t b = 0; b < blocks; ++b) {
    begin[static_cast<std::size_t>(b) + 1] =
        begin[static_cast<std::size_t>(b)] + base + (b < rem ? 1 : 0);
  }

  // Block aggregates and per-block offsets route through the context's
  // registry-selected accumulator (serial reproduces the seed bitwise).
  std::vector<T> aggregate(static_cast<std::size_t>(blocks), T{0});
  std::vector<T> offset(static_cast<std::size_t>(blocks), T{0});
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t first = begin[static_cast<std::size_t>(b)];
    aggregate[static_cast<std::size_t>(b)] =
        fold.sum_run(&at(first), static_cast<std::size_t>(
                                     begin[static_cast<std::size_t>(b) + 1] -
                                     first),
                     stride);
  }
  auto& rng = ctx.run->rng();
  for (std::int64_t b = 1; b < blocks; ++b) {
    // The b-1 preceding aggregates arrive in scheduler order.
    const std::vector<std::size_t> order =
        util::random_permutation(static_cast<std::size_t>(b), rng);
    offset[static_cast<std::size_t>(b)] =
        fold.sum_gather(aggregate.data(), order.data(), order.size());
  }

  for (std::int64_t b = 0; b < blocks; ++b) {
    T acc = offset[static_cast<std::size_t>(b)];
    for (std::int64_t i = begin[static_cast<std::size_t>(b)];
         i < begin[static_cast<std::size_t>(b) + 1]; ++i) {
      acc = static_cast<T>(acc + at(i));
      at(i) = acc;
    }
  }
}

}  // namespace

template <typename T>
Tensor<T> cumsum(const Tensor<T>& self, std::int64_t dim, const OpContext& ctx,
                 std::size_t scan_blocks) {
  if (dim < 0 || dim >= self.dim()) {
    throw std::out_of_range("cumsum: dim out of range");
  }
  // One rule regardless of tensor shape or determinism path: the binned
  // accumulator buffers its whole input and re-reduces on every result()
  // call, which would make the streaming prefix O(length^2). Refuse
  // loudly; the superaccumulator gives the same reproducibility in
  // O(length).
  if (ctx.reduction_in_effect().algorithm == fp::AlgorithmId::kBinned) {
    throw std::invalid_argument(
        "cumsum: the binned accumulator cannot stream a prefix scan; "
        "use superaccumulator for a reproducible cumsum");
  }
  Tensor<T> out = self;
  const std::int64_t length = self.size(dim);
  if (length == 0) return out;
  const std::int64_t stride = self.stride(dim);

  // Enumerate all lines along `dim`: outer x inner decomposition.
  std::int64_t outer = 1;
  for (std::int64_t d = 0; d < dim; ++d) outer *= self.size(d);
  std::int64_t inner = 1;
  for (std::int64_t d = dim + 1; d < self.dim(); ++d) inner *= self.size(d);

  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < inner; ++i) {
      const std::int64_t start = o * length * inner + i;
      scan_line<T>(out.data(), start, stride, length, ctx, scan_blocks);
    }
  }
  return out;
}

template Tensor<float> cumsum<float>(const Tensor<float>&, std::int64_t,
                                     const OpContext&, std::size_t);
template Tensor<double> cumsum<double>(const Tensor<double>&, std::int64_t,
                                       const OpContext&, std::size_t);

}  // namespace fpna::tensor
