#include "fpna/reduce/block_sum.hpp"

#include <algorithm>
#include <stdexcept>

#include "fpna/fp/fold.hpp"

namespace fpna::reduce {

double tree_sum(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::size_t m = 1;
  while (m < values.size()) m *= 2;
  std::vector<double> v(m, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) v[i] = values[i];
  for (std::size_t offset = m / 2; offset > 0; offset /= 2) {
    for (std::size_t i = 0; i < offset; ++i) v[i] += v[i + offset];
  }
  return v[0];
}

double block_partial_sum(std::span<const double> data, std::size_t block_id,
                         std::size_t nt, std::size_t nb,
                         const fp::ReductionSpec& accumulator) {
  if (nt == 0 || nb == 0) {
    throw std::invalid_argument("block_partial_sum: empty launch");
  }
  const std::size_t stride = nt * nb;
  // Thread t's grid-stride stream, data[block_id * nt + t + k * stride]
  // for k = 0, 1, ..., runs at the spec's accumulate dtype over
  // storage-quantized elements in its own state: row k of the block is nt
  // contiguous elements (the last row may be short). The rounded thread
  // values then meet in the block's double halving tree exactly as before
  // (the tree models the shared-memory combine, which on real hardware is
  // not dtype-selectable per element).
  const fp::Fold<double>& fold = fp::Fold<double>::of(accumulator);
  fp::FoldStates<double> threads(fold, nt);
  for (std::size_t row = block_id * nt; row < data.size(); row += stride) {
    fold.add_each(threads[0], data.data() + row,
                  std::min(nt, data.size() - row));
  }
  std::vector<double> thread_vals(nt, 0.0);
  fold.results(threads[0], thread_vals.data(), nt);
  return tree_sum(thread_vals);
}

std::vector<double> all_block_partials(std::span<const double> data,
                                       std::size_t nt, std::size_t nb,
                                       const fp::ReductionSpec& accumulator) {
  std::vector<double> partials(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    partials[b] = block_partial_sum(data, b, nt, nb, accumulator);
  }
  return partials;
}

}  // namespace fpna::reduce
