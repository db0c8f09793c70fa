#include "fpna/fp/accumulator.hpp"

#include <algorithm>

namespace fpna::fp {

namespace detail {
// One algorithm's fold tables; instantiated, one algorithm per TU, in
// fold_<algorithm>.cpp.
template <typename Tag, typename N>
const Fold<N>& fold_tables(const ReductionSpec& spec);
}  // namespace detail

template <typename N>
const Fold<N>& Fold<N>::of(const ReductionSpec& spec) {
  return visit_algorithm(spec.algorithm, [&](auto tag) -> const Fold<N>& {
    return detail::fold_tables<decltype(tag), N>(spec);
  });
}
template <typename N>
void Fold<N>::sum_each(std::span<const N* const> runs, std::size_t count,
                       N* out) const {
  constexpr std::size_t kBlock = 256;  // states live per block
  for (std::size_t i = 0; i < count; i += kBlock) {
    const std::size_t len = std::min(kBlock, count - i);
    FoldStates<N> states(*this, len);
    for (const N* run : runs) add_each(states[0], run + i, len);
    results(states[0], out + i, len);
  }
}

template struct Fold<float>;
template struct Fold<double>;

template <typename T>
T reduce(const ReductionSpec& spec, std::span<const T> values) {
  return Fold<T>::of(spec).reduce(values);
}
template float reduce<float>(const ReductionSpec&, std::span<const float>);
template double reduce<double>(const ReductionSpec&, std::span<const double>);

}  // namespace fpna::fp
