#include "fpna/fp/accumulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace fpna::fp {

const char* to_string(AlgorithmId id) noexcept {
  switch (id) {
    case AlgorithmId::kSerial: return "serial";
    case AlgorithmId::kPairwise: return "pairwise";
    case AlgorithmId::kKahan: return "kahan";
    case AlgorithmId::kNeumaier: return "neumaier";
    case AlgorithmId::kKlein: return "klein";
    case AlgorithmId::kDoubleDouble: return "double_double";
    case AlgorithmId::kVectorized: return "vectorized";
    case AlgorithmId::kBinned: return "binned";
    case AlgorithmId::kSuperaccumulator: return "superaccumulator";
  }
  return "?";
}

const AlgorithmTraits& traits_of(AlgorithmId id) {
  return visit_algorithm(
      id, [](auto tag) -> const AlgorithmTraits& { return decltype(tag)::traits; });
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry;
  return registry;
}

void AlgorithmRegistry::register_algorithm(Entry entry) {
  for (const Entry& existing : entries_) {
    if (existing.name == entry.name || existing.id == entry.id) {
      throw std::invalid_argument("AlgorithmRegistry: duplicate entry '" +
                                  entry.name + "'");
    }
  }
  entries_.push_back(std::move(entry));
}

const AlgorithmRegistry::Entry* AlgorithmRegistry::find(
    std::string_view name) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const AlgorithmRegistry::Entry& AlgorithmRegistry::at(
    std::string_view name) const {
  if (const Entry* entry = find(name)) return *entry;
  std::string message = "unknown accumulator '" + std::string(name) +
                        "'; registered:";
  for (const Entry& entry : entries_) message += " " + entry.name;
  message +=
      " (each also accepts @simd<L> lane-blocked variants, L in {1, 4, 8, "
      "16}, and @<storage>[:<accumulate>] dtype qualifiers, e.g. "
      "kahan@simd8:bf16:f32)";
  throw std::invalid_argument(message);
}

const AlgorithmRegistry::Entry& AlgorithmRegistry::at(AlgorithmId id) const {
  for (const Entry& entry : entries_) {
    if (entry.id == id) return entry;
  }
  throw std::invalid_argument(std::string("unregistered accumulator id '") +
                              to_string(id) + "'");
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.name);
  return out;
}

double AlgorithmRegistry::sum(std::string_view name,
                              std::span<const double> values) {
  // One lookup/throw path for every name-driven surface: the spec parser
  // resolves the algorithm through at() (unknown names list the
  // registered keys) and the dtypes through parse_dtype (unknown dtypes
  // list the valid keys); reduce() then dispatches. Bare names resolve to
  // a native spec, whose double path is the historic free function.
  return reduce<double>(parse_reduction_spec(name), values);
}

namespace detail {
AlgorithmRegistrar::AlgorithmRegistrar(AlgorithmRegistry::Entry entry) {
  AlgorithmRegistry::instance().register_algorithm(std::move(entry));
}

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

// The nine built-ins. Registration order is the canonical bench/table row
// order: cheap & order-sensitive first, reproducible last.
FPNA_REGISTER_ACCUMULATOR(serial, "serial", tags::Serial,
                          "left-to-right recursive sum")
FPNA_REGISTER_ACCUMULATOR(pairwise, "pairwise", tags::Pairwise,
                          "cascade (pairwise) sum, base block 32")
FPNA_REGISTER_ACCUMULATOR(vectorized, "vectorized", tags::Vectorized,
                          "4-lane strided partials, like a vectorised loop")
FPNA_REGISTER_ACCUMULATOR(kahan, "kahan", tags::Kahan,
                          "Kahan compensated sum")
FPNA_REGISTER_ACCUMULATOR(neumaier, "neumaier", tags::Neumaier,
                          "Neumaier compensated sum")
FPNA_REGISTER_ACCUMULATOR(klein, "klein", tags::Klein,
                          "Klein second-order compensated sum")
FPNA_REGISTER_ACCUMULATOR(double_double, "double_double", tags::DoubleDoubleTag,
                          "double-double (~106-bit) accumulation")
FPNA_REGISTER_ACCUMULATOR(binned, "binned", tags::Binned,
                          "Demmel-Nguyen binned reproducible sum")
FPNA_REGISTER_ACCUMULATOR(superaccumulator, "superaccumulator", tags::Super,
                          "exact long-accumulator reproducible sum")

}  // namespace fpna::fp
