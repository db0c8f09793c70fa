#include "fpna/fp/reduction_spec.hpp"

#include <stdexcept>

#include "fpna/fp/simd.hpp"

namespace fpna::fp {

namespace {

std::string lane_counts_list() {
  std::string out;
  for (const std::size_t l : kSimdLaneCounts) {
    if (!out.empty()) out += ", ";
    out += std::to_string(l);
  }
  return out;
}

/// Parses a "simd<L>" token (the text between '@' and the first ':').
/// Unknown counts throw listing the valid set, so "kahan@simd3" is as
/// self-explaining as a typo'd algorithm or dtype key.
std::uint8_t parse_simd_lanes(std::string_view token) {
  const std::string_view digits = token.substr(4);  // past "simd"
  std::size_t lanes = 0;
  bool ok = !digits.empty() && digits.size() <= 3;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    lanes = lanes * 10 + static_cast<std::size_t>(c - '0');
  }
  if (!ok || !simd_lane_count_supported(lanes)) {
    throw std::invalid_argument(
        "bad SIMD lane token '" + std::string(token) +
        "'; lane-blocked specs are <algorithm>@simd<L> with L in {" +
        lane_counts_list() + "} (e.g. kahan@simd8, kahan@simd8:bf16:f32)");
  }
  return static_cast<std::uint8_t>(lanes);
}

}  // namespace

const AlgorithmInfo& algorithm_named(std::string_view name) {
  for (const AlgorithmInfo& row : kAlgorithms) {
    if (row.name == name) return row;
  }
  std::string message = "unknown accumulator '" + std::string(name) +
                        "'; registered:";
  for (const AlgorithmInfo& row : kAlgorithms) {
    message += ' ';
    message += row.name;
  }
  message +=
      " (each also accepts @simd<L> lane-blocked variants, L in {1, 4, 8, "
      "16}, and @<storage>[:<accumulate>] dtype qualifiers, e.g. "
      "kahan@simd8:bf16:f32)";
  throw std::invalid_argument(message);
}

const AlgorithmTraits& traits_of(AlgorithmId id) {
  const std::size_t row = detail::row_of(id);
  if (row < kNumAlgorithms) return kAlgorithms[row].traits;
  throw std::invalid_argument("traits_of: AlgorithmId outside the enum");
}

std::string to_string(const ReductionSpec& spec) {
  std::string out = to_string(spec.algorithm);
  if (spec.native() && !spec.lane_blocked()) return out;
  out += '@';
  if (spec.lane_blocked()) {
    out += "simd";
    out += std::to_string(static_cast<std::size_t>(spec.lanes));
    if (!spec.native()) out += ':';
  }
  if (!spec.native()) {
    out += to_string(spec.storage);
    out += ':';
    out += to_string(spec.accumulate);
  }
  return out;
}

ReductionSpec parse_reduction_spec(std::string_view name) {
  ReductionSpec spec;
  const std::size_t at = name.find('@');
  // The algorithm key validates against the catalogue: algorithm_named()
  // throws listing every name, so a typo'd "kahann@bf16:f32" is
  // self-explaining.
  spec.algorithm = algorithm_named(name.substr(0, at)).id;
  if (at == std::string_view::npos) return spec;

  std::string_view rest = name.substr(at + 1);
  // Optional leading lane token: "<algo>@simd<L>[:<dtypes>]". No dtype
  // key starts with "simd", so the prefix is unambiguous.
  if (rest.substr(0, 4) == "simd") {
    const std::size_t colon = rest.find(':');
    spec.lanes = parse_simd_lanes(rest.substr(0, colon));
    if (colon == std::string_view::npos) return spec;
    rest = rest.substr(colon + 1);
  }

  const std::size_t colon = rest.find(':');
  spec.storage = parse_dtype(rest.substr(0, colon));
  // "<algo>@<dtype>" means storage and accumulate both at <dtype> - the
  // pure-precision (no mixed accumulation) reading.
  spec.accumulate = colon == std::string_view::npos
                        ? spec.storage
                        : parse_dtype(rest.substr(colon + 1));
  return spec;
}

}  // namespace fpna::fp
