#include "fpna/fp/dtype.hpp"

#include <stdexcept>
#include <type_traits>

#include "fpna/fp/bf16.hpp"

namespace fpna::fp {

const char* to_string(Dtype dtype) noexcept {
  switch (dtype) {
    case Dtype::kNative: return "native";
    case Dtype::kF64: return "f64";
    case Dtype::kF32: return "f32";
    case Dtype::kBf16: return "bf16";
  }
  return "?";
}

std::string dtype_keys() {
  return "native f64 (alias: double) f32 (alias: float) bf16";
}

Dtype parse_dtype(std::string_view name) {
  if (name == "native") return Dtype::kNative;
  if (name == "f64" || name == "double") return Dtype::kF64;
  if (name == "f32" || name == "float") return Dtype::kF32;
  if (name == "bf16") return Dtype::kBf16;
  throw std::invalid_argument("unknown dtype '" + std::string(name) +
                              "'; valid: " + dtype_keys());
}

template <typename T>
void round_to(Dtype dtype, std::span<T> values) {
  if (dtype == Dtype::kBf16) {
    for (T& v : values) {
      v = static_cast<T>(static_cast<float>(bf16(static_cast<float>(v))));
    }
  } else if (dtype == Dtype::kF32 && std::is_same_v<T, double>) {
    for (T& v : values) v = static_cast<T>(static_cast<float>(v));
  }
}

template void round_to<float>(Dtype, std::span<float>);
template void round_to<double>(Dtype, std::span<double>);

}  // namespace fpna::fp
