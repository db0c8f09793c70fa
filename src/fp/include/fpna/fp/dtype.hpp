#pragma once
// The dtype axis of the reduction API (paper SV: the DL results hinge on
// low-precision storage with higher-precision accumulation, as on GPU
// tensor cores). Split from the accumulation layer so that light-weight
// context headers (core::EvalContext and everything layered on it) can
// name a dtype without compiling the whole accumulation layer.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace fpna::fp {

/// Element dtypes a reduction can store or accumulate in. kNative means
/// "the kernel's own element type" (double for the reduce/collective/
/// tensor layers, float for the dense dl kernels): no quantization, no
/// precision change - the default that reproduces seed bits everywhere.
enum class Dtype : std::uint8_t {
  kNative = 0,
  kF64,
  kF32,
  kBf16,
};

/// Canonical CLI key: "native", "f64", "f32", "bf16".
const char* to_string(Dtype dtype) noexcept;

/// Parses a dtype key ("f64"/"double", "f32"/"float", "bf16", "native");
/// throws std::invalid_argument listing the valid keys.
Dtype parse_dtype(std::string_view name);

/// The valid keys, for error messages and --help text.
std::string dtype_keys();

/// Rounds every value to `dtype` in place: a no-op for kNative and for a
/// dtype at least as wide as T; bf16 rounds through binary32, as its
/// conversions do everywhere in the accumulation layer.
template <typename T>
void round_to(Dtype dtype, std::span<T> values);

/// The Dtype naming a concrete element type (unspecialised: no mapping).
template <typename T>
struct dtype_of;

template <>
struct dtype_of<double> {
  static constexpr Dtype value = Dtype::kF64;
};
template <>
struct dtype_of<float> {
  static constexpr Dtype value = Dtype::kF32;
};

template <typename T>
inline constexpr Dtype dtype_of_v = dtype_of<T>::value;

}  // namespace fpna::fp
