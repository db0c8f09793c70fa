#pragma once
// The toolkit's analogue of torch.use_deterministic_algorithms (paper SIV):
// a process-wide switch that forces every op onto its deterministic
// implementation. Ops that have no deterministic implementation raise
// instead - mirroring the RuntimeError the paper reports receiving from
// PyTorch for scatter_reduce, which is precisely the kind of
// documentation/behaviour gap SIV calls out.
//
// Lives in core (not tensor) so that every layer that consults an
// EvalContext - reduce, collective, tensor, dl - shares the one switch.

#include <stdexcept>
#include <string>

namespace fpna::core {

class DeterminismContext {
 public:
  /// Globally request deterministic implementations (default: false).
  static void use_deterministic_algorithms(bool enabled) noexcept {
    deterministic_ = enabled;
  }
  static bool deterministic() noexcept { return deterministic_; }

 private:
  inline static bool deterministic_ = false;
};

/// RAII scope guard for the global switch.
class DeterminismGuard {
 public:
  explicit DeterminismGuard(bool enabled) noexcept
      : previous_(DeterminismContext::deterministic()) {
    DeterminismContext::use_deterministic_algorithms(enabled);
  }
  ~DeterminismGuard() {
    DeterminismContext::use_deterministic_algorithms(previous_);
  }
  DeterminismGuard(const DeterminismGuard&) = delete;
  DeterminismGuard& operator=(const DeterminismGuard&) = delete;

 private:
  bool previous_;
};

/// Thrown when deterministic mode is on but an op only has a
/// non-deterministic implementation for the requested configuration.
class NoDeterministicImplementation : public std::runtime_error {
 public:
  explicit NoDeterministicImplementation(const std::string& op)
      : std::runtime_error(op +
                           " does not have a deterministic implementation; "
                           "see DeterminismContext::use_deterministic_"
                           "algorithms") {}
};

}  // namespace fpna::core
