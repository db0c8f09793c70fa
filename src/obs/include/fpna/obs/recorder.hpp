#pragma once
// Run-wide observability: structured trace events (Chrome trace_event
// JSON, Perfetto-loadable), bit-provenance records (deterministic
// provenance.jsonl for the first-divergence localizer) and the metrics
// registry, behind one Recorder that rides core::EvalContext as a
// nullable pointer. Null recorder == today's bits: every instrumentation
// site is a branch on `ctx.recorder != nullptr` and nothing else.
//
// Threading model. Each (recorder, thread) pair owns a shard; appends
// take only that shard's uncontended mutex, so pool workers never
// serialise against each other. Trace timestamps come from obs::now_ns()
// (one process-wide monotonic epoch), so spans from different threads
// land on one timeline.
//
// Provenance determinism. Trace events carry wall-clock and thread ids -
// two identical runs produce *different* trace files, and that is fine;
// traces are for humans. Provenance records are the diffable artifact:
// each carries a logical coordinate (site, kind, index, sub_index), the
// reduction spec string, the result fingerprint, plus recorder-stamped
// (frame, scope, per-thread seq). The canonical order sorts on
// (frame, scope, site, kind, index, sub_index, seq, bits) - every field
// is logical, none is wall-clock or OS-thread-id - so two bit-identical
// runs emit byte-identical provenance.jsonl no matter how the pool
// scheduled the work. Instrumentation keeps seq deterministic by
// emitting pooled-chunk records from the calling thread in chunk order
// (workers hand fingerprints back through pre-sized caller storage).

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fpna/obs/metrics.hpp"

namespace fpna::obs {

// ------------------------------------------------- bit fingerprints -----

/// FNV-1a 64-bit over value bit patterns. The bench tables' "bits"
/// columns use it too, so a provenance "bits" field and a bench table
/// "bits" cell computed over the same buffer agree exactly.
class Fingerprint {
 public:
  void feed(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void feed(double x) noexcept;
  void feed(float x) noexcept;
  template <typename T>
  void feed(std::span<const T> values) noexcept {
    for (const T v : values) feed(v);
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

/// 16-digit lowercase hex - the form provenance.jsonl carries.
std::string hex64(std::uint64_t bits);

// ------------------------------------------------------ trace events ----

/// One typed payload entry ("rows": 512). Numbers are pre-formatted but
/// emitted unquoted so Perfetto can aggregate them.
struct TraceArg {
  std::string key;
  std::string text;
  bool is_number = false;
};

struct TraceEvent {
  enum class Phase : std::uint8_t { kComplete, kInstant };
  std::string name;
  Phase phase = Phase::kComplete;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;  // instants: 0
  std::vector<TraceArg> args;
};

// ------------------------------------------------- provenance records ---

/// The caller-supplied part: a logical coordinate plus the bits observed
/// there. index/sub_index give each record a stable address inside its
/// site (chunk index, bucket id, (wire step, receiver), ...); -1 marks
/// an unused axis.
struct ProvenanceRecord {
  std::string site;  // "reduce.cpu_sum", "comm.wire", ...
  std::string kind;  // "chunk", "result", "bucket", "wire_step", ...
  std::int64_t index = -1;
  std::int64_t sub_index = -1;
  std::string spec;  // fp::to_string(ReductionSpec) when one applies
  std::uint64_t bits = 0;
  std::uint64_t elements = 0;
};

/// A record plus the recorder-stamped logical position.
struct StampedProvenance {
  std::uint64_t frame = 0;
  std::string scope;
  std::uint64_t seq = 0;  // per-(thread, frame) emission index
  ProvenanceRecord record;
};

/// Canonical provenance order: (frame, scope, site, kind, index,
/// sub_index, seq, bits). Strict-weak; used for the jsonl and by tests.
bool provenance_less(const StampedProvenance& a, const StampedProvenance& b);

// ------------------------------------------------------------ recorder --

class Recorder;

/// RAII span: captures start on construction, appends a complete event
/// on destruction. Null recorder makes every member a no-op.
class Span {
 public:
  Span(Recorder* recorder, std::string_view name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, std::uint64_t value);
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::string_view value);

 private:
  Recorder* recorder_;
  TraceEvent event_;
};

/// Pushes a logical scope segment ("bucket/3") onto this thread's scope
/// stack for the guard's lifetime. Provenance emitted concurrently from
/// two bucket firings lands under distinct scopes, which is what keeps
/// the canonical sort collision-free.
class ScopeGuard {
 public:
  explicit ScopeGuard(std::string_view segment);
  ~ScopeGuard();
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;
};

/// Joined current scope stack for this thread ("a/b"); "" at top level.
std::string current_scope();

class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // ---- trace --------------------------------------------------------
  void emit(TraceEvent&& event);
  void instant(std::string_view name, std::vector<TraceArg> args = {});

  // ---- provenance ---------------------------------------------------
  void provenance(ProvenanceRecord record);

  /// Starts a new logical frame (per-thread seq counters restart at the
  /// next emission). Call between repeated invocations of the same
  /// kernel so their records don't collide on every sort key.
  void advance_frame() noexcept;
  std::uint64_t frame() const noexcept;

  // ---- metrics ------------------------------------------------------
  Metrics& metrics() noexcept { return metrics_; }
  const Metrics& metrics() const noexcept { return metrics_; }

  // ---- reports ------------------------------------------------------
  std::size_t event_count() const;
  std::size_t provenance_count() const;
  std::vector<TraceEvent> events() const;
  /// All stamped records in canonical order.
  std::vector<StampedProvenance> sorted_provenance() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}) - load in
  /// chrome://tracing or https://ui.perfetto.dev.
  void write_chrome_trace(const std::string& path) const;
  /// One record per line, canonical order - the localizer's input.
  void write_provenance_jsonl(const std::string& path) const;

 private:
  struct Shard;
  Shard& local_shard();

  const std::uint64_t id_;  // distinguishes recorders in the TLS cache
  mutable std::mutex shards_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> frame_{0};
  Metrics metrics_;
};

}  // namespace fpna::obs
