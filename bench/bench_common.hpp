#pragma once
// Shared helpers for the experiment harnesses: seeded data generation,
// the standard CLI contract (--runs, --size, --seed, --full, --csv,
// --json=<path>, --trace=<path>, --provenance=<path>) and the
// machine-readable JSON emitter behind the CI determinism gate. Bit
// columns are obs::Fingerprint values printed with obs::hex64.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fpna/obs/recorder.hpp"
#include "fpna/util/cli.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/table.hpp"

namespace fpna::bench {

inline std::vector<double> uniform_array(std::size_t n, double lo, double hi,
                                         std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

inline std::vector<double> normal_array(std::size_t n, double mean,
                                        double sigma, std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  util::Normal dist(mean, sigma);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// ------------------------------------------------------ JSON emitter -----

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* digits = "0123456789abcdef";
          out += "\\u00";
          out += digits[(c >> 4) & 0xf];
          out += digits[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct NamedTable {
  std::string name;
  const util::Table* table = nullptr;
};

/// The machine a dump was measured on - CPU model, logical cores,
/// compiler and build type - so a committed snapshot's timing columns
/// carry their context. Emitted as the dump's "host" object.
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    const auto start = colon == std::string::npos
                           ? colon
                           : line.find_first_not_of(' ', colon + 1);
    if (line.rfind("model name", 0) == 0 && start != std::string::npos) {
      cpu = line.substr(start);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef FPNA_BUILD_TYPE
  const std::string build_type = FPNA_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  return "{\"cpu\": \"" + json_escape(cpu) + "\", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + json_escape(compiler) +
         "\", \"build_type\": \"" + json_escape(build_type) + "\"}";
}

/// Writes the bench's tables as one JSON document:
///   {"bench": <name>, "host": {"cpu", "cores", "compiler", "build_type"},
///    "tables": [{"name", "headers", "rows"}, ...]}
/// scripts/bench_json_diff.py compares the bit-pattern columns (headers
/// containing "bits" or "ulps") of rows whose reproducibility column
/// ("reproducible" / "run-to-run stable") reads "yes" across two dumps.
inline void write_json(const std::string& path, const std::string& bench_name,
                       const std::vector<NamedTable>& tables) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_json: cannot open " + path);
  const auto emit_strings = [&out](const std::vector<std::string>& values) {
    out << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << json_escape(values[i]) << '"';
    }
    out << "]";
  };
  out << "{\n  \"bench\": \"" << json_escape(bench_name)
      << "\",\n  \"host\": " << host_json() << ",\n  \"tables\": [";
  for (std::size_t t = 0; t < tables.size(); ++t) {
    out << (t == 0 ? "" : ",") << "\n    {\n      \"name\": \""
        << json_escape(tables[t].name) << "\",\n      \"headers\": ";
    emit_strings(tables[t].table->headers());
    out << ",\n      \"rows\": [";
    const auto& rows = tables[t].table->row_data();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      out << (r == 0 ? "" : ",") << "\n        ";
      emit_strings(rows[r]);
    }
    out << (rows.empty() ? "]" : "\n      ]") << "\n    }";
  }
  out << (tables.empty() ? "]" : "\n  ]") << "\n}\n";
  if (!out) throw std::runtime_error("write_json: write failed: " + path);
}

// ------------------------------------------------------ observability ----

/// The --trace=<file> / --provenance=<file> contract shared by the bench
/// harnesses. Either flag attaches an obs::Recorder (recorder() != nullptr)
/// that the harness threads through the EvalContexts of its *correctness*
/// passes - timing loops stay untraced so instrumentation never skews the
/// numbers being measured. finish() writes whichever outputs were
/// requested; two provenance dumps of a reproducible configuration feed
/// scripts/trace_divergence.py (the CI trace gate).
class ObsOptions {
 public:
  explicit ObsOptions(const util::Cli& cli)
      : trace_path_(cli.text("trace", "")),
        provenance_path_(cli.text("provenance", "")) {
    if (!trace_path_.empty() || !provenance_path_.empty()) {
      recorder_ = std::make_unique<obs::Recorder>();
    }
  }

  obs::Recorder* recorder() const noexcept { return recorder_.get(); }
  bool enabled() const noexcept { return recorder_ != nullptr; }

  /// Rows of the recorder's metrics registry as a printable/JSON-able
  /// table (empty table when tracing is off).
  util::Table metrics_table() const {
    util::Table table({"metric", "type", "value", "samples"});
    if (recorder_ != nullptr) {
      for (const auto& row : recorder_->metrics().snapshot()) {
        table.add_row({row.name, row.type, row.value, row.count});
      }
    }
    return table;
  }

  /// Writes the Chrome trace and/or provenance JSONL the flags asked for.
  void finish() const {
    if (recorder_ == nullptr) return;
    if (!trace_path_.empty()) {
      recorder_->write_chrome_trace(trace_path_);
      std::cerr << "trace: " << recorder_->event_count() << " events -> "
                << trace_path_ << "\n";
    }
    if (!provenance_path_.empty()) {
      recorder_->write_provenance_jsonl(provenance_path_);
      std::cerr << "provenance: " << recorder_->provenance_count()
                << " records -> " << provenance_path_ << "\n";
    }
  }

 private:
  std::string trace_path_;
  std::string provenance_path_;
  std::unique_ptr<obs::Recorder> recorder_;
};

/// Warns about unknown flags (after all lookups) and returns the count.
inline int warn_unconsumed(const util::Cli& cli) {
  const auto leftover = cli.unconsumed();
  for (const auto& name : leftover) {
    std::cerr << "warning: unknown flag --" << name << "\n";
  }
  return static_cast<int>(leftover.size());
}

}  // namespace fpna::bench
