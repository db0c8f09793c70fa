// fpna_perfbench: runs one benchmark workload and prints its metrics.
//
//   fpna_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>] [--expect-fingerprint <hex>]
//                  [--corrupt-op <i>] [--dump-inputs]
//
// Untraced (--trace 0): sets the workload up several times (setup_s is the
// median), warms it up, then runs seeded ops for --seconds through the
// library's entry points, times those within the host-steal cutoff
// (harness.hpp) and prints the end-to-end metrics. Traced
// (--trace 1): alternates library ops with the same ops decomposed into
// the public calls they are made of, with spans on, plus a shorter traced
// pass of every other workload, and prints the per-layer metrics of all
// four.
// Every op's output is checked; the last stdout line is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// --corrupt-op flips one bit of that op's output before its check, and
// --dump-inputs prints the digest of the generated inputs and exits; the
// benchmark's tests use both.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fpna/fp/simd.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/stats/descriptive.hpp"
#include "harness.hpp"

namespace {

using perfbench::Measurement;
using perfbench::MetricList;
using perfbench::RunPlan;
using perfbench::Tracer;
using perfbench::Workload;

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)();
};
constexpr WorkloadEntry kWorkloads[] = {
    {"infer-nd", perfbench::make_infer_nd},
    {"train-ddp", perfbench::make_train_ddp},
    {"serve-closed", perfbench::make_serve_closed},
    {"sum-sweep", perfbench::make_sum_sweep},
};

/// setup_s is the median of repeated setups: at least kMinSetups, and
/// more until kSetupSeconds have passed.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupSeconds = 1.0;
constexpr double kWarmupSeconds = 0.3;
/// Spans per workload written to --trace-out (a serving run records
/// hundreds of thousands; the first ones show the same structure).
constexpr std::size_t kTraceFileSpans = 20000;
/// Share of a traced run spent on its own workload; the other three
/// share the rest.
constexpr double kOwnTraceShare = 0.55;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  std::string expect_fingerprint;
  std::int64_t corrupt_op = -1;
  bool dump_inputs = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--dump-inputs") {
      o.dump_inputs = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = std::stoi(value);
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else if (key == "--expect-fingerprint") {
      o.expect_fingerprint = value;
    } else if (key == "--corrupt-op") {
      o.corrupt_op = std::stoll(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (!o.dump_inputs && (o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1))) {
    throw std::invalid_argument("need --seconds > 0 and --trace 0|1");
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_host() {
  const auto& simd = fpna::fp::simd_support();
  const char* force = std::getenv("FPNA_FORCE_SCALAR_SIMD");
  std::cout << "{\"host\": {\"cpu\": " << json_string(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"isa\": \""
            << (simd.avx512f ? "avx512f" : simd.avx2 ? "avx2" : "scalar")
            << "\", \"force_scalar_simd\": "
            << (force != nullptr && *force != '\0' && std::string(force) != "0"
                    ? "true"
                    : "false")
            << ", \"compiler\": " << json_string(__VERSION__)
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}}\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricList& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Lets caches fill and lazy set-up finish before anything is timed.
void warm_up(Workload& w, Tracer* tracer, Measurement& total) {
  RunPlan plan;
  plan.seconds = kWarmupSeconds;
  plan.min_ops = 2;
  const Measurement m = w.measure(plan, tracer);
  total.attempted += m.attempted;
  total.failed += m.failed;
}

int run(const Options& o) {
  std::size_t own = std::size(kWorkloads);
  for (std::size_t k = 0; k < std::size(kWorkloads); ++k) {
    if (o.workload == kWorkloads[k].name) own = k;
  }
  if (own == std::size(kWorkloads)) {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  std::unique_ptr<Workload> w = kWorkloads[own].make();

  if (o.dump_inputs) {
    w->setup(o.seed);
    std::cout << "{\"input_digest\": \""
              << fpna::obs::hex64(w->input_digest()) << "\"}" << std::endl;
    return 0;
  }

  print_host();
  RunPlan plan;
  plan.seconds = o.seconds;
  plan.corrupt_op = o.corrupt_op;
  Measurement total;
  MetricList metrics;

  if (o.trace == 0) {
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < kMinSetups || setup_total < kSetupSeconds) {
      const std::uint64_t t0 = fpna::obs::now_ns();
      w->setup(o.seed);
      setup_s.push_back(double(fpna::obs::now_ns() - t0) * 1e-9);
      setup_total += setup_s.back();
    }
    warm_up(*w, nullptr, total);
    const Measurement m = w->measure(plan, nullptr);
    total.attempted += m.attempted;
    total.failed += m.failed;
    metrics.push_back(
        {"ops_per_s", double(m.timed_ops) / m.timed_s, "1/s"});
    metrics.push_back({"op_p50_us", m.op_us.quantile(0.50), "us"});
    metrics.push_back({"op_p99_us", m.p99_us(), "us"});
    metrics.push_back({"setup_s", fpna::stats::quantile(std::span<const double>(setup_s), 0.50), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    std::cout << "{\"ops_run\": " << m.attempted << ", \"timed_ops\": "
              << m.timed_ops << ", \"host_steal_pct\": " << m.steal_pct
              << "}\n";
  } else {
    std::vector<std::unique_ptr<Workload>> all(std::size(kWorkloads));
    std::vector<Tracer> tracers(std::size(kWorkloads));
    all[own] = std::move(w);
    Workload& mine = *all[own];
    mine.setup(o.seed);
    warm_up(mine, &tracers[own], total);
    tracers[own] = Tracer{};
    RunPlan own_plan = plan;
    own_plan.seconds = o.seconds * kOwnTraceShare;
    const Measurement m = mine.measure(own_plan, &tracers[own]);
    total.attempted += m.attempted;
    total.failed += m.failed;
    mine.probe(tracers[own]);

    RunPlan other_plan;
    other_plan.seconds = o.seconds * (1.0 - kOwnTraceShare) /
                         double(std::size(kWorkloads) - 1);
    other_plan.min_ops = 4;
    for (std::size_t k = 0; k < std::size(kWorkloads); ++k) {
      if (k == own) continue;
      all[k] = kWorkloads[k].make();
      all[k]->setup(o.seed);
      warm_up(*all[k], &tracers[k], total);
      tracers[k] = Tracer{};
      const Measurement mk = all[k]->measure(other_plan, &tracers[k]);
      total.attempted += mk.attempted;
      total.failed += mk.failed;
      all[k]->probe(tracers[k]);
    }
    for (std::size_t k = 0; k < std::size(kWorkloads); ++k) {
      all[k]->layer_metrics(tracers[k], metrics);
    }
    const double traced = m.traced_us.quantile(0.50);
    const double untraced = m.op_us.quantile(0.50);
    metrics.push_back(
        {"trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%"});
    metrics.push_back(
        {"trace.coverage_pct", tracers[own].coverage("op") * 100.0, "%"});

    if (!o.trace_out.empty()) {
      std::ofstream out(o.trace_out);
      out << "{\"traceEvents\": [";
      bool first = true;
      for (std::size_t k = 0; k < std::size(kWorkloads); ++k) {
        tracers[k].write_chrome(out, static_cast<int>(k), kTraceFileSpans, first);
      }
      out << "\n]}\n";
      if (!out) throw std::runtime_error("cannot write " + o.trace_out);
    }
    w = std::move(all[own]);
  }

  bool correct = total.failed == 0;
  const std::string fingerprint = w->output_fingerprint();
  if (!fingerprint.empty()) {
    std::cout << "{\"output_fingerprint\": \"" << fingerprint << "\"}\n";
    if (!o.expect_fingerprint.empty() && fingerprint != o.expect_fingerprint) {
      std::cerr << "fpna_perfbench: output fingerprint " << fingerprint
                << " differs from the recorded " << o.expect_fingerprint
                << "\n";
      correct = false;
    }
  }
  print_result(correct, total.attempted, total.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "fpna_perfbench: refusing to report from a build with "
               "assertions on (build type "
            << PERFBENCH_BUILD_TYPE << "); configure with Release\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "fpna_perfbench: refusing to report from a "
              << PERFBENCH_BUILD_TYPE << " build; configure with Release\n";
    return 2;
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "fpna_perfbench: " << e.what() << "\n";
    return 2;
  }
}
