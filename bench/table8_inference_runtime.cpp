// Reproduces Table 8: GraphSAGE inference runtime, deterministic vs
// non-deterministic kernels on the H100 profile, and the statically
// scheduled Groq LPU model. GPU numbers come from the device cost model
// (framework dispatch + aggregation kernels, calibrated at Cora scale);
// the LPU number is the fixed cycle count of the compiled program. The
// harness also verifies the determinism claims by executing the actual
// inference kernels under the selected ReductionSpec.
//
// Flags: --seed --full --csv --json=<path>
//        --accumulator=<spec>  (executed determinism check's reduction
//                               spec, e.g. kahan@simd8:bf16:f32; the
//                               registry grammar of fp::ReductionSpec)

#include <iostream>

#include "bench_common.hpp"
#include "fpna/core/metrics.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/sim/lpu.hpp"
#include "fpna/util/table.hpp"

using namespace fpna;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const bool csv = cli.flag("csv");
  const std::string json_path = cli.text("json", "");
  const fp::ReductionSpec spec =
      fp::parse_reduction_spec(cli.text("accumulator", "serial"));

  // Timing is evaluated at paper (Cora) scale regardless of --full; the
  // executed determinism check uses a smaller dataset by default.
  const auto cora = dl::make_synthetic_citation_dataset(
      dl::DatasetConfig::cora());
  const auto dims = dl::ModelDims::of(cora, 16);
  const auto h100 = sim::DeviceProfile::h100();
  const sim::LpuDevice lpu;

  util::banner(std::cout,
               "Table 8: GraphSAGE inference runtime, H100 profile vs Groq "
               "LPU model (Cora-scale: " + std::to_string(dims.nodes) +
                   " nodes, " + std::to_string(dims.edges) + " edges)");

  util::Table table({"Inference", "H100 (ms)", "Groq (ms)"});
  table.add_row({"Deterministic",
                 util::fixed(dl::modeled_gpu_inference_ms(h100, dims, true), 2),
                 util::fixed(dl::lpu_inference_ms(lpu, dims), 3)});
  table.add_row(
      {"Non Deterministic",
       util::fixed(dl::modeled_gpu_inference_ms(h100, dims, false), 2),
       "N/A"});
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // Execute the inference kernels to verify the determinism column, under
  // the --accumulator spec (bit-reproducibility is a property of every
  // spec, not just the native default).
  const auto ds = dl::make_synthetic_citation_dataset(
      full ? dl::DatasetConfig::cora() : dl::DatasetConfig::small());
  dl::TrainConfig config;
  config.epochs = 5;
  config.hidden = 16;
  config.deterministic = true;
  core::RunContext train_run(seed, 0);
  const auto trained = dl::train(ds, config, train_run);

  tensor::OpContext det_ctx;
  det_ctx.accumulator = spec;
  const dl::Matrix a = dl::infer(trained.model, ds, det_ctx);
  const dl::Matrix b = dl::infer(trained.model, ds, det_ctx);
  const bool reproducible = a.bitwise_equal(b);
  obs::Fingerprint logits_bits;
  for (std::int64_t i = 0; i < a.numel(); ++i) logits_bits.feed(a.flat(i));
  std::cout << "\ndeterministic inference (" << fp::to_string(spec)
            << ") bitwise reproducible: " << (reproducible ? "yes" : "NO")
            << "  bits " << obs::hex64(logits_bits.value()) << "\n";

  std::size_t nd_identical = 0;
  constexpr std::size_t kNdRuns = 10;
  for (std::uint64_t r = 0; r < kNdRuns; ++r) {
    core::RunContext run(seed + 1, r);
    auto ctx = tensor::nd_context(run);
    const dl::Matrix nd = dl::infer(trained.model, ds, ctx);
    nd_identical += nd.bitwise_equal(a);
  }
  std::cout << "non-deterministic inference runs bitwise equal to "
               "reference: "
            << nd_identical << " / " << kNdRuns << "\n";

  if (!json_path.empty()) {
    util::Table determinism({"accumulator", "dataset", "logits bits",
                             "nd runs equal", "reproducible"});
    determinism.add_row({fp::to_string(spec), full ? "cora" : "small",
                         obs::hex64(logits_bits.value()),
                         std::to_string(nd_identical) + "/" +
                             std::to_string(kNdRuns),
                         reproducible ? "yes" : "NO"});
    bench::write_json(json_path, "table8_inference_runtime",
                      {{"runtime", &table}, {"determinism", &determinism}});
  }

  std::cout << "\nPaper reference (Table 8): H100 deterministic 3.92 ms, "
               "non-deterministic 2.17 ms; Groq LPU 0.066 ms - 30x faster "
               "than the fastest GPU implementation and deterministic by "
               "construction.\n";
  return (bench::warn_unconsumed(cli) == 0 && reproducible) ? 0 : 1;
}
