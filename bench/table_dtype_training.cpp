// Loss-scaled bf16 training study (ISSUE 8 tentpole): sweeps the
// storage:accumulate dtype axis of the ReductionSpec over the full
// seeded GNN training run, with and without gradient loss scaling, and
// prices every regime in epoch-loss trajectory and final-weight ulp
// drift against the native f32 run of the same accumulator.
//
// One table, one row per (accumulator x regime):
//   regimes: f32 (native), bf16:f32 (tensor-core mixed precision),
//            bf16:bf16 unscaled (pure bf16), bf16:bf16 @ a power-of-two
//            static scale, bf16:bf16 @ the pinned non-power-of-two
//            static scale, bf16:bf16 under the dynamic scaler.
//
// Three in-binary gates (exit non-zero on violation):
//   1. run-to-run: every row's training is executed twice and the final
//      weights must match bit for bit (every row is deterministic - the
//      "reproducible: yes" contract the CI json diff leans on).
//   2. pow-2 neutrality: the power-of-two-scaled run and the dynamic run
//      (whose scale only ever moves by factors of 2) must reproduce the
//      unscaled pure-bf16 weights bit for bit, for every accumulator.
//      Binary FP is exactly homogeneous under 2^k, so a pow-2 loss scale
//      is a *named no-op* - the certified floor under the whole study.
//   3. the pinned non-pow-2 scale (default 1536 = 3 * 2^9, tuned on the
//      seeded run) must reach a *lower* final loss than unscaled pure
//      bf16 under the serial accumulator: the scale's mantissa is a
//      bit-level hyperparameter, and this row documents the tuned win.
//      (Skipped under --full or a non-default --epochs/--scale: the pin
//      belongs to the default seeded configuration.)
//
// Flags: --epochs (default 30), --seed (init seed, default 42), --scale
//        (pinned non-pow-2 scale, default 1536), --full (Cora-sized
//        dataset), --csv, --json=<path> (CI determinism gate dump),
//        --trace=<path> / --provenance=<path> (attach an obs::Recorder
//        to the designated scaled run; the dl.loss_scale.* metrics land
//        in the metrics table).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/dl/dataset.hpp"
#include "fpna/dl/trainer.hpp"
#include "fpna/fp/bits.hpp"
#include "fpna/fp/reduction_spec.hpp"
#include "fpna/util/table.hpp"

using namespace fpna;

namespace {

std::string fingerprint(const std::vector<double>& weights) {
  obs::Fingerprint fp;
  fp.feed(std::span<const double>(weights));
  return obs::hex64(fp.value());
}

/// Max ulp distance between two flattened weight vectors. The model's
/// weights are binary32; the double flattening is exact, so the float
/// casts below recover the stored bits.
std::int64_t max_ulps(const std::vector<double>& a,
                      const std::vector<double>& b) {
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, fp::ulp_distance32(static_cast<float>(a[i]),
                                               static_cast<float>(b[i])));
  }
  return worst;
}

struct Regime {
  std::string name;
  std::string spec;  // reduction-spec dtype suffix, e.g. "@bf16:bf16"
  dl::LossScaleConfig loss_scale;
};

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  obs::Fingerprint fa, fb;
  fa.feed(std::span<const double>(a));
  fb.feed(std::span<const double>(b));
  return fa.value() == fb.value();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool full = cli.flag("full");
  const int epochs = static_cast<int>(cli.integer("epochs", 30));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const float pinned_scale =
      static_cast<float>(cli.integer("scale", 1536));
  const bool csv = cli.flag("csv");
  const std::string json = cli.text("json", "");
  const bench::ObsOptions obs_opts(cli);

  // The tuned-win gate is pinned to the default seeded configuration.
  const bool pinned_config = !full && epochs == 30 && seed == 42 &&
                             pinned_scale == 1536.0f;

  const auto ds = dl::make_synthetic_citation_dataset(
      full ? dl::DatasetConfig::cora() : dl::DatasetConfig::small());

  util::banner(std::cout,
               "Dtype x loss-scale training study (" +
                   std::to_string(ds.num_nodes()) + " nodes, " +
                   std::to_string(epochs) + " epochs, pinned scale " +
                   util::fixed(pinned_scale, 0) + ")");

  const std::vector<std::string> accumulators{"serial", "kahan",
                                              "superaccumulator"};
  const std::vector<Regime> regimes{
      {"f32", "", dl::LossScaleConfig::none()},
      {"bf16:f32", "@bf16:f32", dl::LossScaleConfig::none()},
      {"bf16 unscaled", "@bf16:bf16", dl::LossScaleConfig::none()},
      {"bf16 static 2^10", "@bf16:bf16",
       dl::LossScaleConfig::static_scale(1024.0f)},
      {"bf16 static pinned", "@bf16:bf16",
       dl::LossScaleConfig::static_scale(pinned_scale)},
      {"bf16 dynamic", "@bf16:bf16",
       dl::LossScaleConfig::dynamic(1024.0f)},
  };

  bool gate_ok = true;
  const auto gate_fail = [&gate_ok](const std::string& why) {
    std::cerr << "GATE FAIL: " << why << "\n";
    gate_ok = false;
  };

  util::Table table({"accumulator", "regime", "scale", "loss e1",
                     "loss mid", "final loss", "skipped",
                     "final-weight ulps vs f32", "bits", "reproducible"});

  const std::size_t mid = static_cast<std::size_t>(epochs) / 2;
  for (const auto& acc : accumulators) {
    std::vector<double> f32_weights;        // same-accumulator baseline
    std::vector<double> unscaled_weights;   // pure-bf16 baseline
    double unscaled_final_loss = 0.0;
    for (const auto& regime : regimes) {
      dl::TrainConfig config;
      config.epochs = epochs;
      config.init_seed = seed;
      config.accumulator = fp::parse_reduction_spec(acc + regime.spec);
      config.loss_scale = regime.loss_scale;
      // The recorder rides the designated pinned run only, so a trace
      // holds one training's spans and the loss-scale gauge is
      // unambiguous.
      if (acc == "serial" && regime.name == "bf16 static pinned") {
        config.recorder = obs_opts.recorder();
      }
      core::RunContext run_a(seed, 0);
      const auto result = dl::train(ds, config, run_a);
      config.recorder = nullptr;
      core::RunContext run_b(seed, 1);
      const auto repeat = dl::train(ds, config, run_b);
      if (!bitwise_equal(result.final_weights, repeat.final_weights)) {
        gate_fail(acc + " / " + regime.name +
                  ": two seeded trainings disagree bitwise");
      }

      if (regime.name == "f32") f32_weights = result.final_weights;
      if (regime.name == "bf16 unscaled") {
        unscaled_weights = result.final_weights;
        unscaled_final_loss = result.epoch_losses.back();
      }
      // Pow-2 neutrality: static 2^10 and the dynamic scaler (pow-2
      // moves only) must reproduce the unscaled bf16 weights bitwise.
      if (regime.name == "bf16 static 2^10" ||
          regime.name == "bf16 dynamic") {
        if (!bitwise_equal(result.final_weights, unscaled_weights)) {
          gate_fail(acc + " / " + regime.name +
                    ": power-of-two scaling moved bits vs unscaled");
        }
      }
      if (pinned_config && acc == "serial" &&
          regime.name == "bf16 static pinned" &&
          !(result.epoch_losses.back() < unscaled_final_loss)) {
        gate_fail("pinned scale " + util::fixed(pinned_scale, 0) +
                  " did not beat unscaled pure bf16 (final loss " +
                  util::fixed(result.epoch_losses.back(), 9) + " vs " +
                  util::fixed(unscaled_final_loss, 9) + ")");
      }

      const float scale_now = result.epoch_loss_scale.back();
      table.add_row(
          {acc, regime.name,
           regime.loss_scale.enabled() ? util::fixed(scale_now, 0) : "-",
           util::fixed(result.epoch_losses.front(), 6),
           util::fixed(result.epoch_losses[mid], 6),
           util::fixed(result.epoch_losses.back(), 6),
           std::to_string(result.skipped_steps),
           std::to_string(max_ulps(f32_weights, result.final_weights)),
           fingerprint(result.final_weights), "yes"});
    }
  }

  const util::Table metrics_table = obs_opts.metrics_table();

  if (csv) {
    table.print_csv(std::cout);
    if (obs_opts.enabled()) metrics_table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout
        << "\nReading: every row is deterministic (trained twice in-process, "
           "bitwise compared - a differing rerun fails the bench). The "
           "power-of-two and dynamic rows carry the *same bits* as the "
           "unscaled bf16 row: binary FP is exactly homogeneous under 2^k, "
           "so those scales are certified no-ops and only the scale's "
           "mantissa can move the trajectory. The pinned non-pow-2 row "
           "re-rounds every bf16 quantization in the backward pass and - at "
           "the tuned scale - lands at a lower final loss than unscaled "
           "pure bf16 (serial row; compensated accumulators are largely "
           "insensitive to the re-rounding, which is itself the point: "
           "better accumulators shrink the rounding lottery). The ulps "
           "column prices each regime's final weights against the native "
           "f32 run of the same accumulator.\n";
    if (obs_opts.enabled()) {
      util::banner(std::cout, "Recorder metrics (designated scaled run)");
      metrics_table.print(std::cout);
    }
  }

  if (!json.empty()) {
    std::vector<bench::NamedTable> json_tables{{"dtype_training", &table}};
    if (obs_opts.enabled()) {
      json_tables.push_back({"metrics", &metrics_table});
    }
    bench::write_json(json, "table_dtype_training", json_tables);
  }
  obs_opts.finish();

  if (!gate_ok) return 1;
  return bench::warn_unconsumed(cli) == 0 ? 0 : 1;
}
