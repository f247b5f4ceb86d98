/// \file sampled_fidelity_test.cpp
/// The degeneracy guarantees and stitching telemetry of
/// Fidelity::kSampled: zero windows IS the analytical run, windows
/// covering every layer IS the cycle-accurate run — bit for bit, every
/// RunResult field — and anything in between reports its calibration.

#include <gtest/gtest.h>

#include <string>

#include "core/system_simulator.hpp"
#include "dnn/zoo.hpp"

namespace optiplet::core {
namespace {

using accel::Architecture;

RunResult run_with(const FidelitySpec& fidelity, unsigned batch,
                   const dnn::Model& model) {
  SystemConfig config = default_system_config();
  config.fidelity = fidelity;
  config.batch_size = batch;
  return SystemSimulator(config).run(model, Architecture::kSiph2p5D);
}

/// Bit-for-bit equality over everything a RunResult reports. EXPECT_EQ on
/// doubles is deliberate: the degenerate sampled paths must execute the
/// exact same arithmetic as the pure modes, not merely approximate them.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.average_power_w, b.average_power_w);
  EXPECT_EQ(a.traffic_bits, b.traffic_bits);
  EXPECT_EQ(a.epb_j_per_bit, b.epb_j_per_bit);
  EXPECT_EQ(a.resipi_reconfigurations, b.resipi_reconfigurations);
  EXPECT_EQ(a.resipi_energy_j, b.resipi_energy_j);
  EXPECT_EQ(a.mean_active_gateways, b.mean_active_gateways);
  EXPECT_EQ(a.noc_busy_cycles, b.noc_busy_cycles);
  EXPECT_EQ(a.noc_stepped_cycles, b.noc_stepped_cycles);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].read_s, b.layers[i].read_s) << "layer " << i;
    EXPECT_EQ(a.layers[i].write_s, b.layers[i].write_s) << "layer " << i;
    EXPECT_EQ(a.layers[i].overhead_s, b.layers[i].overhead_s) << "layer " << i;
    EXPECT_EQ(a.layers[i].total_s, b.layers[i].total_s) << "layer " << i;
    EXPECT_EQ(a.layers[i].gateways_per_chiplet,
              b.layers[i].gateways_per_chiplet)
        << "layer " << i;
  }
}

TEST(SampledFidelity, ZeroWindowsIsTheAnalyticalRunBitForBit) {
  FidelitySpec none(Fidelity::kSampled);
  none.windows = 0;
  for (const dnn::Model& model : dnn::zoo::all_models()) {
    for (const unsigned batch : {1u, 8u}) {
      SCOPED_TRACE(model.name() + " batch " + std::to_string(batch));
      const auto sampled = run_with(none, batch, model);
      const auto analytical =
          run_with(Fidelity::kAnalytical, batch, model);
      expect_identical(sampled, analytical);
      EXPECT_EQ(sampled.sampled_layers, 0u);
      EXPECT_EQ(sampled.correction_factor, 1.0);
    }
  }
}

TEST(SampledFidelity, AllWindowsIsTheCycleRunBitForBit) {
  for (const dnn::Model& model : dnn::zoo::all_models()) {
    FidelitySpec all(Fidelity::kSampled);
    all.windows = static_cast<unsigned>(model.layers().size());
    for (const unsigned batch : {1u, 8u}) {
      SCOPED_TRACE(model.name() + " batch " + std::to_string(batch));
      const auto sampled = run_with(all, batch, model);
      const auto cycle = run_with(Fidelity::kCycleAccurate, batch, model);
      expect_identical(sampled, cycle);
      EXPECT_GT(cycle.noc_busy_cycles, 0u);
      // Every *compute* layer is sampled (the simulator walks those, not
      // the model's pooling/auxiliary layers).
      EXPECT_EQ(sampled.sampled_layers, sampled.layers.size());
    }
  }
}

TEST(SampledFidelity, PartialSamplingReportsItsCalibration) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 2;
  spec.seed = 3;
  const auto r = run_with(spec, 1, dnn::zoo::make_lenet5());
  EXPECT_GT(r.sampled_layers, 0u);
  EXPECT_LT(r.sampled_layers, r.layers.size());
  EXPECT_GT(r.correction_factor, 0.0);
  EXPECT_LE(r.correction_lo, r.correction_factor);
  EXPECT_GE(r.correction_hi, r.correction_factor);
  EXPECT_GT(r.overhead_correction, 0.0);
}

TEST(SampledFidelity, StaysWithinTheCycleEnvelopeOnADeepModel) {
  // The headline accuracy contract at the bench operating point, on the
  // model the speed bench serves: a handful of sampled windows lands the
  // corrected latency within a few percent of the full cycle run — far
  // inside the gap to the uncorrected analytical estimate.
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 8;
  spec.seed = 3;
  const auto model = dnn::zoo::make_mobilenetv2();
  const auto sampled = run_with(spec, 1, model);
  const auto cycle = run_with(Fidelity::kCycleAccurate, 1, model);
  EXPECT_NEAR(sampled.latency_s, cycle.latency_s, 0.10 * cycle.latency_s);
  EXPECT_NEAR(sampled.energy_j, cycle.energy_j, 0.10 * cycle.energy_j);
}

TEST(SampledFidelity, NonSiphArchitecturesIgnoreSampling) {
  // Architectures without a cycle model run the analytical path whatever
  // the mode says; the sampling telemetry must stay quiet.
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 4;
  SystemConfig config = default_system_config();
  config.fidelity = spec;
  const SystemSimulator sim(config);
  const auto model = dnn::zoo::make_lenet5();
  for (const auto arch : {Architecture::kMonolithicCrossLight,
                          Architecture::kElec2p5D}) {
    const auto r = sim.run(model, arch);
    EXPECT_EQ(r.sampled_layers, 0u);
    EXPECT_EQ(r.correction_factor, 1.0);
    SystemConfig plain = default_system_config();
    const auto base = SystemSimulator(plain).run(model, arch);
    EXPECT_EQ(r.latency_s, base.latency_s);
    EXPECT_EQ(r.energy_j, base.energy_j);
  }
}

}  // namespace
}  // namespace optiplet::core
