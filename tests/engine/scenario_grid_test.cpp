#include "engine/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace optiplet::engine {
namespace {

ScenarioSpec lenet_spec() {
  ScenarioSpec spec;
  spec.model = "LeNet5";
  return spec;
}

TEST(ScenarioSpec, KeyIsCanonicalUnderOverrideOrder) {
  ScenarioSpec a = lenet_spec();
  a.overrides = {{"resipi.epoch_s", 5e-6}, {"idle_power_fraction", 0.05}};
  ScenarioSpec b = lenet_spec();
  b.overrides = {{"idle_power_fraction", 0.05}, {"resipi.epoch_s", 5e-6}};
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ScenarioSpec, KeyDistinguishesEveryField) {
  const ScenarioSpec base = lenet_spec();
  ScenarioSpec other = base;
  other.model = "VGG16";
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.arch = accel::Architecture::kElec2p5D;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.batch_size = 4;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.wavelengths = 32;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.gateways_per_chiplet = 2;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.modulation = photonics::ModulationFormat::kPam4;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.fidelity = core::Fidelity::kCycleAccurate;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.overrides = {{"resipi.epoch_s", 5e-6}};
  EXPECT_NE(base.key(), other.key());
}

TEST(ScenarioSpec, KeyTracksEffectiveValueOfDuplicateOverrideKeys) {
  // apply() is last-write-wins, so specs listing the same override key
  // twice in different orders are different configurations and must not
  // share a cache key.
  ScenarioSpec a = lenet_spec();
  a.overrides = {{"resipi.epoch_s", 1e-5}, {"resipi.epoch_s", 2e-5}};
  ScenarioSpec b = lenet_spec();
  b.overrides = {{"resipi.epoch_s", 2e-5}, {"resipi.epoch_s", 1e-5}};
  EXPECT_NE(a.key(), b.key());
  // ...and the duplicate collapses to the same key as its effective form.
  ScenarioSpec c = lenet_spec();
  c.overrides = {{"resipi.epoch_s", 2e-5}};
  EXPECT_EQ(a.key(), c.key());
}

TEST(ScenarioSpec, ApplyImprintsConfig) {
  ScenarioSpec spec = lenet_spec();
  spec.batch_size = 4;
  spec.wavelengths = 32;
  spec.gateways_per_chiplet = 2;
  spec.modulation = photonics::ModulationFormat::kPam4;
  spec.fidelity = core::Fidelity::kCycleAccurate;
  spec.overrides = {{"resipi.epoch_s", 5e-6}};
  core::SystemConfig cfg = core::default_system_config();
  spec.apply(cfg);
  EXPECT_EQ(cfg.batch_size, 4u);
  EXPECT_EQ(cfg.photonic.total_wavelengths, 32u);
  EXPECT_EQ(cfg.photonic.gateways_per_chiplet, 2u);
  EXPECT_EQ(cfg.photonic.modulation, photonics::ModulationFormat::kPam4);
  EXPECT_EQ(cfg.fidelity, core::Fidelity::kCycleAccurate);
  EXPECT_DOUBLE_EQ(cfg.resipi.epoch_s, 5e-6);
}

TEST(ScenarioSpec, ApplyThrowsOnUnknownOverride) {
  ScenarioSpec spec = lenet_spec();
  spec.overrides = {{"no.such.knob", 1.0}};
  core::SystemConfig cfg = core::default_system_config();
  EXPECT_THROW(spec.apply(cfg), std::invalid_argument);
}

TEST(Overrides, RegistryIsSortedAndRoundTrips) {
  const auto keys = override_keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  core::SystemConfig cfg = core::default_system_config();
  for (const auto& key : keys) {
    EXPECT_TRUE(apply_override(cfg, key, 1.0)) << key;
  }
  EXPECT_FALSE(apply_override(cfg, "no.such.knob", 1.0));
}

TEST(Feasibility, RequiresGatewayDivisibility) {
  ScenarioSpec spec = lenet_spec();
  const auto base = core::default_system_config();
  spec.wavelengths = 64;
  spec.gateways_per_chiplet = 3;
  EXPECT_FALSE(feasible(spec, base));
  spec.gateways_per_chiplet = 0;
  EXPECT_FALSE(feasible(spec, base));
  spec.gateways_per_chiplet = 4;
  EXPECT_TRUE(feasible(spec, base));
}

TEST(Feasibility, LinkBudgetOnlyGatesSiph) {
  // 128 wavelengths over 4 gateways: 32-channel MRG rows exceed the ring
  // FSR, so the SiPh link budget cannot close.
  ScenarioSpec spec = lenet_spec();
  spec.wavelengths = 128;
  spec.gateways_per_chiplet = 4;
  const auto base = core::default_system_config();
  spec.arch = accel::Architecture::kSiph2p5D;
  EXPECT_FALSE(feasible(spec, base));
  spec.arch = accel::Architecture::kElec2p5D;
  EXPECT_TRUE(feasible(spec, base));
}

TEST(ScenarioGrid, EmptyAxesResolveToBaseDefaults) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  const auto base = core::default_system_config();
  const auto specs = grid.expand(base);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].model, "LeNet5");
  EXPECT_EQ(specs[0].arch, accel::Architecture::kSiph2p5D);
  EXPECT_EQ(specs[0].batch_size, base.batch_size);
  EXPECT_EQ(specs[0].wavelengths, base.photonic.total_wavelengths);
  EXPECT_EQ(specs[0].gateways_per_chiplet,
            base.photonic.gateways_per_chiplet);
  EXPECT_EQ(specs[0].modulation, base.photonic.modulation);
}

TEST(ScenarioGrid, EmptyModelAxisMeansAllFive) {
  ScenarioGrid grid;
  const auto specs = grid.expand(core::default_system_config());
  EXPECT_EQ(specs.size(), 5u);
}

TEST(ScenarioGrid, ExpansionIsArchitectureMajorModelMinor) {
  ScenarioGrid grid;
  grid.models = {"LeNet5", "VGG16"};
  grid.architectures = {accel::Architecture::kMonolithicCrossLight,
                        accel::Architecture::kSiph2p5D};
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].arch, accel::Architecture::kMonolithicCrossLight);
  EXPECT_EQ(specs[0].model, "LeNet5");
  EXPECT_EQ(specs[1].arch, accel::Architecture::kMonolithicCrossLight);
  EXPECT_EQ(specs[1].model, "VGG16");
  EXPECT_EQ(specs[2].arch, accel::Architecture::kSiph2p5D);
  EXPECT_EQ(specs[2].model, "LeNet5");
  EXPECT_EQ(specs[3].arch, accel::Architecture::kSiph2p5D);
  EXPECT_EQ(specs[3].model, "VGG16");
}

TEST(ScenarioGrid, FiltersInfeasibleShapes) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  grid.wavelengths = {64, 128};
  grid.gateways_per_chiplet = {4};
  EXPECT_EQ(grid.raw_size(), 2u);
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].wavelengths, 64u);
}

TEST(ScenarioGrid, OverrideAxesAreCartesian) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  grid.batch_sizes = {1, 2};
  grid.override_axes = {{"resipi.epoch_s", {5e-6, 1e-5, 2e-5}}};
  EXPECT_EQ(grid.raw_size(), 6u);
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 6u);
  // Batch is outer, override axis inner.
  EXPECT_EQ(specs[0].batch_size, 1u);
  EXPECT_DOUBLE_EQ(specs[0].overrides[0].second, 5e-6);
  EXPECT_DOUBLE_EQ(specs[2].overrides[0].second, 2e-5);
  EXPECT_EQ(specs[3].batch_size, 2u);
}

TEST(ScenarioGrid, RejectsUnknownOverrideKeyAndModel) {
  ScenarioGrid bad_key;
  bad_key.models = {"LeNet5"};
  bad_key.override_axes = {{"no.such.knob", {1.0}}};
  EXPECT_THROW(bad_key.expand(core::default_system_config()),
               std::invalid_argument);
  ScenarioGrid bad_model;
  bad_model.models = {"AlexNet"};
  EXPECT_THROW(bad_model.expand(core::default_system_config()),
               std::invalid_argument);
}

/// The message expand() throws for `grid`, or "" when it does not throw.
std::string expand_error(const ScenarioGrid& grid) {
  try {
    (void)grid.expand(core::default_system_config());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioGrid, UnknownModelIsNamedOnBothModelAxes) {
  ScenarioGrid models;
  models.models = {"LeNet5", "AlexNet"};
  EXPECT_NE(expand_error(models).find("unknown model name: AlexNet"),
            std::string::npos);
  ScenarioGrid mixes;
  mixes.tenant_mixes = {"LeNet5", "LeNet5+AlexNet"};
  EXPECT_NE(expand_error(mixes).find("unknown model name: AlexNet"),
            std::string::npos);
}

TEST(ScenarioGrid, IntegralOverridesRejectValuesTheirFieldCannotHold) {
  // A fraction would be truncated under a key that still spells it, and a
  // negative or oversized value would reach an undefined cast.
  const std::vector<std::pair<std::string, double>> bad = {
      {"parameter_bits", 2.7},
      {"parameter_bits", -1.0},
      {"parameter_bits", 4294967296.0},
      {"monolithic_onchip_buffer_bits", 0.5},
      {"monolithic_onchip_buffer_bits", 18446744073709551616.0},
      {"resipi.min_active_gateways", -1.0},
      {"resipi.min_active_gateways", 1.5},
  };
  for (const auto& [key, value] : bad) {
    SCOPED_TRACE(key + "=" + std::to_string(value));
    ScenarioGrid grid;
    grid.models = {"LeNet5"};
    // The bad value is not the first on its axis: expand() checks every
    // value before it builds any spec.
    grid.override_axes = {{key, {1.0, value}}};
    const std::string error = expand_error(grid);
    EXPECT_NE(error.find("override " + key + "="), std::string::npos)
        << error;
    core::SystemConfig cfg = core::default_system_config();
    EXPECT_THROW(apply_override(cfg, key, value), std::invalid_argument);
  }
}

TEST(ScenarioGrid, IntegralOverridesAcceptWholeNumbers) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  grid.override_axes = {{"parameter_bits", {4.0, 8.0}},
                        {"resipi.min_active_gateways", {0.0, 2.0}}};
  EXPECT_EQ(grid.expand(core::default_system_config()).size(), 4u);
  core::SystemConfig cfg = core::default_system_config();
  ASSERT_TRUE(apply_override(cfg, "monolithic_onchip_buffer_bits",
                             4294967296.0));
  EXPECT_EQ(cfg.monolithic_onchip_buffer_bits, 4294967296ULL);
  // Real-valued keys keep taking fractions.
  EXPECT_TRUE(apply_override(cfg, "resipi.target_utilization", 0.75));
}

TEST(ScenarioGrid, RejectsDuplicateOverrideAxes) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  grid.override_axes = {{"resipi.epoch_s", {5e-6}},
                        {"resipi.epoch_s", {1e-5}}};
  EXPECT_THROW(grid.expand(core::default_system_config()),
               std::invalid_argument);
}

/// Every serving and cluster axis at two values on top of a shape axis
/// with one SiPh-infeasible entry, two architectures, two mixes and one
/// override: the expansion's order and content are pinned by its first
/// and last key plus an FNV-1a digest over every key in order.
ScenarioGrid every_axis_grid() {
  ScenarioGrid grid;
  grid.architectures = {accel::Architecture::kElec2p5D,
                        accel::Architecture::kSiph2p5D};
  grid.wavelengths = {64, 128};  // 128 over 4 gateways fails SiPh only
  grid.override_axes = {{"resipi.epoch_s", {1.2345678e-5}}};
  grid.tenant_mixes = {"LeNet5", "LeNet5+ResNet50"};
  grid.arrival_rates_rps = {100.0, 200.0};
  grid.batch_policies = {serve::BatchPolicy::kNone,
                         serve::BatchPolicy::kDeadline};
  grid.pipeline_modes = {serve::PipelineMode::kBatchGranular,
                         serve::PipelineMode::kLayerGranular};
  grid.arrival_sources = {serve::ArrivalSource::kOpenLoop,
                          serve::ArrivalSource::kClosedLoop};
  grid.user_counts = {4, 16};
  grid.admission_policies = {serve::AdmissionPolicy::kAdmitAll,
                             serve::AdmissionPolicy::kSlaShed};
  grid.prefill_token_counts = {0, 64};
  grid.decode_token_counts = {0, 16};
  grid.elastic_policies = {"static", "shift=0.2/tau=60"};
  grid.package_counts = {1, 2};
  grid.balancer_policies = {cluster::BalancerPolicy::kRoundRobin,
                            cluster::BalancerPolicy::kLocalityAware};
  grid.replication_factors = {1, 2};
  return grid;
}

TEST(ScenarioGrid, EveryAxisExpansionIsPinned) {
  const ScenarioGrid grid = every_axis_grid();
  const auto specs = grid.expand(core::default_system_config());
  std::uint64_t digest = 14695981039346656037ULL;
  for (const auto& spec : specs) {
    for (const char c : spec.key() + '\n') {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
  }
  ASSERT_FALSE(specs.empty());
  EXPECT_EQ(grid.raw_size(), 32768u);
  EXPECT_EQ(specs.size(), 24576u);
  EXPECT_EQ(specs.front().key(),
            "model=LeNet5;arch=2.5D-CrossLight-Elec;batch=1;wl=64;gw=4;"
            "mod=OOK;fid=analytical;resipi.epoch_s=1.2345677999999999e-05;"
            "serve.policy=none;serve.pipe=batch;serve.batch=8;"
            "serve.wait=0.001;serve.mix=LeNet5;serve.sla=0;serve.adm=all;"
            "serve.rate=100;serve.n=2000;serve.seed=42;cluster.pkgs=1;"
            "cluster.bal=rr;cluster.rep=1;cluster.len=0.25;"
            "cluster.linkwl=16");
  EXPECT_EQ(specs.back().key(),
            "model=LeNet5+ResNet50;arch=2.5D-CrossLight-Elec;batch=1;"
            "wl=128;gw=4;mod=OOK;fid=analytical;"
            "resipi.epoch_s=1.2345677999999999e-05;serve.policy=deadline;"
            "serve.pipe=layer;serve.batch=8;serve.wait=0.001;"
            "serve.mix=LeNet5+ResNet50;serve.sla=0;serve.adm=shed;"
            "serve.elastic=shift=0.20000000000000001/tau=60;"
            "serve.prefill=64;serve.decode=16;serve.spread=0;"
            "serve.kv_mb=256;serve.src=closed;serve.users=16;"
            "serve.think=0.01;serve.n=2000;serve.seed=42;cluster.pkgs=2;"
            "cluster.bal=locality;cluster.rep=2;cluster.len=0.25;"
            "cluster.linkwl=16");
  EXPECT_EQ(digest, 17773918422570481829ULL);
}

TEST(ScenarioGrid, EachAxisAloneSwitchesTheRightMode) {
  struct Case {
    std::string axis;
    ScenarioGrid grid;
    bool serving;
    bool cluster;
  };
  std::vector<Case> cases;
  const auto add = [&cases](std::string axis, bool serving,
                            bool cluster) -> ScenarioGrid& {
    cases.push_back({std::move(axis), ScenarioGrid{}, serving, cluster});
    return cases.back().grid;
  };
  using accel::Architecture;
  add("none", false, false);
  add("models", false, false).models = {"LeNet5", "VGG16"};
  add("architectures", false, false).architectures = {
      Architecture::kElec2p5D, Architecture::kSiph2p5D};
  add("batch_sizes", false, false).batch_sizes = {1, 2};
  add("wavelengths", false, false).wavelengths = {32, 64};
  add("gateways", false, false).gateways_per_chiplet = {4, 8};
  add("modulations", false, false).modulations = {
      photonics::ModulationFormat::kOok, photonics::ModulationFormat::kPam4};
  add("fidelities", false, false).fidelities = {
      core::Fidelity::kAnalytical, core::Fidelity::kCycleAccurate};
  add("override_axes", false, false).override_axes = {
      {"resipi.epoch_s", {5e-6, 1e-5}}};
  add("tenant_mixes", true, false).tenant_mixes = {"LeNet5", "VGG16"};
  add("arrival_rates_rps", true, false).arrival_rates_rps = {100.0, 200.0};
  add("batch_policies", true, false).batch_policies = {
      serve::BatchPolicy::kNone, serve::BatchPolicy::kFixedSize};
  add("pipeline_modes", true, false).pipeline_modes = {
      serve::PipelineMode::kBatchGranular,
      serve::PipelineMode::kLayerGranular};
  add("arrival_sources", true, false).arrival_sources = {
      serve::ArrivalSource::kOpenLoop, serve::ArrivalSource::kClosedLoop};
  add("user_counts", true, false).user_counts = {4, 16};
  add("admission_policies", true, false).admission_policies = {
      serve::AdmissionPolicy::kAdmitAll, serve::AdmissionPolicy::kSlaShed};
  add("prefill_token_counts", true, false).prefill_token_counts = {0, 64};
  add("decode_token_counts", true, false).decode_token_counts = {0, 16};
  add("elastic_policies", true, false).elastic_policies = {"static",
                                                           "shift=0.2"};
  add("package_counts", true, true).package_counts = {1, 2};
  add("balancer_policies", true, true).balancer_policies = {
      cluster::BalancerPolicy::kRoundRobin,
      cluster::BalancerPolicy::kLocalityAware};
  add("replication_factors", true, true).replication_factors = {1, 2};

  for (const Case& c : cases) {
    EXPECT_EQ(c.grid.serving_mode(), c.serving) << c.axis;
    EXPECT_EQ(c.grid.cluster_mode(), c.cluster) << c.axis;
    // Every swept axis doubles the grid; with no axis swept, the grid is
    // the five Table-2 models (or one default mix in serving mode).
    const std::size_t models = c.serving ? 1 : 5;
    const std::size_t expected = c.axis == "none"     ? models
                                 : c.axis == "models" ? 2
                                                      : 2 * models;
    EXPECT_EQ(c.grid.raw_size(), expected) << c.axis;
    const auto specs = c.grid.expand(core::default_system_config());
    EXPECT_EQ(specs.size(), expected) << c.axis;
    for (const auto& spec : specs) {
      EXPECT_EQ(spec.serving.has_value(), c.serving) << c.axis;
      EXPECT_EQ(spec.cluster.has_value(), c.cluster) << c.axis;
    }
  }
}

TEST(ParseHelpers, ArchitectureAndModulationAliases) {
  EXPECT_EQ(architecture_from_string("mono"),
            accel::Architecture::kMonolithicCrossLight);
  EXPECT_EQ(architecture_from_string("elec"),
            accel::Architecture::kElec2p5D);
  EXPECT_EQ(architecture_from_string("siph"),
            accel::Architecture::kSiph2p5D);
  EXPECT_EQ(architecture_from_string("2.5D-CrossLight-SiPh"),
            accel::Architecture::kSiph2p5D);
  EXPECT_FALSE(architecture_from_string("tpu").has_value());
  EXPECT_EQ(modulation_from_string("ook"), photonics::ModulationFormat::kOok);
  EXPECT_EQ(modulation_from_string("pam4"),
            photonics::ModulationFormat::kPam4);
  EXPECT_FALSE(modulation_from_string("qam64").has_value());
}

}  // namespace
}  // namespace optiplet::engine
