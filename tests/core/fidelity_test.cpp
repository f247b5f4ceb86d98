#include "core/fidelity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "engine/scenario.hpp"
#include "serve/serving_spec.hpp"
#include "serve/tracegen.hpp"

namespace optiplet::core {
namespace {

TEST(FidelitySpec, EveryModeRoundTripsThroughItsCanonicalSpelling) {
  for (const Fidelity mode : {Fidelity::kAnalytical, Fidelity::kCycleAccurate,
                              Fidelity::kSampled}) {
    const FidelitySpec spec(mode);
    const auto parsed = fidelity_from_string(to_string(spec));
    ASSERT_TRUE(parsed.has_value()) << to_string(spec);
    EXPECT_EQ(*parsed, spec) << to_string(spec);
  }
}

TEST(FidelitySpec, PureModesSpellExactlyTheBareEnum) {
  // ScenarioSpec keys and CSV rows for the pre-FidelitySpec modes must be
  // byte-identical to the old enum encoding.
  EXPECT_EQ(to_string(FidelitySpec(Fidelity::kAnalytical)), "analytical");
  EXPECT_EQ(to_string(FidelitySpec(Fidelity::kCycleAccurate)), "cycle");
  EXPECT_STREQ(to_string(Fidelity::kAnalytical), "analytical");
  EXPECT_STREQ(to_string(Fidelity::kCycleAccurate), "cycle");
}

TEST(FidelitySpec, SampledRoundTripsWithEveryKnobSet) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 12;
  spec.window_layers = 3;
  spec.seed = 987654321;
  spec.confidence = 0.99;
  const std::string text = to_string(spec);
  EXPECT_EQ(text, "sampled:windows=12,layers=3,seed=987654321,conf=0.99");
  const auto parsed = fidelity_from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
}

TEST(FidelitySpec, LegacyAliasesParse) {
  ASSERT_TRUE(fidelity_from_string("tlm").has_value());
  EXPECT_EQ(fidelity_from_string("tlm")->mode, Fidelity::kAnalytical);
  ASSERT_TRUE(fidelity_from_string("cycle-accurate").has_value());
  EXPECT_EQ(fidelity_from_string("cycle-accurate")->mode,
            Fidelity::kCycleAccurate);
}

TEST(FidelitySpec, ShortKnobSpellingsParse) {
  const auto spec = fidelity_from_string("sampled:w=4,l=2,s=7,conf=0.9");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->windows, 4u);
  EXPECT_EQ(spec->window_layers, 2u);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->confidence, 0.9);
  // Unset knobs keep their defaults.
  const auto partial = fidelity_from_string("sampled:seed=5");
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->windows, FidelitySpec().windows);
  EXPECT_EQ(partial->seed, 5u);
}

TEST(FidelitySpec, RejectsMalformedSpellings) {
  EXPECT_FALSE(fidelity_from_string("").has_value());
  EXPECT_FALSE(fidelity_from_string("quantum").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:windows").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:bogus=1").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:layers=0").has_value());
  // windows=0 is the analytical run; accepting it would give that run a
  // second memo key.
  EXPECT_FALSE(fidelity_from_string("sampled:windows=0").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:w=0,seed=3").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:conf=1.5").has_value());
  // Knobs only exist on the sampled mode.
  EXPECT_FALSE(fidelity_from_string("analytical:windows=4").has_value());
  EXPECT_FALSE(fidelity_from_string("cycle:seed=1").has_value());
}

TEST(FidelitySpec, KnobsOnlyParticipateInIdentityUnderSampled) {
  FidelitySpec a(Fidelity::kCycleAccurate);
  FidelitySpec b(Fidelity::kCycleAccurate);
  b.seed = 99;
  EXPECT_EQ(a, b);
  a.mode = b.mode = Fidelity::kSampled;
  EXPECT_NE(a, b);
}

TEST(SplitFidelityList, FoldsKnobTokensOntoTheSampledEntry) {
  const auto parts =
      split_fidelity_list("analytical,sampled:windows=4,seed=7,cycle");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "analytical");
  EXPECT_EQ(parts[1], "sampled:windows=4,seed=7");
  EXPECT_EQ(parts[2], "cycle");
  // A bare "sampled" grows its knob list with ':' on the first knob.
  const auto bare = split_fidelity_list("sampled,w=2,l=1");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0], "sampled:w=2,l=1");
}

TEST(SampledLayerMask, DeterministicAndStratified) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 8;
  spec.window_layers = 2;
  spec.seed = 3;
  const std::size_t layers = 120;
  const auto a = sampled_layer_mask(layers, spec, /*salt=*/1);
  const auto b = sampled_layer_mask(layers, spec, /*salt=*/1);
  EXPECT_EQ(a, b);
  // One window per equal stratum: each eighth of the range holds sampled
  // layers, so no window count is lost to collisions.
  std::size_t sampled = 0;
  for (std::size_t w = 0; w < spec.windows; ++w) {
    bool stratum_hit = false;
    for (std::size_t k = w * layers / spec.windows;
         k < (w + 2) * layers / spec.windows && k < layers; ++k) {
      stratum_hit |= a[k];
    }
    EXPECT_TRUE(stratum_hit) << "stratum " << w;
  }
  for (const bool hit : a) {
    sampled += hit ? 1 : 0;
  }
  EXPECT_GE(sampled, spec.windows);
  EXPECT_LE(sampled, spec.windows * spec.window_layers);
}

TEST(SampledLayerMask, SaltAndSeedChangeThePlan) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 6;
  spec.seed = 1;
  const auto base = sampled_layer_mask(200, spec, 1);
  EXPECT_NE(base, sampled_layer_mask(200, spec, 2));
  spec.seed = 2;
  EXPECT_NE(base, sampled_layer_mask(200, spec, 1));
}

TEST(SampledLayerMask, DegeneratesAtTheEndpoints) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 0;
  const auto none = sampled_layer_mask(50, spec, 1);
  EXPECT_EQ(std::count(none.begin(), none.end(), true), 0);
  spec.windows = 50;
  const auto all = sampled_layer_mask(50, spec, 1);
  EXPECT_EQ(std::count(all.begin(), all.end(), true), 50);
  // Non-sampled modes never sample.
  const auto off = sampled_layer_mask(50, Fidelity::kCycleAccurate, 1);
  EXPECT_EQ(std::count(off.begin(), off.end(), true), 0);
}

// Every other to_string/from_string pair in the scenario vocabulary must
// round-trip mode by mode — the CSV/CLI encodings are load-bearing
// interfaces, not display strings.

template <typename Enum, typename Parser>
void expect_round_trip(std::initializer_list<Enum> modes, Parser parse) {
  for (const Enum mode : modes) {
    const auto parsed = parse(to_string(mode));
    ASSERT_TRUE(parsed.has_value()) << to_string(mode);
    EXPECT_EQ(*parsed, mode) << to_string(mode);
  }
}

TEST(StringEncodings, EveryEnumRoundTrips) {
  expect_round_trip({serve::BatchPolicy::kNone, serve::BatchPolicy::kFixedSize,
                     serve::BatchPolicy::kDeadline},
                    serve::batch_policy_from_string);
  expect_round_trip({serve::PipelineMode::kBatchGranular,
                     serve::PipelineMode::kLayerGranular},
                    serve::pipeline_mode_from_string);
  expect_round_trip(
      {serve::ArrivalSource::kOpenLoop, serve::ArrivalSource::kClosedLoop},
      serve::arrival_source_from_string);
  expect_round_trip(
      {serve::AdmissionPolicy::kAdmitAll, serve::AdmissionPolicy::kSlaShed},
      serve::admission_policy_from_string);
  expect_round_trip({serve::TraceProfile::kDiurnal,
                     serve::TraceProfile::kBursts, serve::TraceProfile::kMmpp},
                    serve::trace_profile_from_string);
  expect_round_trip({accel::Architecture::kMonolithicCrossLight,
                     accel::Architecture::kElec2p5D,
                     accel::Architecture::kSiph2p5D},
                    engine::architecture_from_string);
  expect_round_trip(
      {photonics::ModulationFormat::kOok, photonics::ModulationFormat::kPam4},
      engine::modulation_from_string);
  expect_round_trip({cluster::BalancerPolicy::kRoundRobin,
                     cluster::BalancerPolicy::kLeastLoaded,
                     cluster::BalancerPolicy::kLocalityAware},
                    cluster::balancer_policy_from_string);
}

}  // namespace
}  // namespace optiplet::core
