#include "core/dse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace optiplet::core {
namespace {

DsePoint make_point(double latency, double power) {
  DsePoint p;
  p.latency_s = latency;
  p.power_w = power;
  return p;
}

TEST(MarkPareto, SinglePointIsPareto) {
  std::vector<DsePoint> pts{make_point(1.0, 1.0)};
  mark_pareto(pts);
  EXPECT_TRUE(pts[0].pareto);
}

TEST(MarkPareto, DominatedPointExcluded) {
  std::vector<DsePoint> pts{make_point(1.0, 1.0), make_point(2.0, 2.0)};
  mark_pareto(pts);
  EXPECT_TRUE(pts[0].pareto);
  EXPECT_FALSE(pts[1].pareto);
}

TEST(MarkPareto, TradeoffPointsBothKept) {
  std::vector<DsePoint> pts{make_point(1.0, 3.0), make_point(3.0, 1.0)};
  mark_pareto(pts);
  EXPECT_TRUE(pts[0].pareto);
  EXPECT_TRUE(pts[1].pareto);
}

TEST(MarkPareto, EqualPointsBothPareto) {
  // Neither strictly dominates the other.
  std::vector<DsePoint> pts{make_point(1.0, 1.0), make_point(1.0, 1.0)};
  mark_pareto(pts);
  EXPECT_TRUE(pts[0].pareto);
  EXPECT_TRUE(pts[1].pareto);
}

TEST(MarkPareto, ChainKeepsOnlyFrontier) {
  std::vector<DsePoint> pts{make_point(1.0, 5.0), make_point(2.0, 3.0),
                            make_point(3.0, 2.0), make_point(4.0, 4.0),
                            make_point(5.0, 1.0)};
  mark_pareto(pts);
  EXPECT_TRUE(pts[0].pareto);
  EXPECT_TRUE(pts[1].pareto);
  EXPECT_TRUE(pts[2].pareto);
  EXPECT_FALSE(pts[3].pareto);  // dominated by (3,2)
  EXPECT_TRUE(pts[4].pareto);
}

TEST(Explore, SkipsIndivisibleAndInfeasibleCombos) {
  DseOptions options;
  options.wavelengths = {64, 128};
  options.gateways_per_chiplet = {3, 4};  // 3 never divides 64/128
  options.models = {"LeNet5"};            // keep it fast
  const auto points = explore(options, default_system_config());
  for (const auto& p : points) {
    EXPECT_EQ(p.wavelengths % p.gateways_per_chiplet, 0u);
    // 128 lambda / 4 gateways = 32-channel rows: infeasible, must be gone.
    EXPECT_FALSE(p.wavelengths == 128 && p.gateways_per_chiplet == 4);
  }
  // (64, 4) survives.
  bool found_table1 = false;
  for (const auto& p : points) {
    found_table1 |= p.wavelengths == 64 && p.gateways_per_chiplet == 4;
  }
  EXPECT_TRUE(found_table1);
}

TEST(Explore, PointsCarrySaneMetrics) {
  DseOptions options;
  options.wavelengths = {32, 64};
  options.gateways_per_chiplet = {4};
  options.models = {"LeNet5", "MobileNetV2"};
  const auto points = explore(options, default_system_config());
  ASSERT_EQ(points.size(), 2u);
  for (const auto& p : points) {
    EXPECT_GT(p.latency_s, 0.0);
    EXPECT_GT(p.power_w, 1.0);
    EXPECT_GT(p.epb_j_per_bit, 0.0);
  }
  // More wavelengths: never slower, never cheaper on power.
  EXPECT_LE(points[1].latency_s, points[0].latency_s * 1.001);
  EXPECT_GE(points[1].power_w, points[0].power_w * 0.999);
}

TEST(Explore, AtLeastOneParetoPointAlways) {
  DseOptions options;
  options.wavelengths = {16, 64};
  options.gateways_per_chiplet = {2, 4};
  options.models = {"LeNet5"};
  const auto points = explore(options, default_system_config());
  ASSERT_FALSE(points.empty());
  bool any = false;
  for (const auto& p : points) {
    any |= p.pareto;
  }
  EXPECT_TRUE(any);
}

TEST(Explore, RejectsEmptyAxes) {
  DseOptions options;
  options.wavelengths = {};
  EXPECT_THROW(explore(options, default_system_config()),
               std::invalid_argument);
}

TEST(Explore, Pam4AxisWorks) {
  DseOptions options;
  options.wavelengths = {64};
  options.gateways_per_chiplet = {4};
  options.modulations = {photonics::ModulationFormat::kOok,
                         photonics::ModulationFormat::kPam4};
  options.models = {"VGG16"};
  const auto points = explore(options, default_system_config());
  ASSERT_EQ(points.size(), 2u);
  // PAM-4 buys bandwidth at a power cost.
  EXPECT_LE(points[1].latency_s, points[0].latency_s * 1.001);
  EXPECT_GT(points[1].power_w, points[0].power_w);
}

TEST(Explore, EveryArchitectureSweepsTheSameSiphFeasibleShapes) {
  // Shapes whose SiPh link budget cannot close are dropped for every
  // architecture, so the three platforms are compared point for point.
  DseOptions options;
  options.wavelengths = {32, 64, 128};
  options.gateways_per_chiplet = {3, 4, 8};
  options.modulations = {photonics::ModulationFormat::kOok,
                         photonics::ModulationFormat::kPam4};
  options.models = {"LeNet5"};
  options.threads = 1;
  const auto base = default_system_config();
  options.arch = accel::Architecture::kSiph2p5D;
  const auto siph = explore(options, base);
  ASSERT_FALSE(siph.empty());
  for (const auto arch : {accel::Architecture::kElec2p5D,
                          accel::Architecture::kMonolithicCrossLight}) {
    options.arch = arch;
    const auto points = explore(options, base);
    ASSERT_EQ(points.size(), siph.size()) << accel::to_string(arch);
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].wavelengths, siph[i].wavelengths);
      EXPECT_EQ(points[i].gateways_per_chiplet,
                siph[i].gateways_per_chiplet);
      EXPECT_EQ(points[i].modulation, siph[i].modulation);
      EXPECT_GT(points[i].latency_s, 0.0);
    }
    // The same shape list evaluated twice gives the same points.
    const auto again = explore(options, base);
    ASSERT_EQ(again.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(again[i].latency_s, points[i].latency_s);
      EXPECT_EQ(again[i].power_w, points[i].power_w);
      EXPECT_EQ(again[i].epb_j_per_bit, points[i].epb_j_per_bit);
      EXPECT_EQ(again[i].pareto, points[i].pareto);
    }
  }
  // Nested-loop order: wavelengths, then gateways, then modulation; the
  // 128-wavelength 4-gateway shape fails the budget and 3 never divides.
  std::string shapes;
  for (const auto& p : siph) {
    shapes += std::to_string(p.wavelengths) + "x" +
              std::to_string(p.gateways_per_chiplet) + "/" +
              photonics::to_string(p.modulation) + " ";
  }
  EXPECT_EQ(shapes,
            "32x4/OOK 32x4/PAM-4 32x8/OOK 32x8/PAM-4 64x4/OOK 64x4/PAM-4 "
            "64x8/OOK 64x8/PAM-4 128x8/OOK 128x8/PAM-4 ");
}

}  // namespace
}  // namespace optiplet::core
