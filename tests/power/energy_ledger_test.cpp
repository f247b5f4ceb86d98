#include "power/energy_ledger.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace optiplet::power {
namespace {

TEST(EnergyLedger, StartsEmpty) {
  EnergyLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_static_power_w(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(1.0), 0.0);
}

TEST(EnergyLedger, DynamicEnergyAccumulatesPerCategory) {
  EnergyLedger ledger;
  ledger.charge_energy("laser", 1.0);
  ledger.charge_energy("laser", 2.0);
  ledger.charge_energy("rings", 0.5);
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 3.5);
  EXPECT_DOUBLE_EQ(ledger.entries().at("laser").dynamic_energy_j, 3.0);
}

TEST(EnergyLedger, StaticPowerIntegratesOverDuration) {
  EnergyLedger ledger;
  ledger.add_static_power("router", 2.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(3.0), 6.0);
  EXPECT_DOUBLE_EQ(ledger.average_power_w(3.0), 2.0);
}

TEST(EnergyLedger, ChargePowerForDutyCycledComponents) {
  EnergyLedger ledger;
  ledger.charge_power_for("gateway", 10.0, 0.25);
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 2.5);
}

TEST(EnergyLedger, MixedStaticAndDynamic) {
  EnergyLedger ledger;
  ledger.add_static_power("noc", 1.0);
  ledger.charge_energy("noc", 4.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(2.0), 6.0);
  EXPECT_DOUBLE_EQ(ledger.average_power_w(2.0), 3.0);
}

TEST(EnergyLedger, EnergyPerBit) {
  EnergyLedger ledger;
  ledger.charge_energy("x", 1e-6);
  EXPECT_DOUBLE_EQ(ledger.energy_per_bit_j(1.0, 1000), 1e-9);
}

TEST(EnergyLedger, MergeCombinesCategories) {
  EnergyLedger a;
  a.charge_energy("laser", 1.0);
  a.add_static_power("laser", 2.0);
  EnergyLedger b;
  b.charge_energy("laser", 3.0);
  b.charge_energy("rings", 1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.entries().at("laser").dynamic_energy_j, 4.0);
  EXPECT_DOUBLE_EQ(a.entries().at("laser").static_power_w, 2.0);
  EXPECT_DOUBLE_EQ(a.entries().at("rings").dynamic_energy_j, 1.0);
}

/// The per-key merge the merge-join must reproduce bit for bit: one map
/// lookup (inserting a zero entry) per source category.
std::map<std::string, EnergyEntry> naive_merge(
    std::map<std::string, EnergyEntry> into,
    const std::map<std::string, EnergyEntry>& from) {
  for (const auto& [name, entry] : from) {
    into[name].dynamic_energy_j += entry.dynamic_energy_j;
    into[name].static_power_w += entry.static_power_w;
  }
  return into;
}

/// A ledger over `names`, with seeded non-round values so the sums carry
/// rounding that an out-of-order fold would change.
EnergyLedger seeded_ledger(const std::vector<std::string>& names,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  EnergyLedger ledger;
  for (const auto& name : names) {
    ledger.charge_energy(name, value(rng) * 1e-3);
    if (rng() % 2 == 0) {
      ledger.add_static_power(name, value(rng));
    }
  }
  return ledger;
}

void expect_merge_matches_naive(const EnergyLedger& target,
                                const EnergyLedger& source) {
  const auto expected = naive_merge(target.entries(), source.entries());
  EnergyLedger merged = target;
  merged.merge(source);
  ASSERT_EQ(merged.entries().size(), expected.size());
  auto it = merged.entries().begin();
  for (const auto& [name, entry] : expected) {
    SCOPED_TRACE(name);
    EXPECT_EQ(it->first, name);
    EXPECT_EQ(it->second.dynamic_energy_j, entry.dynamic_energy_j);
    EXPECT_EQ(it->second.static_power_w, entry.static_power_w);
    ++it;
  }
}

TEST(EnergyLedger, MergeJoinMatchesPerKeyMergeBitForBit) {
  const std::vector<std::string> a = {"compute.laser", "mrg.tuning",
                                      "noc.laser"};
  const std::vector<std::string> b = {"aaa", "compute.dynamic",
                                      "memory.read", "zzz"};
  const std::vector<std::string> evens = {"c0", "c2", "c4", "c6"};
  const std::vector<std::string> odds = {"c1", "c3", "c5", "c7"};
  const std::vector<std::string> mixed = {"c0", "c1", "c3", "c6", "c9"};
  for (const std::uint64_t seed : {1ULL, 7ULL, 9173ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const EnergyLedger empty;
    // Empty target, empty source, both empty.
    expect_merge_matches_naive(empty, seeded_ledger(a, seed));
    expect_merge_matches_naive(seeded_ledger(a, seed), empty);
    expect_merge_matches_naive(empty, empty);
    // Disjoint sets, each side entirely before or around the other.
    expect_merge_matches_naive(seeded_ledger(a, seed),
                               seeded_ledger(b, seed + 1));
    expect_merge_matches_naive(seeded_ledger(b, seed),
                               seeded_ledger(a, seed + 1));
    // Interleaved sets: every new category lands between existing ones.
    expect_merge_matches_naive(seeded_ledger(evens, seed),
                               seeded_ledger(odds, seed + 1));
    // Partial overlap with insertions before, between and after matches.
    expect_merge_matches_naive(seeded_ledger(evens, seed),
                               seeded_ledger(mixed, seed + 1));
    expect_merge_matches_naive(seeded_ledger(mixed, seed),
                               seeded_ledger(evens, seed + 1));
    // Identical category sets.
    expect_merge_matches_naive(seeded_ledger(mixed, seed),
                               seeded_ledger(mixed, seed + 1));
  }
}

TEST(EnergyLedger, SelfMergeDoublesEveryEntry) {
  EnergyLedger ledger =
      seeded_ledger({"c0", "c1", "mrg.tuning", "noc.laser"}, 42);
  const auto expected = naive_merge(ledger.entries(), ledger.entries());
  ledger.merge(ledger);
  ASSERT_EQ(ledger.entries().size(), expected.size());
  for (const auto& [name, entry] : expected) {
    SCOPED_TRACE(name);
    EXPECT_EQ(ledger.entries().at(name).dynamic_energy_j,
              entry.dynamic_energy_j);
    EXPECT_EQ(ledger.entries().at(name).static_power_w, entry.static_power_w);
  }
}

TEST(EnergyLedger, ResetClearsEverything) {
  EnergyLedger ledger;
  ledger.charge_energy("x", 1.0);
  ledger.reset();
  EXPECT_TRUE(ledger.entries().empty());
}

TEST(EnergyLedger, RejectsInvalidCharges) {
  EnergyLedger ledger;
  EXPECT_THROW(ledger.charge_energy("x", -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.add_static_power("x", -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.charge_power_for("x", -1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(ledger.charge_power_for("x", 1.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW((void)ledger.average_power_w(0.0), std::invalid_argument);
  EXPECT_THROW((void)ledger.energy_per_bit_j(1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::power
