#include "power/energy_ledger.hpp"

namespace optiplet::power {

double EnergyLedger::total_dynamic_energy_j() const {
  double total = 0.0;
  for (const auto& [name, entry] : entries_) {
    total += entry.dynamic_energy_j;
  }
  return total;
}

double EnergyLedger::total_static_power_w() const {
  double total = 0.0;
  for (const auto& [name, entry] : entries_) {
    total += entry.static_power_w;
  }
  return total;
}

double EnergyLedger::total_energy_j(double duration_s) const {
  OPTIPLET_REQUIRE(duration_s >= 0.0, "duration must be non-negative");
  return total_dynamic_energy_j() + total_static_power_w() * duration_s;
}

double EnergyLedger::average_power_w(double duration_s) const {
  OPTIPLET_REQUIRE(duration_s > 0.0, "duration must be positive");
  return total_energy_j(duration_s) / duration_s;
}

double EnergyLedger::energy_per_bit_j(double duration_s,
                                      std::uint64_t bits) const {
  OPTIPLET_REQUIRE(bits > 0, "energy per bit needs a positive bit count");
  return total_energy_j(duration_s) / static_cast<double>(bits);
}

void EnergyLedger::merge(const EnergyLedger& other) {
  // Merge-join: both maps are sorted by category, so one forward walk of
  // this ledger finds every match or insertion point. A self-merge sees
  // only matches, so nothing is inserted while `other` is walked.
  auto it = entries_.begin();
  for (const auto& [name, entry] : other.entries_) {
    int order = 1;  // stays non-zero unless `it` lands on `name`
    while (it != entries_.end() && (order = it->first.compare(name)) < 0) {
      ++it;
    }
    if (order != 0) {
      it = entries_.emplace_hint(it, name, EnergyEntry{});
    }
    it->second.dynamic_energy_j += entry.dynamic_energy_j;
    it->second.static_power_w += entry.static_power_w;
    ++it;
  }
}

}  // namespace optiplet::power
