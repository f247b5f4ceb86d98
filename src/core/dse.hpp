#pragma once
/// \file dse.hpp
/// Design-space exploration over the photonic interposer (paper §VII, open
/// challenge 3: "the architecture requires design-space exploration, e.g.,
/// in terms of the number of wavelengths, number of gateways per chiplet,
/// and number of MACs per chiplet").
///
/// `explore()` sweeps interposer configurations, discards spectrally
/// infeasible ones (MRG rows that exceed the ring FSR), evaluates the rest
/// across a model set, and `mark_pareto()` flags the latency/power
/// efficient frontier. examples/design_space_exploration.cpp is a thin
/// client of this API.

#include <cstddef>
#include <vector>

#include "core/system_simulator.hpp"
#include "photonics/modulation.hpp"

namespace optiplet::core {

/// One evaluated interposer design point.
struct DsePoint {
  std::size_t wavelengths = 64;
  std::size_t gateways_per_chiplet = 4;
  photonics::ModulationFormat modulation =
      photonics::ModulationFormat::kOok;
  /// Averages across the evaluated model set.
  double latency_s = 0.0;
  double power_w = 0.0;
  double epb_j_per_bit = 0.0;
  /// On the latency/power Pareto frontier (set by mark_pareto).
  bool pareto = false;
};

/// Sweep axes. The three shape axes must be non-empty.
struct DseOptions {
  std::vector<std::size_t> wavelengths{16, 32, 64, 128};
  std::vector<std::size_t> gateways_per_chiplet{1, 2, 4, 8};
  std::vector<photonics::ModulationFormat> modulations{
      photonics::ModulationFormat::kOok};
  /// Model names to average over (Table-2 names); empty = all five.
  std::vector<std::string> models{};
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  /// Worker threads for the sweep (0 = hardware concurrency). Results are
  /// deterministic and identical for any thread count.
  std::size_t threads = 0;
};

/// Evaluate every feasible combination of the sweep axes on top of `base`.
/// Combinations where the wavelengths do not divide across the gateways,
/// or whose link budget cannot close, are skipped. Runs on the
/// engine::SweepRunner worker pool; point order is the deterministic
/// nested-loop order (wavelengths, then gateways, then modulation)
/// regardless of thread count.
[[nodiscard]] std::vector<DsePoint> explore(const DseOptions& options,
                                            const SystemConfig& base);

/// Flag the points not dominated on (latency_s, power_w): a point is
/// dominated when another is at least as good on both axes and strictly
/// better on one.
void mark_pareto(std::vector<DsePoint>& points);

}  // namespace optiplet::core
