#include "core/dse.hpp"

#include "core/report.hpp"
#include "dnn/zoo.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "util/require.hpp"

namespace optiplet::core {

std::vector<DsePoint> explore(const DseOptions& options,
                              const SystemConfig& base) {
  OPTIPLET_REQUIRE(!options.wavelengths.empty(), "empty wavelength axis");
  OPTIPLET_REQUIRE(!options.gateways_per_chiplet.empty(),
                   "empty gateway axis");
  OPTIPLET_REQUIRE(!options.modulations.empty(), "empty modulation axis");

  // Expand at SiPh so shapes whose link budget cannot close are dropped
  // for every architecture option (the pre-engine behavior), then run
  // the surviving specs on the requested architecture. Each feasible
  // shape is one contiguous models-sized block.
  engine::ScenarioGrid grid;
  grid.models = options.models;
  grid.wavelengths = options.wavelengths;
  grid.gateways_per_chiplet = options.gateways_per_chiplet;
  grid.modulations = options.modulations;
  grid.fidelities = {Fidelity::kAnalytical};  // DSE has no fidelity knob
  std::vector<engine::ScenarioSpec> specs = grid.expand(base);
  for (auto& spec : specs) {
    spec.arch = options.arch;
  }

  engine::SweepOptions sweep_options;
  sweep_options.threads = options.threads;
  engine::SweepRunner runner(base, sweep_options);
  const auto results = runner.run(specs);

  const std::size_t models = options.models.empty()
                                 ? dnn::zoo::model_names().size()
                                 : options.models.size();
  std::vector<DsePoint> points;
  points.reserve(specs.size() / models);
  for (std::size_t first = 0; first < specs.size(); first += models) {
    std::vector<RunResult> runs;
    runs.reserve(models);
    for (std::size_t m = first; m < first + models; ++m) {
      runs.push_back(results[m].run);
    }
    const auto avg = average_runs("dse", runs);
    DsePoint p;
    p.wavelengths = specs[first].wavelengths;
    p.gateways_per_chiplet = specs[first].gateways_per_chiplet;
    p.modulation = specs[first].modulation;
    p.latency_s = avg.latency_s;
    p.power_w = avg.power_w;
    p.epb_j_per_bit = avg.epb_j_per_bit;
    points.push_back(p);
  }
  mark_pareto(points);
  return points;
}

void mark_pareto(std::vector<DsePoint>& points) {
  for (auto& p : points) {
    p.pareto = true;
    for (const auto& other : points) {
      const bool dominates =
          other.latency_s <= p.latency_s && other.power_w <= p.power_w &&
          (other.latency_s < p.latency_s || other.power_w < p.power_w);
      if (dominates) {
        p.pareto = false;
        break;
      }
    }
  }
}

}  // namespace optiplet::core
