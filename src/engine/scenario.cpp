#include "engine/scenario.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "dnn/registry.hpp"
#include "dnn/zoo.hpp"
#include "noc/photonic_interposer.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace optiplet::engine {
namespace {

struct OverrideEntry {
  const char* name;
  void (*set)(core::SystemConfig&, double);
  /// 0 for a real-valued field; otherwise the width in bits of the
  /// unsigned integer field, whose values must be whole numbers in
  /// [0, 2^bits) so the setter's cast is exact and defined.
  int integral_bits = 0;
};

/// Registry of sweepable SystemConfig fields, sorted by name. Values are
/// doubles; integral fields take only whole numbers that fit (see
/// check_override_value).
constexpr std::array<OverrideEntry, 12> kOverrides{{
    {"idle_power_fraction",
     [](core::SystemConfig& c, double v) { c.idle_power_fraction = v; }},
    {"layer_overhead_2p5d_s",
     [](core::SystemConfig& c, double v) { c.layer_overhead_2p5d_s = v; }},
    {"layer_overhead_monolithic_s",
     [](core::SystemConfig& c, double v) {
       c.layer_overhead_monolithic_s = v;
     }},
    {"monolithic_memory_bandwidth_bps",
     [](core::SystemConfig& c, double v) {
       c.monolithic_memory_bandwidth_bps = v;
     }},
    {"monolithic_onchip_buffer_bits",
     [](core::SystemConfig& c, double v) {
       c.monolithic_onchip_buffer_bits = static_cast<std::uint64_t>(v);
     },
     std::numeric_limits<std::uint64_t>::digits},
    {"parameter_bits",
     [](core::SystemConfig& c, double v) {
       c.parameter_bits = static_cast<unsigned>(v);
     },
     std::numeric_limits<unsigned>::digits},
    {"photonic.data_rate_per_wavelength_bps",
     [](core::SystemConfig& c, double v) {
       c.photonic.data_rate_per_wavelength_bps = v;
     }},
    {"photonic.gateway_clock_hz",
     [](core::SystemConfig& c, double v) {
       c.photonic.gateway_clock_hz = v;
     }},
    {"photonic.interposer_span_m",
     [](core::SystemConfig& c, double v) {
       c.photonic.interposer_span_m = v;
     }},
    {"resipi.epoch_s",
     [](core::SystemConfig& c, double v) { c.resipi.epoch_s = v; }},
    {"resipi.min_active_gateways",
     [](core::SystemConfig& c, double v) {
       c.resipi.min_active_gateways = static_cast<std::size_t>(v);
     },
     std::numeric_limits<std::size_t>::digits},
    {"resipi.target_utilization",
     [](core::SystemConfig& c, double v) {
       c.resipi.target_utilization = v;
     }},
}};

const OverrideEntry* find_override(const std::string& name) {
  for (const auto& entry : kOverrides) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

/// Throws, naming the key, when `value` does not fit an integral field: a
/// fraction would be truncated under a key that still spells it, and a
/// negative or oversized value makes the cast undefined.
void check_override_value(const OverrideEntry& entry, double value) {
  if (entry.integral_bits == 0) {
    return;
  }
  const bool fits = value >= 0.0 && value == std::floor(value) &&
                    value < std::ldexp(1.0, entry.integral_bits);
  OPTIPLET_REQUIRE(fits, std::string("override ") + entry.name + "=" +
                             util::format_general(value) +
                             " must be a whole number in [0, 2^" +
                             std::to_string(entry.integral_bits) + ")");
}

}  // namespace

bool apply_override(core::SystemConfig& config, const std::string& name,
                    double value) {
  const OverrideEntry* entry = find_override(name);
  if (entry == nullptr) {
    return false;
  }
  check_override_value(*entry, value);
  entry->set(config, value);
  return true;
}

std::vector<std::string> override_keys() {
  std::vector<std::string> keys;
  keys.reserve(kOverrides.size());
  for (const auto& entry : kOverrides) {
    keys.emplace_back(entry.name);
  }
  return keys;
}

void ScenarioSpec::apply(core::SystemConfig& config) const {
  config.photonic.total_wavelengths = wavelengths;
  config.photonic.gateways_per_chiplet = gateways_per_chiplet;
  config.photonic.modulation = modulation;
  config.fidelity = fidelity;
  config.batch_size = batch_size;
  for (const auto& [name, value] : overrides) {
    OPTIPLET_REQUIRE(apply_override(config, name, value),
                     "unknown SystemConfig override key: " + name);
  }
}

std::string ScenarioSpec::key() const {
  // Collapse duplicate override keys to the last occurrence first — the
  // effective value under apply()'s last-write-wins — then sort, so the
  // key never conflates specs whose application order differs.
  std::vector<std::pair<std::string, double>> sorted;
  for (const auto& entry : overrides) {
    const auto it =
        std::find_if(sorted.begin(), sorted.end(), [&entry](const auto& e) {
          return e.first == entry.first;
        });
    if (it != sorted.end()) {
      it->second = entry.second;
    } else {
      sorted.push_back(entry);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream os;
  os << "model=" << model << ";arch=" << accel::to_string(arch)
     << ";batch=" << batch_size << ";wl=" << wavelengths
     << ";gw=" << gateways_per_chiplet
     << ";mod=" << photonics::to_string(modulation)
     << ";fid=" << core::to_string(fidelity);
  for (const auto& [name, value] : sorted) {
    // 17 significant digits round-trip the double, keeping the key exact.
    os << ';' << name << '=' << util::format_general(value, 17);
  }
  if (serving) {
    os << ";serve.policy=" << serve::to_string(serving->policy)
       << ";serve.pipe=" << serve::to_string(serving->pipeline)
       << ";serve.batch=" << serving->max_batch
       << ";serve.wait=" << util::format_general(serving->max_wait_s, 17)
       << ";serve.mix=" << serving->tenant_mix
       << ";serve.sla=" << util::format_general(serving->sla_s, 17)
       << ";serve.adm=" << serve::to_string(serving->admission);
    if (serving->elastic.enabled()) {
      // Inert elastic policies add nothing: pre-elastic keys stay
      // byte-identical so existing memo caches and goldens survive.
      os << ";serve.elastic=" << serve::to_string(serving->elastic);
    }
    if (!serving->priority_mix.empty()) {
      // Empty means "all class 0"; an explicit mix is part of the
      // experiment identity (priority orders shared-resource grants).
      os << ";serve.prio=" << serving->priority_mix;
    }
    if (serving->prefill_tokens > 0) {
      // Token geometry only exists for variable-length (transformer)
      // scenarios; fixed-shape keys stay byte-identical to the pre-token
      // schema so existing memo caches and goldens survive.
      os << ";serve.prefill=" << serving->prefill_tokens
         << ";serve.decode=" << serving->decode_tokens
         << ";serve.spread="
         << util::format_general(serving->token_spread, 17)
         << ";serve.kv_mb="
         << util::format_general(serving->kv_cache_mb, 17);
    }
    if (!serving->trace_path.empty()) {
      // A replayed trace fully determines the arrivals: rate, request
      // count, and seed are ignored, so they must not split the memo
      // key. The source is NOT ignored — trace + closed loop is
      // *rejected* at evaluation — so it stays in the key lest an
      // invalid spec ride a valid spec's cached result (or vice versa,
      // order-dependently).
      os << ";serve.trace=" << serving->trace_path;
      if (serving->source != serve::ArrivalSource::kOpenLoop) {
        os << ";serve.src=" << serve::to_string(serving->source);
      }
    } else if (serving->source == serve::ArrivalSource::kClosedLoop) {
      // Closed loop ignores the offered rate: load is users/think-time.
      os << ";serve.src=closed;serve.users=" << serving->users
         << ";serve.think=" << util::format_general(serving->think_s, 17)
         << ";serve.n=" << serving->requests
         << ";serve.seed=" << serving->seed;
    } else {
      os << ";serve.rate=" << util::format_general(serving->arrival_rps, 17)
         << ";serve.n=" << serving->requests
         << ";serve.seed=" << serving->seed;
    }
  }
  if (cluster) {
    os << ";cluster.pkgs=" << cluster->packages
       << ";cluster.bal=" << cluster::to_string(cluster->balancer)
       << ";cluster.rep=" << cluster->replication
       << ";cluster.len=" << util::format_general(cluster->link_length_m, 17)
       << ";cluster.linkwl=" << cluster->link_wavelengths;
    if (!cluster->replication_mix.empty()) {
      // An explicit per-tenant mix overrides the scalar factor, so it is
      // part of the experiment identity.
      os << ";cluster.repmix=" << cluster->replication_mix;
    }
  }
  return os.str();
}

std::uint64_t ScenarioSpec::hash() const {
  // FNV-1a, 64-bit.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : key()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

bool feasible(const ScenarioSpec& spec, const core::SystemConfig& base) {
  if (spec.gateways_per_chiplet == 0 ||
      spec.wavelengths % spec.gateways_per_chiplet != 0) {
    return false;
  }
  if (spec.arch != accel::Architecture::kSiph2p5D) {
    return true;  // the photonic link budget only gates the SiPh platform
  }
  core::SystemConfig cfg = base;
  spec.apply(cfg);
  const noc::PhotonicInterposer probe(cfg.photonic, cfg.tech.photonic);
  return probe.link_budget_feasible();
}

namespace {

/// Which block of a spec an axis writes. Sweeping any serving axis makes
/// every spec a serving scenario; sweeping any cluster axis, a rack (which
/// is also a serving scenario, hence the order).
enum Tier { kShape, kServing, kCluster };

/// One swept axis: `size` values, the i-th imprinted by `set`. An empty
/// axis (size 0) leaves every spec at its default.
struct Axis {
  Tier tier;
  std::size_t size;
  std::function<void(ScenarioSpec&, std::size_t)> set;
};

template <typename T, typename Set>
Axis axis(Tier tier, const std::vector<T>& values, Set set) {
  return {tier, values.size(),
          [&values, set](ScenarioSpec& spec, std::size_t i) {
            set(spec, values[i]);
          }};
}

/// The grid's axes, outermost first: the nesting order of expand().
std::vector<Axis> axes(const ScenarioGrid& g) {
  using S = ScenarioSpec;
  return {
      axis(kShape, g.fidelities, [](S& s, auto v) { s.fidelity = v; }),
      axis(kShape, g.wavelengths, [](S& s, auto v) { s.wavelengths = v; }),
      axis(kShape, g.gateways_per_chiplet,
           [](S& s, auto v) { s.gateways_per_chiplet = v; }),
      axis(kShape, g.modulations, [](S& s, auto v) { s.modulation = v; }),
      axis(kShape, g.batch_sizes, [](S& s, auto v) { s.batch_size = v; }),
      axis(kServing, g.arrival_rates_rps,
           [](S& s, auto v) { s.serving->arrival_rps = v; }),
      axis(kServing, g.batch_policies,
           [](S& s, auto v) { s.serving->policy = v; }),
      axis(kServing, g.pipeline_modes,
           [](S& s, auto v) { s.serving->pipeline = v; }),
      axis(kServing, g.arrival_sources,
           [](S& s, auto v) { s.serving->source = v; }),
      axis(kServing, g.user_counts, [](S& s, auto v) { s.serving->users = v; }),
      axis(kServing, g.admission_policies,
           [](S& s, auto v) { s.serving->admission = v; }),
      axis(kServing, g.prefill_token_counts,
           [](S& s, auto v) { s.serving->prefill_tokens = v; }),
      axis(kServing, g.decode_token_counts,
           [](S& s, auto v) { s.serving->decode_tokens = v; }),
      axis(kServing, g.elastic_policies,
           [](S& s, const std::string& policy) {
             const auto parsed = serve::elastic_from_string(policy);
             OPTIPLET_REQUIRE(parsed.has_value(),
                              "unparseable elastic policy: " + policy);
             s.serving->elastic = *parsed;
           }),
      axis(kCluster, g.package_counts,
           [](S& s, auto v) { s.cluster->packages = v; }),
      axis(kCluster, g.balancer_policies,
           [](S& s, auto v) { s.cluster->balancer = v; }),
      axis(kCluster, g.replication_factors,
           [](S& s, auto v) { s.cluster->replication = v; }),
  };
}

/// The model axis: tenant mixes in serving mode (empty = the defaults'
/// mix), Table-2 models otherwise (empty = all five).
std::vector<std::string> model_axis(const ScenarioGrid& grid, bool serving) {
  if (serving) {
    return grid.tenant_mixes.empty()
               ? std::vector<std::string>{grid.serving_defaults.tenant_mix}
               : grid.tenant_mixes;
  }
  return grid.models.empty() ? dnn::zoo::model_names() : grid.models;
}

bool any_swept(const ScenarioGrid& grid, Tier tier) {
  const auto list = axes(grid);
  return std::any_of(list.begin(), list.end(), [tier](const Axis& a) {
    return a.size > 0 && a.tier >= tier;
  });
}

}  // namespace

bool ScenarioGrid::cluster_mode() const {
  return any_swept(*this, kCluster);
}

bool ScenarioGrid::serving_mode() const {
  return !tenant_mixes.empty() || any_swept(*this, kServing);
}

std::size_t ScenarioGrid::raw_size() const {
  const auto nonzero = [](std::size_t n) {
    return std::max<std::size_t>(n, 1);
  };
  std::size_t size = model_axis(*this, serving_mode()).size() *
                     nonzero(architectures.size());
  for (const Axis& a : axes(*this)) {
    size *= nonzero(a.size);
  }
  for (const auto& [name, values] : override_axes) {
    (void)name;
    size *= nonzero(values.size());
  }
  return size;
}

std::vector<ScenarioSpec> ScenarioGrid::expand(
    const core::SystemConfig& base) const {
  const bool serving = serving_mode();
  const std::vector<std::string> models_or_mixes = model_axis(*this, serving);
  for (const auto& name : models_or_mixes) {
    for (const auto& component :
         serving ? serve::split_mix(name) : std::vector<std::string>{name}) {
      // Fail fast on unknown models without building the known ones.
      (void)dnn::ModelRegistry::instance().at(component);
    }
  }

  // Fold the axes outermost first, so partials come out in nesting order;
  // unswept fields keep the base configuration's (or the defaults') value.
  ScenarioSpec seed;
  seed.fidelity = base.fidelity;
  seed.wavelengths = base.photonic.total_wavelengths;
  seed.gateways_per_chiplet = base.photonic.gateways_per_chiplet;
  seed.modulation = base.photonic.modulation;
  seed.batch_size = base.batch_size;
  if (serving) {
    seed.serving = serving_defaults;
  }
  if (cluster_mode()) {
    seed.cluster = cluster_defaults;
  }
  std::vector<ScenarioSpec> partials{seed};
  for (const Axis& a : axes(*this)) {
    if (a.size == 0) {
      continue;
    }
    std::vector<ScenarioSpec> next;
    next.reserve(partials.size() * a.size);
    for (const ScenarioSpec& partial : partials) {
      for (std::size_t i = 0; i < a.size; ++i) {
        next.push_back(partial);
        a.set(next.back(), i);
      }
    }
    partials = std::move(next);
  }

  const std::vector<accel::Architecture> arch_axis =
      architectures.empty()
          ? std::vector<accel::Architecture>{accel::Architecture::kSiph2p5D}
          : architectures;
  for (std::size_t i = 0; i < override_axes.size(); ++i) {
    const auto& [name, values] = override_axes[i];
    const OverrideEntry* entry = find_override(name);
    OPTIPLET_REQUIRE(entry != nullptr,
                     "unknown SystemConfig override key: " + name);
    OPTIPLET_REQUIRE(!values.empty(),
                     "empty override axis for key: " + name);
    for (const double value : values) {
      check_override_value(*entry, value);
    }
    for (std::size_t j = 0; j < i; ++j) {
      OPTIPLET_REQUIRE(override_axes[j].first != name,
                       "duplicate override axis for key: " + name);
    }
  }

  std::vector<ScenarioSpec> specs;
  // Recursive cartesian product over the override axes, inside each
  // partial (see header for the documented order).
  std::vector<std::pair<std::string, double>> current_overrides;
  const std::function<void(std::size_t, const ScenarioSpec&)> expand_axis =
      [&](std::size_t axis_index, const ScenarioSpec& partial) {
        if (axis_index < override_axes.size()) {
          const auto& [name, values] = override_axes[axis_index];
          for (const double value : values) {
            current_overrides.emplace_back(name, value);
            expand_axis(axis_index + 1, partial);
            current_overrides.pop_back();
          }
          return;
        }
        // Feasibility depends only on the interposer shape (plus, for
        // SiPh, the applied overrides) — never on the model — so probe
        // once per shape, not once per (architecture, model).
        ScenarioSpec shape = partial;
        shape.overrides = current_overrides;
        const bool divisible =
            shape.gateways_per_chiplet != 0 &&
            shape.wavelengths % shape.gateways_per_chiplet == 0;
        bool siph_feasible = false;
        bool siph_probed = false;
        for (const auto arch : arch_axis) {
          bool shape_ok = divisible;
          if (shape_ok && arch == accel::Architecture::kSiph2p5D) {
            if (!siph_probed) {
              shape.arch = accel::Architecture::kSiph2p5D;
              siph_feasible = feasible(shape, base);
              siph_probed = true;
            }
            shape_ok = siph_feasible;
          }
          if (!shape_ok) {
            continue;
          }
          for (const auto& model : models_or_mixes) {
            ScenarioSpec spec = partial;
            spec.model = model;
            spec.arch = arch;
            spec.overrides = current_overrides;
            if (spec.serving) {
              spec.serving->tenant_mix = model;
            }
            specs.push_back(std::move(spec));
          }
        }
      };
  for (const ScenarioSpec& partial : partials) {
    expand_axis(0, partial);
  }
  return specs;
}

std::optional<accel::Architecture> architecture_from_string(
    std::string_view name) {
  if (name == "mono" || name == "crosslight" ||
      name == accel::to_string(accel::Architecture::kMonolithicCrossLight)) {
    return accel::Architecture::kMonolithicCrossLight;
  }
  if (name == "elec" ||
      name == accel::to_string(accel::Architecture::kElec2p5D)) {
    return accel::Architecture::kElec2p5D;
  }
  if (name == "siph" ||
      name == accel::to_string(accel::Architecture::kSiph2p5D)) {
    return accel::Architecture::kSiph2p5D;
  }
  return std::nullopt;
}

std::optional<photonics::ModulationFormat> modulation_from_string(
    std::string_view name) {
  if (name == "ook" || name == "OOK") {
    return photonics::ModulationFormat::kOok;
  }
  if (name == "pam4" || name == "PAM-4" || name == "PAM4") {
    return photonics::ModulationFormat::kPam4;
  }
  return std::nullopt;
}

}  // namespace optiplet::engine
