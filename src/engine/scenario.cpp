#include "engine/scenario.hpp"

#include <algorithm>
#include <array>
#include <functional>
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
};

/// Registry of sweepable SystemConfig fields, sorted by name. Values are
/// doubles; integral fields round via static_cast after a range check is
/// left to OPTIPLET_REQUIRE in the consumers.
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
     }},
    {"parameter_bits",
     [](core::SystemConfig& c, double v) {
       c.parameter_bits = static_cast<unsigned>(v);
     }},
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
     }},
    {"resipi.target_utilization",
     [](core::SystemConfig& c, double v) {
       c.resipi.target_utilization = v;
     }},
}};

}  // namespace

bool apply_override(core::SystemConfig& config, const std::string& name,
                    double value) {
  for (const auto& entry : kOverrides) {
    if (name == entry.name) {
      entry.set(config, value);
      return true;
    }
  }
  return false;
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

std::size_t ScenarioGrid::raw_size() const {
  const auto axis = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  std::size_t size = axis(models.empty() ? dnn::zoo::model_names().size()
                                         : models.size());
  size *= axis(architectures.size());
  size *= axis(batch_sizes.size());
  size *= axis(wavelengths.size());
  size *= axis(gateways_per_chiplet.size());
  size *= axis(modulations.size());
  size *= axis(fidelities.size());
  for (const auto& [name, values] : override_axes) {
    (void)name;
    size *= axis(values.size());
  }
  if (serving_mode()) {
    // `models` is replaced by the tenant-mix axis in serving mode.
    size /= axis(models.empty() ? dnn::zoo::model_names().size()
                                : models.size());
    size *= axis(tenant_mixes.size());
    size *= axis(arrival_rates_rps.size());
    size *= axis(batch_policies.size());
    size *= axis(pipeline_modes.size());
    size *= axis(arrival_sources.size());
    size *= axis(user_counts.size());
    size *= axis(admission_policies.size());
    size *= axis(prefill_token_counts.size());
    size *= axis(decode_token_counts.size());
    size *= axis(elastic_policies.size());
  }
  if (cluster_mode()) {
    size *= axis(package_counts.size());
    size *= axis(balancer_policies.size());
    size *= axis(replication_factors.size());
  }
  return size;
}

std::vector<ScenarioSpec> ScenarioGrid::expand(
    const core::SystemConfig& base) const {
  const bool serving = serving_mode();
  // In serving mode the "model" axis enumerates tenant mixes; every mix
  // component must still resolve in the zoo.
  const std::vector<std::string> model_axis =
      serving ? (tenant_mixes.empty()
                     ? std::vector<std::string>{serving_defaults.tenant_mix}
                     : tenant_mixes)
              : (models.empty() ? dnn::zoo::model_names() : models);
  for (const auto& name : model_axis) {
    for (const auto& component :
         serving ? serve::split_mix(name) : std::vector<std::string>{name}) {
      // Fail fast on unknown models without building the known ones.
      (void)dnn::ModelRegistry::instance().at(component);
    }
  }
  const std::vector<double> rate_axis =
      arrival_rates_rps.empty()
          ? std::vector<double>{serving_defaults.arrival_rps}
          : arrival_rates_rps;
  const std::vector<serve::BatchPolicy> policy_axis =
      batch_policies.empty()
          ? std::vector<serve::BatchPolicy>{serving_defaults.policy}
          : batch_policies;
  const std::vector<serve::PipelineMode> pipeline_axis =
      pipeline_modes.empty()
          ? std::vector<serve::PipelineMode>{serving_defaults.pipeline}
          : pipeline_modes;
  const std::vector<serve::ArrivalSource> source_axis =
      arrival_sources.empty()
          ? std::vector<serve::ArrivalSource>{serving_defaults.source}
          : arrival_sources;
  const std::vector<unsigned> users_axis =
      user_counts.empty() ? std::vector<unsigned>{serving_defaults.users}
                          : user_counts;
  const std::vector<serve::AdmissionPolicy> admission_axis =
      admission_policies.empty()
          ? std::vector<serve::AdmissionPolicy>{serving_defaults.admission}
          : admission_policies;
  const std::vector<std::uint32_t> prefill_axis =
      prefill_token_counts.empty()
          ? std::vector<std::uint32_t>{serving_defaults.prefill_tokens}
          : prefill_token_counts;
  const std::vector<std::uint32_t> decode_axis =
      decode_token_counts.empty()
          ? std::vector<std::uint32_t>{serving_defaults.decode_tokens}
          : decode_token_counts;
  // Parse the elastic-policy axis up front: an unparseable policy string
  // fails the whole expansion, not the Nth spec.
  std::vector<serve::ElasticSpec> elastic_axis{serving_defaults.elastic};
  if (!elastic_policies.empty()) {
    elastic_axis.clear();
    for (const std::string& policy : elastic_policies) {
      const std::optional<serve::ElasticSpec> parsed =
          serve::elastic_from_string(policy);
      OPTIPLET_REQUIRE(parsed.has_value(),
                       "unparseable elastic policy: " + policy);
      elastic_axis.push_back(*parsed);
    }
  }
  const std::vector<std::size_t> package_axis =
      package_counts.empty()
          ? std::vector<std::size_t>{cluster_defaults.packages}
          : package_counts;
  const std::vector<cluster::BalancerPolicy> balancer_axis =
      balancer_policies.empty()
          ? std::vector<cluster::BalancerPolicy>{cluster_defaults.balancer}
          : balancer_policies;
  const std::vector<std::size_t> replication_axis =
      replication_factors.empty()
          ? std::vector<std::size_t>{cluster_defaults.replication}
          : replication_factors;
  const std::vector<accel::Architecture> arch_axis =
      architectures.empty()
          ? std::vector<accel::Architecture>{accel::Architecture::kSiph2p5D}
          : architectures;
  const std::vector<unsigned> batch_axis =
      batch_sizes.empty() ? std::vector<unsigned>{base.batch_size}
                          : batch_sizes;
  const std::vector<std::size_t> wl_axis =
      wavelengths.empty()
          ? std::vector<std::size_t>{base.photonic.total_wavelengths}
          : wavelengths;
  const std::vector<std::size_t> gw_axis =
      gateways_per_chiplet.empty()
          ? std::vector<std::size_t>{base.photonic.gateways_per_chiplet}
          : gateways_per_chiplet;
  const std::vector<photonics::ModulationFormat> mod_axis =
      modulations.empty()
          ? std::vector<photonics::ModulationFormat>{base.photonic.modulation}
          : modulations;
  const std::vector<core::FidelitySpec> fid_axis =
      fidelities.empty() ? std::vector<core::FidelitySpec>{base.fidelity}
                         : fidelities;

  const auto keys = override_keys();
  for (std::size_t i = 0; i < override_axes.size(); ++i) {
    const auto& [name, values] = override_axes[i];
    OPTIPLET_REQUIRE(
        std::find(keys.begin(), keys.end(), name) != keys.end(),
        "unknown SystemConfig override key: " + name);
    OPTIPLET_REQUIRE(!values.empty(),
                     "empty override axis for key: " + name);
    for (std::size_t j = 0; j < i; ++j) {
      OPTIPLET_REQUIRE(override_axes[j].first != name,
                       "duplicate override axis for key: " + name);
    }
  }

  std::vector<ScenarioSpec> specs;
  // Recursive cartesian product over the override axes; the first-class
  // axes nest around it (see header for the documented order).
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
          for (const auto& model : model_axis) {
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

  for (const auto fid : fid_axis) {
    for (const std::size_t wl : wl_axis) {
      for (const std::size_t gw : gw_axis) {
        for (const auto mod : mod_axis) {
          for (const unsigned batch : batch_axis) {
            ScenarioSpec partial;
            partial.fidelity = fid;
            partial.wavelengths = wl;
            partial.gateways_per_chiplet = gw;
            partial.modulation = mod;
            partial.batch_size = batch;
            if (!serving) {
              expand_axis(0, partial);
              continue;
            }
            for (const double rate : rate_axis) {
              for (const serve::BatchPolicy policy : policy_axis) {
                for (const serve::PipelineMode pipeline : pipeline_axis) {
                  for (const serve::ArrivalSource source : source_axis) {
                    for (const unsigned users : users_axis) {
                      for (const serve::AdmissionPolicy admission :
                           admission_axis) {
                        for (const std::uint32_t prefill : prefill_axis) {
                          for (const std::uint32_t decode : decode_axis) {
                            for (const serve::ElasticSpec& elastic :
                                 elastic_axis) {
                              partial.serving = serving_defaults;
                              partial.serving->arrival_rps = rate;
                              partial.serving->policy = policy;
                              partial.serving->pipeline = pipeline;
                              partial.serving->source = source;
                              partial.serving->users = users;
                              partial.serving->admission = admission;
                              partial.serving->prefill_tokens = prefill;
                              partial.serving->decode_tokens = decode;
                              partial.serving->elastic = elastic;
                              if (!cluster_mode()) {
                                expand_axis(0, partial);
                                continue;
                              }
                              for (const std::size_t packages :
                                   package_axis) {
                                for (const auto balancer : balancer_axis) {
                                  for (const std::size_t replication :
                                       replication_axis) {
                                    partial.cluster = cluster_defaults;
                                    partial.cluster->packages = packages;
                                    partial.cluster->balancer = balancer;
                                    partial.cluster->replication =
                                        replication;
                                    expand_axis(0, partial);
                                  }
                                }
                              }
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
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
