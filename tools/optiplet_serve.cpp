/// \file optiplet_serve.cpp
/// Command-line front end of the request-level serving simulator: declare
/// the tenant mix, offered-load points, and batching policies; evaluate
/// the (rates x policies x fidelities) serving grid on a worker pool; and
/// dump the tail-latency/throughput/energy columns as CSV. Giving
/// --packages turns every scenario into a rack of interposer packages
/// behind one front-end load balancer, adding the (packages x balancers x
/// replication) axes and the transfer columns.
///
/// Examples:
///   optiplet_serve --tenants LeNet5 --rates 500,1000,2000
///   optiplet_serve --tenants MobileNetV2,ResNet50 --rates 400 \
///       --policies none,deadline --max-batch 8 --max-wait 2e-3
///   optiplet_serve --tenants LeNet5 --rates 1000 --fidelity cycle
///   optiplet_serve --tenants DenseNet121 --rates 300 \
///       --fidelity sampled:windows=8,seed=1
///   optiplet_serve --tenants ResNet50,DenseNet121 --rates 300 \
///       --pipelines batch,layer
///   optiplet_serve --tenants LeNet5 --users 8,32,128 --think 5e-3
///   optiplet_serve --tenants ResNet50,DenseNet121 --priorities 0,1 \
///       --admission all,shed --rates 600
///   optiplet_serve --trace arrivals.csv --tenants LeNet5 --policies size
///   optiplet_serve --tenants TinyGPT --rates 50,100 --policies cont \
///       --prefill-tokens 256 --decode-tokens 64 --kv-cache-mb 256
///   optiplet_serve --tenants LeNet5 --rates 500 --admission shed \
///       --elastics static,shift=0.2/gate=1e-3:1e-4/bucket=3600 \
///       --curve-out day_curve.csv
///   optiplet_serve --tenants LeNet5 --packages 1,2,4 --rates 2000
///   optiplet_serve --tenants ResNet50,LeNet5 --packages 2 \
///       --balancers rr,least --replication-mix 1+2
///   optiplet_serve --tenants LeNet5 --packages 4 --replication 4 \
///       --balancers locality --rates 4000

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli_support.hpp"
#include "cluster/cluster_simulator.hpp"
#include "dnn/zoo.hpp"
#include "engine/result_store.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/recorder.hpp"
#include "serve/serving_simulator.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace optiplet;
using cli::join;
using cli::split;

std::string format_us(double seconds) {
  return util::format_fixed(seconds * 1e6, 1);
}

}  // namespace

int main(int argc, char** argv) {
  engine::ScenarioGrid grid;
  grid.serving_defaults.requests = 2000;
  std::vector<std::string> tenants = {"LeNet5"};
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  std::size_t threads = 0;
  std::string out_path = "serve.csv";
  std::string trace_out;
  std::string metrics_out;
  std::string curve_out;
  double snapshot_period_s = 0.0;
  cli::Logger log;
  // A rack flag records its name: without --packages the run is a lone
  // package, which would silently ignore it.
  std::string rack_flag;
  const auto rack_only = [&rack_flag](const char* flag,
                                      cli::OptionSet::Parse parse) {
    return [&rack_flag, flag, parse = std::move(parse)](
               const std::string& value) {
      rack_flag = flag;
      return parse(value);
    };
  };

  cli::OptionSet options_set(
      "optiplet_serve",
      R"(optiplet_serve — request-level inference serving simulator

Serves a request stream against the 2.5D platform: open-loop (seeded
Poisson or replayed-trace) or closed-loop (client-pool) arrivals per
tenant, an admission/batching policy with optional SLA-aware shedding,
chiplet-pool partitioning between co-located tenants, and the
full-system simulator as the (memoized) batch service-time oracle.
Reports throughput, goodput, p50/p95/p99 latency, SLA violations, shed
counts, utilization, and energy per request.

With --packages the same stream feeds a rack of N interposer packages
(each a full Table-1 chiplet pool wrapping its own serving simulator)
joined by board-level photonic links. A front-end load balancer picks
the serving replica per request; off-ingress requests pay the photonic
link-budget transfer cost, reported as transfer counts and energy.)");
  options_set
      .add("--tenants", "NAMES",
           "comma list of co-located registry models\n"
           "(default LeNet5; see --list-models)",
           cli::store_model_list(tenants))
      .add("--rates", "LIST",
           "comma list of aggregate offered loads [requests/s]\n"
           "(default 200; split evenly over the tenants;\n"
           "open-loop only)",
           cli::append_numbers(grid.arrival_rates_rps, "arrival rate",
                               cli::kPositive))
      .add("--policies", "LIST",
           "comma list of none|size|deadline|cont (default none;\n"
           "cont = continuous batching at token boundaries,\n"
           "transformer tenants only)",
           cli::append_choices(grid.batch_policies,
                               serve::batch_policy_from_string,
                               "batch policy", serve::batch_policy_choices()))
      .add("--pipelines", "LIST",
           "comma list of batch|layer execution granularities\n"
           "(default batch; layer = SET-style inter-layer\n"
           "pipelining with scarce-group handoff)",
           cli::append_choices(grid.pipeline_modes,
                               serve::pipeline_mode_from_string,
                               "pipeline mode", serve::pipeline_mode_choices()))
      .add("--sources", "LIST",
           "comma list of open|closed arrival sources\n"
           "(default open; closed = N users per tenant issuing\n"
           "one request each, thinking between responses)",
           cli::append_choices(grid.arrival_sources,
                               serve::arrival_source_from_string,
                               "arrival source",
                               serve::arrival_source_choices()))
      .add("--users", "LIST",
           "comma list of closed-loop users per tenant\n"
           "(default 16; implies --sources closed when\n"
           "--sources is not given)",
           cli::append_numbers(grid.user_counts, "user count", cli::kPositive))
      .add("--think", "S",
           "closed-loop mean exponential think time [s]\n"
           "(default 1e-2)",
           cli::store_number(grid.serving_defaults.think_s, "think time",
                             cli::kNonNegative))
      .add("--admission", "LIST",
           "comma list of all|shed (default all; shed rejects\n"
           "arrivals whose predicted completion misses the SLA)",
           cli::append_choices(grid.admission_policies,
                               serve::admission_policy_from_string,
                               "admission policy",
                               serve::admission_policy_choices()))
      .add("--priorities", "LIST",
           "comma list of per-tenant priority classes aligned\n"
           "with --tenants (lower = more important; default\n"
           "all 0); orders contended shared-resource grants",
           [&grid](const std::string& value) -> std::optional<std::string> {
             grid.serving_defaults.priority_mix = join(split(value, ','),
                                                       "+");
             return std::nullopt;
           })
      .add("--prefill-tokens", "LIST",
           "comma list of mean prompt lengths [tokens]; any\n"
           "positive value switches transformer tenants to\n"
           "variable-length prefill/decode pricing (default 0 =\n"
           "fixed-shape requests)",
           cli::append_numbers(grid.prefill_token_counts, "prefill tokens",
                               cli::kPositive))
      .add("--decode-tokens", "LIST",
           "comma list of mean generated lengths [tokens]; 0 =\n"
           "pure prefill (default 0; requires --prefill-tokens)",
           cli::append_numbers(grid.decode_token_counts, "decode tokens",
                               cli::kNonNegative))
      .add("--token-spread", "X",
           "relative half-width of the per-request uniform\n"
           "token-length draw, in [0,1); 0 = every request uses\n"
           "the mean lengths exactly (default 0)",
           cli::store_number(grid.serving_defaults.token_spread, "token spread",
                             cli::kNonNegative))
      .add("--kv-cache-mb", "MB",
           "per-tenant KV-cache activation budget [MiB]; caps\n"
           "concurrent decode slots per package (default 256)",
           cli::store_number(grid.serving_defaults.kv_cache_mb,
                             "KV-cache budget", cli::kPositive))
      .add("--elastics", "LIST",
           "comma list of elastic-operation policies as\n"
           "'/'-joined k=v codec strings (\"static\",\n"
           "\"shift=0.2/tau=60\", \"gate=1e-3:1e-4\",\n"
           "\"retry=4:2e-3\", \"fault=1.0:2:1:-1\",\n"
           "\"bucket=3600/carbon=400:0.5:86400\"; in a rack each\n"
           "package runs the policy on its own pool, and a\n"
           "fault=t:c:d:p entry is delivered only to package p\n"
           "(p=-1 hits all); see docs/elastic-operation.md;\n"
           "default static)",
           [&grid](const std::string& value) -> std::optional<std::string> {
             for (const std::string& part : split(value, ',')) {
               if (!serve::elastic_from_string(part)) {
                 return "unparseable elastic policy: " + part;
               }
               grid.elastic_policies.push_back(part);
             }
             return std::nullopt;
           })
      .add("--max-batch", "K",
           "batch bound for size/deadline/cont policies (default 8)",
           cli::store_number(grid.serving_defaults.max_batch, "max batch",
                             cli::kPositive))
      .add("--max-wait", "S",
           "deadline policy: max queue wait [s] (default 1e-3)",
           cli::store_number(grid.serving_defaults.max_wait_s, "max wait",
                             cli::kNonNegative))
      .add("--requests", "N", "total arrivals across tenants (default 2000)",
           cli::store_number(grid.serving_defaults.requests, "request count",
                             cli::kPositive))
      .add("--seed", "S", "arrival-process seed (default 42)",
           cli::store_number(grid.serving_defaults.seed, "seed",
                             cli::kNonNegative))
      .add("--sla", "S",
           "latency SLA [s]; 0 derives 10x the batch-1 service\n"
           "time per tenant (default 0)",
           cli::store_number(grid.serving_defaults.sla_s, "SLA",
                             cli::kNonNegative))
      .add("--trace", "FILE",
           "replay a CSV arrival trace (arrival_s[,tenant])\n"
           "instead of Poisson arrivals (see optiplet_tracegen)",
           cli::store_string(grid.serving_defaults.trace_path))
      .add("--packages", "LIST",
           "comma list of rack package counts; giving it makes\n"
           "every scenario a rack and enables the flags below\n"
           "up to --link-wavelengths (default: one lone package)",
           cli::append_numbers(grid.package_counts, "package count",
                               cli::kPositive))
      .add("--balancers", "LIST",
           "comma list of rr|least|locality (default locality)",
           rack_only("--balancers",
                     cli::append_choices(grid.balancer_policies,
                                         cluster::balancer_policy_from_string,
                                         "balancer policy",
                                         "rr, least, locality")))
      .add("--replication", "LIST",
           "comma list of replicas per tenant, each clamped to\n"
           "the package count (default 1)",
           rack_only("--replication",
                     cli::append_numbers(grid.replication_factors,
                                         "replication factor", cli::kPositive)))
      .add("--replication-mix", "M",
           "'+'-joined per-tenant replication factors aligned\n"
           "with --tenants (e.g. 1+2); overrides --replication",
           rack_only("--replication-mix",
                     cli::store_string(
                         grid.cluster_defaults.replication_mix)))
      .add("--link-length", "M",
           "board-level link length between packages [m]\n"
           "(default 0.25)",
           rack_only("--link-length",
                     cli::store_number(grid.cluster_defaults.link_length_m,
                                       "link length", cli::kPositive)))
      .add("--link-wavelengths", "N",
           "WDM channels per inter-package link (default 16)",
           rack_only("--link-wavelengths",
                     cli::store_number(grid.cluster_defaults.link_wavelengths,
                                       "link wavelength count",
                                       cli::kPositive)))
      .add("--arch", "NAME", "mono|elec|siph (default siph)",
           cli::store_choice(arch, engine::architecture_from_string,
                             "architecture", "mono, elec, siph"))
      .add("--fidelity", "LIST", cli::fidelity_help(),
           cli::append_fidelities(grid.fidelities))
      .add("--threads", "N",
           "worker threads; must be a positive integer\n"
           "(default: hardware concurrency)",
           cli::store_threads(threads))
      .add("--out", "FILE", "output CSV path (default serve.csv)",
           cli::store_string(out_path))
      .add("--trace-out", "FILE",
           "also run the first scenario with request-lifecycle\n"
           "tracing and write a Chrome trace-event / Perfetto\n"
           "JSON; rack packages map to trace processes (see\n"
           "docs/observability.md)",
           cli::store_string(trace_out))
      .add("--metrics-out", "FILE",
           "also run the first scenario with metric snapshots\n"
           "and write the long-format time series CSV\n"
           "(t_s,series,value; per-package series prefixed p<i>.)",
           cli::store_string(metrics_out))
      .add("--snapshot-period", "S",
           "sim-time between metric snapshots [s] (default:\n"
           "~64 snapshots across the arrival span)",
           cli::store_number(snapshot_period_s, "snapshot period",
                             cli::kPositive))
      .add("--curve-out", "FILE",
           "also run the first scenario and write its\n"
           "energy-per-request / carbon day curve as CSV\n"
           "(needs an elastic policy with bucket=<s>)",
           cli::store_string(curve_out));
  cli::add_log_flags(options_set, log)
      .add_action("--list-models",
                  "print the model registry (name, family, params) and exit",
                  cli::list_models_action())
      .set_epilog("Value flags also accept the --flag=value spelling "
                  "(e.g. --rates=500).");
  if (const auto exit_code = options_set.parse(argc, argv)) {
    return *exit_code;
  }

  if (!rack_flag.empty() && grid.package_counts.empty()) {
    return options_set.fail(rack_flag +
                            " shapes a rack: give --packages as well");
  }
  const bool rack = grid.cluster_mode();

  grid.architectures = {arch};
  grid.tenant_mixes = {join(tenants, "+")};
  if (grid.arrival_sources.empty()) {
    // A --users axis without --sources means closed loop: that is the
    // only source the axis is meaningful for.
    grid.arrival_sources = {grid.user_counts.empty()
                                ? grid.serving_defaults.source
                                : serve::ArrivalSource::kClosedLoop};
  }

  engine::SweepOptions options;
  options.threads = threads;
  if (log.debug_enabled()) {
    // Per-scenario lines replace the \r meter (they would interleave).
    options.scenario_progress =
        [&log](const engine::ScenarioProgress& p) {
          if (p.from_cache) {
            log.debug("[%zu/%zu] %s  (cache)\n", p.done, p.total,
                      p.key.c_str());
          } else {
            log.debug("[%zu/%zu] %s  %.3f s\n", p.done, p.total,
                      p.key.c_str(), p.wall_s);
          }
        };
  } else if (log.info_enabled()) {
    options.progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r%zu/%zu serving scenarios", done, total);
      if (done == total) {
        std::fputc('\n', stderr);
      }
    };
  }

  engine::SweepRunner runner(core::default_system_config(), options);
  log.info("Running on %zu worker threads\n", runner.threads());
  engine::ResultStore store;
  try {
    store.add_all(runner.run(grid));
  } catch (const std::exception& e) {
    return options_set.fail(std::string("serving sweep failed: ") +
                            e.what());
  }
  if (store.empty()) {
    log.result("No feasible serving scenarios — nothing to report.\n");
    return 1;
  }

  std::vector<std::string> header = {"Load", "Policy", "Pipe", "Adm", "Fid",
                                     "Thpt (r/s)", "Gput (r/s)", "Shed",
                                     "p50 (us)", "p99 (us)", "SLA viol",
                                     "Util", "E/req (mJ)"};
  if (rack) {
    // Racks append their shape and their inter-package transfer charges.
    header.insert(header.end(),
                  {"Pkgs", "Balancer", "Rep", "Xfers", "Xfer E (mJ)"});
  }
  util::TextTable table(header);
  for (const auto& r : store.results()) {
    const auto& m = *r.serving;
    const auto& s = *r.spec.serving;
    // The load knob differs by source: offered rate (open loop) versus
    // the user-pool size (closed loop).
    const std::string load =
        s.source == serve::ArrivalSource::kClosedLoop
            ? std::to_string(s.users) + "u"
            : util::format_fixed(s.arrival_rps, 0);
    std::vector<std::string> row = {
        load, serve::to_string(s.policy), serve::to_string(s.pipeline),
        serve::to_string(s.admission), core::to_string(r.spec.fidelity),
        util::format_fixed(m.throughput_rps, 0),
        util::format_fixed(m.goodput_rps, 0), std::to_string(m.shed),
        format_us(m.p50_s), format_us(m.p99_s),
        util::format_fixed(m.sla_violation_rate, 3),
        util::format_fixed(m.utilization, 3),
        util::format_fixed(m.energy_per_request_j * 1e3, 3)};
    if (rack) {
      const auto& cs = *r.spec.cluster;
      row.insert(row.end(),
                 {std::to_string(cs.packages), cluster::to_string(cs.balancer),
                  cs.replication_mix.empty() ? std::to_string(cs.replication)
                                             : cs.replication_mix,
                  std::to_string(r.cluster->transfers),
                  util::format_fixed(r.cluster->transfer_energy_j * 1e3, 3)});
    }
    table.add_row(std::move(row));
  }
  log.result("Serving %s on %s, %zu scenarios (%zu threads)\n\n",
             grid.tenant_mixes.front().c_str(), accel::to_string(arch),
             store.size(), runner.threads());
  log.result("%s", table.render().c_str());

  // Self-profiling footer: where the evaluation wall-clock went and how
  // the memo layers behaved (per-scenario columns land in the CSV).
  if (log.info_enabled()) {
    double eval_wall_s = 0.0;
    std::uint64_t sim_events = 0;
    std::uint64_t oracle_hits = 0;
    std::uint64_t oracle_misses = 0;
    const engine::ScenarioResult* slowest = nullptr;
    for (const auto& r : store.results()) {
      if (r.from_cache) {
        continue;
      }
      eval_wall_s += r.eval_wall_s;
      if (slowest == nullptr || r.eval_wall_s > slowest->eval_wall_s) {
        slowest = &r;
      }
      if (r.serving) {
        sim_events += r.serving->sim_events;
        oracle_hits += r.serving->service_cache_hits;
        oracle_misses += r.serving->service_cache_misses;
      }
    }
    log.info("\nProfile: %zu simulated + %zu memoized scenarios, %.2f s "
             "eval wall, %llu sim events, oracle cache %llu hits / %llu "
             "misses\n",
             runner.cache_entries(), runner.cache_hits(), eval_wall_s,
             static_cast<unsigned long long>(sim_events),
             static_cast<unsigned long long>(oracle_hits),
             static_cast<unsigned long long>(oracle_misses));
    if (slowest != nullptr) {
      log.info("Slowest scenario: %s (%.2f s)\n",
               slowest->spec.key().c_str(), slowest->eval_wall_s);
    }
  }

  if (!store.write_csv(out_path)) {
    return options_set.fail("cannot write " + out_path);
  }
  log.result("\nServing grid written to %s\n", out_path.c_str());

  // Observability exports re-run the FIRST scenario with a recorder
  // attached; the grid results and CSV above are untouched (the recorder
  // never changes simulation results, but the re-run keeps the sweep's
  // wall-clock honest when tracing is off).
  if (!trace_out.empty() || !metrics_out.empty() || !curve_out.empty()) {
    const engine::ScenarioSpec& spec = store.results().front().spec;
    obs::RecorderOptions recorder_options;
    recorder_options.trace = !trace_out.empty();
    recorder_options.metrics = !metrics_out.empty();
    recorder_options.snapshot_period_s = snapshot_period_s;
    obs::Recorder recorder(recorder_options);
    core::SystemConfig cfg = core::default_system_config();
    spec.apply(cfg);
    std::vector<serve::DayPoint> day_curve;
    try {
      if (spec.cluster) {
        day_curve = cluster::simulate({cfg, spec.arch, *spec.serving,
                                       *spec.cluster, /*threads=*/1,
                                       &recorder})
                        .day_curve;
      } else {
        serve::ServingConfig serving_config =
            serve::make_serving_config(cfg, spec.arch, *spec.serving);
        serving_config.recorder = &recorder;
        day_curve = serve::simulate(serving_config).day_curve;
      }
    } catch (const std::exception& e) {
      return options_set.fail(std::string("instrumented run failed: ") +
                              e.what());
    }
    if (!curve_out.empty()) {
      if (day_curve.empty()) {
        log.info("Warning: no day curve recorded — the elastic policy "
                 "needs bucket=<s> (see --elastics)\n");
      }
      util::CsvWriter csv(curve_out,
                          {"t0_s", "dt_s", "offered", "completed",
                           "energy_j", "energy_per_request_j", "carbon_g"});
      if (!csv.ok()) {
        return options_set.fail("cannot write " + curve_out);
      }
      for (const serve::DayPoint& point : day_curve) {
        csv.add_row({util::format_general(point.t0_s),
                     util::format_general(point.dt_s),
                     std::to_string(point.offered),
                     std::to_string(point.completed),
                     util::format_general(point.energy_j),
                     util::format_general(point.energy_per_request_j),
                     util::format_general(point.carbon_g)});
      }
      log.result("Day curve of %s (%zu buckets) written to %s\n",
                 spec.key().c_str(), day_curve.size(),
                 curve_out.c_str());
    }
    if (!trace_out.empty()) {
      if (!recorder.trace().write_json(trace_out)) {
        return options_set.fail("cannot write " + trace_out);
      }
      log.result("Trace of %s (%zu spans) written to %s\n",
                 spec.key().c_str(), recorder.trace().size(),
                 trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      if (!recorder.metrics().write_csv(metrics_out)) {
        return options_set.fail("cannot write " + metrics_out);
      }
      log.result("Metric snapshots of %s (%zu series) written to %s\n",
                 spec.key().c_str(), recorder.metrics().series_count(),
                 metrics_out.c_str());
    }
  }
  return 0;
}
