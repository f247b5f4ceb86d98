/// \file perfbench.cpp
/// The optiplet benchmark: four workloads that each drive a different part
/// of the stack through the library's public API, timed in host seconds
/// from outside the library. See README.md in this directory for why each
/// workload exists and which layer metric should move which end-to-end
/// metric.
///
///   perfbench --workload cnn_day|llm_chat|rack16|cycle_zoo --seed N
///             --seconds S --trace 0|1 [--size full|smoke] [--out DIR]
///             [--source-id ID]
///   perfbench --self-test
///
/// The last stdout line is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). `attempted` counts output checks and `failed` the checks
/// that failed plus library calls that threw; error_rate = failed /
/// attempted.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_simulator.hpp"
#include "core/fidelity.hpp"
#include "core/system_config.hpp"
#include "core/system_simulator.hpp"
#include "dnn/registry.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "harness.hpp"
#include "obs/recorder.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"
#include "serve/tracegen.hpp"

namespace {

using namespace optiplet;
using perfbench::Checks;
using perfbench::Clock;
using perfbench::Metric;
using perfbench::MetricMap;
using perfbench::Tracer;
using perfbench::median;
using perfbench::seconds_since;

constexpr accel::Architecture kArch = accel::Architecture::kSiph2p5D;

/// Setups before the first call, enough for a steady median where calls
/// are few. One more follows every timed call, so the setup_s median
/// samples the whole run, not just its first moments.
constexpr int kInitialSetups = 20;
/// Timed calls per run at least, even past --seconds.
constexpr int kMinReps = 3;

/// Every per-layer metric the traced run reports, with its unit. A metric
/// of a layer the workload never calls reads 0 with n = 0.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
constexpr LayerMetricDef kLayerMetrics[] = {
    {"dnn.build_s", "s"},
    {"serve.config_s", "s"},
    {"serve.tracegen_s", "s"},
    {"serve.simulate_s", "s"},
    {"serve.events", "count"},
    {"serve.queue_peak", "count"},
    {"serve.events_per_s", "1/s"},
    {"serve.oracle_warm_s", "s"},
    {"serve.oracle_hits", "count"},
    {"serve.oracle_misses", "count"},
    {"serve.oracle_hit_ratio", "ratio"},
    {"serve.lookups_per_req", "1/req"},
    {"serve.quantile_s", "s"},
    {"serve.latency_samples", "count"},
    {"cluster.simulate_s", "s"},
    {"cluster.simulate_1t_s", "s"},
    {"cluster.thread_speedup", "ratio"},
    {"cluster.pkg_busy_s", "s"},
    {"cluster.pkg_max_s", "s"},
    {"cluster.outside_pkg_s", "s"},
    {"cluster.pkg_inflation", "ratio"},
    {"core.run_s.analytical", "s"},
    {"core.run_s.analytical.max", "s"},
    {"core.run_s.cycle", "s"},
    {"core.run_s.cycle.max", "s"},
    {"core.run_s.sampled", "s"},
    {"core.run_s.sampled.max", "s"},
    {"core.sampled_speedup", "ratio"},
    {"core.sampled_err_pct", "%"},
    {"noc.cycles_per_s", "1/s"},
    {"engine.sweep_s", "s"},
    {"engine.scenario_s", "s"},
    {"engine.scenario_max_s", "s"},
    {"engine.pool_eff", "ratio"},
    {"obs.attached_ratio", "ratio"},
    {"obs.metered_ratio", "ratio"},
};

void put(MetricMap& out, const std::string& name, double value,
         std::size_t n) {
  const auto it = out.find(name);
  if (it == out.end()) {
    throw std::logic_error("per-layer metric not declared: " + name);
  }
  it->second.value = value;
  it->second.n = n;
}

/// Median of the spans of one name into a per-layer metric.
void put_span(MetricMap& out, const Tracer& tracer, const std::string& span,
              const std::string& metric) {
  const std::vector<double> d = tracer.durations(span);
  put(out, metric, median(d), d.size());
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

/// The CPUs this process may run on.
cpu_set_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    CPU_SET(0, &set);
  }
  return set;
}

/// Pin the calling thread to the k-th allowed CPU (mod the allowed count).
void pin_to_nth(const cpu_set_t& allowed, std::size_t k) {
  const auto count = static_cast<std::size_t>(CPU_COUNT(&allowed));
  std::size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == k % count) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Build each model through the registry (the dnn layer's public entry).
void build_models(Tracer& tracer, const std::vector<std::string>& names) {
  const Tracer::Scope scope(tracer, "dnn.build");
  for (const std::string& name : names) {
    const dnn::Model model = dnn::ModelRegistry::instance().at(name).factory();
    if (model.layers().empty()) {
      throw std::runtime_error("model without layers: " + name);
    }
  }
}

std::vector<double> pool(const std::vector<std::vector<double>>& per_tenant) {
  std::vector<double> out;
  for (const auto& latencies : per_tenant) {
    out.insert(out.end(), latencies.begin(), latencies.end());
  }
  return out;
}

/// The output checks every serving result must pass: the drain identity,
/// the offered count against the generated input, and the reported
/// percentiles against nearest-rank quantiles the benchmark computes itself
/// from the raw latency samples.
void check_serving(const serve::ServingMetrics& m, std::vector<double> pooled,
                   std::uint64_t expected_offered, const std::string& label,
                   Checks& checks) {
  checks.expect(m.offered == m.completed + m.shed + m.abandoned,
                label + ": offered == completed + shed + abandoned");
  checks.expect(m.offered == expected_offered,
                label + ": offered == generated input (" +
                    std::to_string(m.offered) + " vs " +
                    std::to_string(expected_offered) + ")");
  checks.expect(pooled.size() == m.completed,
                label + ": one latency sample per completion");
  std::sort(pooled.begin(), pooled.end());
  checks.expect(perfbench::nearest_rank(pooled, 0.50) == m.p50_s,
                label + ": p50 == nearest-rank quantile of tenant_latencies");
  checks.expect(perfbench::nearest_rank(pooled, 0.99) == m.p99_s,
                label + ": p99 == nearest-rank quantile of tenant_latencies");
}

/// Time one exact quantile over the pooled samples (median of 5 calls).
void probe_quantile(const std::vector<double>& pooled, MetricMap& out) {
  std::vector<double> walls;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const double q = serve::exact_quantile(pooled, 0.99);
    walls.push_back(seconds_since(t0));
    if (q < 0.0) {
      throw std::runtime_error("negative latency quantile");
    }
  }
  put(out, "serve.quantile_s", median(walls), walls.size());
  put(out, "serve.latency_samples", static_cast<double>(pooled.size()), 1);
}

void put_oracle_counts(const serve::ServingMetrics& m, MetricMap& out) {
  const double hits = static_cast<double>(m.service_cache_hits);
  const double misses = static_cast<double>(m.service_cache_misses);
  put(out, "serve.oracle_hits", hits, 1);
  put(out, "serve.oracle_misses", misses, 1);
  put(out, "serve.oracle_hit_ratio",
      hits + misses > 0 ? hits / (hits + misses) : 0.0, 1);
  put(out, "serve.lookups_per_req",
      m.completed > 0 ? (hits + misses) / static_cast<double>(m.completed)
                      : 0.0,
      1);
}

/// serve.oracle_warm_s: the time a fresh oracle took per key it priced,
/// times the keys the workload's run missed on, so the figure stands for
/// the run's own key set even where the probe cannot reproduce it key for
/// key. Returns the figure; n is the number of keys priced.
double put_oracle_warm(MetricMap& out, double probe_s, std::size_t probe_keys,
                       std::uint64_t misses) {
  const double warm_s =
      probe_s / static_cast<double>(probe_keys) * static_cast<double>(misses);
  put(out, "serve.oracle_warm_s", warm_s, probe_keys);
  return warm_s;
}

std::string serving_stats(const serve::ServingMetrics& m) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "offered=%llu completed=%llu p50=%.9g s p99=%.9g s "
                "energy/req=%.9g J utilization=%.9g events=%llu",
                static_cast<unsigned long long>(m.offered),
                static_cast<unsigned long long>(m.completed), m.p50_s,
                m.p99_s, m.energy_per_request_j, m.utilization,
                static_cast<unsigned long long>(m.sim_events));
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  std::string out_dir;
  std::string source_id = "unknown";
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Model builds, config resolution, and input generation.
  virtual void setup(Tracer& tracer) = 0;
  /// One timed call into the library; returns the requests it completed.
  virtual std::uint64_t timed_call(Tracer& tracer) = 0;
  /// Output checks of the last timed call (outside the timed window).
  virtual void check(Checks& checks) = 0;
  /// Digest of the last call's deterministic outputs, with or without the
  /// simulator's work counters (see perfbench::digest).
  [[nodiscard]] virtual std::uint64_t digest(bool counters) const = 0;
  /// Simulated statistics of the last call, one line.
  [[nodiscard]] virtual std::string stats() const = 0;
  /// Threads the timed call uses.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
  /// Per-layer probes of the traced run, after the timed phase.
  virtual void probe_layers(const Tracer& tracer, Checks& checks,
                            MetricMap& out) = 0;
};

// ------------------------------------------------------------------ cnn_day
/// Open loop over two compressed diurnal days: LeNet5 and ResNet50 replay
/// anti-phase sinusoidal traces under deadline batching with elastic
/// re-partitioning and power-gating on.
class CnnDay final : public Workload {
 public:
  CnnDay(std::uint64_t seed, bool smoke)
      : seed_(seed), requests_(smoke ? 40000.0 : 2.0e5) {}

  void setup(Tracer& tracer) override {
    config_ = {};  // drop the previous setup's traces first
    build_models(tracer, {"LeNet5", "ResNet50"});
    const double duration_s = requests_ / (kLeNetBaseRps + kResNetBaseRps);
    const double period_s = duration_s / 2.0;  // two compressed days
    serve::ServingSpec spec;
    spec.tenant_mix = "LeNet5+ResNet50";
    spec.policy = serve::BatchPolicy::kDeadline;
    spec.max_batch = 8;
    spec.max_wait_s = 0.5e-3;
    spec.seed = seed_;
    spec.elastic.shift_threshold = 0.15;
    spec.elastic.ema_tau_s = period_s / 20.0;
    spec.elastic.cooldown_s = period_s / 8.0;
    spec.elastic.gate = true;
    spec.elastic.gate_after_s = 1.0e-4;
    spec.elastic.wake_s = 1.0e-5;
    {
      const Tracer::Scope scope(tracer, "serve.config");
      config_ = serve::make_serving_config(core::default_system_config(),
                                           kArch, spec);
    }
    // Anti-phase: ResNet50 peaks while LeNet5 troughs.
    config_.tenants[0].replay_trace = true;
    config_.tenants[0].trace_arrivals =
        diurnal(kLeNetBaseRps, duration_s, period_s, seed_ * 2 + 1, false,
                tracer);
    config_.tenants[1].replay_trace = true;
    config_.tenants[1].trace_arrivals =
        diurnal(kResNetBaseRps, duration_s, period_s, seed_ * 2 + 2, true,
                tracer);
    generated_ = config_.tenants[0].trace_arrivals.size() +
                 config_.tenants[1].trace_arrivals.size();
  }

  std::uint64_t timed_call(Tracer& tracer) override {
    report_ = {};  // one live report at a time keeps the peak RSS steady
    const Tracer::Scope scope(tracer, "serve.simulate");
    report_ = serve::simulate(config_);
    return report_.metrics.completed;
  }

  void check(Checks& checks) override {
    check_serving(report_.metrics, pool(report_.tenant_latencies), generated_,
                  "cnn_day", checks);
    checks.expect(report_.metrics.repartitions > 0,
                  "cnn_day: the diurnal shift re-partitions the pool");
    checks.expect(report_.metrics.gate_events > 0,
                  "cnn_day: idle gaps power-gate");
  }

  std::uint64_t digest(bool counters) const override {
    return perfbench::digest(report_.metrics, counters);
  }
  [[nodiscard]] const serve::ServingReport& last_report() const {
    return report_;
  }
  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  std::string stats() const override {
    return serving_stats(report_.metrics) +
           " repartitions=" + std::to_string(report_.metrics.repartitions);
  }

  void probe_layers(const Tracer& tracer, Checks& checks,
                    MetricMap& out) override {
    const serve::ServingMetrics& m = report_.metrics;
    put_span(out, tracer, "serve.simulate", "serve.simulate_s");
    put(out, "serve.events", static_cast<double>(m.sim_events), 1);
    put(out, "serve.queue_peak", static_cast<double>(m.sim_event_queue_peak),
        1);
    put_oracle_counts(m, out);

    // The (tenant, batch size) pairs the day actually dispatched, from a
    // recorded run, priced by a fresh oracle on the initial partition. Each
    // re-partition starts a new oracle generation that prices its pairs
    // again, so the run misses more often than there are pairs; the
    // per-key cost scales to that.
    serve::ServingConfig recorded = config_;
    recorded.record_batches = true;
    std::set<std::pair<std::size_t, unsigned>> pairs;
    for (const serve::BatchTrace& batch : serve::simulate(recorded).batches) {
      pairs.insert({batch.tenant, batch.size});
    }
    std::vector<double> probe;
    for (int trial = 0; trial < 3; ++trial) {
      const auto t0 = Clock::now();
      serve::ColocatedSetup setup = serve::make_colocated_setup(
          core::default_system_config(), kArch, {"LeNet5", "ResNet50"});
      serve::ServiceTimeOracle oracle(std::move(setup.oracle_tenants), kArch);
      for (const auto& [tenant, size] : pairs) {
        (void)oracle.batch_run(tenant, size);
      }
      probe.push_back(seconds_since(t0));
    }
    const double warm_s = put_oracle_warm(out, median(probe), pairs.size(),
                                          m.service_cache_misses);
    put(out, "serve.events_per_s",
        static_cast<double>(m.sim_events) /
            (out.at("serve.simulate_s").value - warm_s),
        1);
    probe_quantile(pool(report_.tenant_latencies), out);

    // Observability overhead: detached vs attached with collection off
    // (every hook branch taken, nothing recorded) vs metric snapshots on,
    // interleaved so drift hits all three alike.
    std::vector<double> detached;
    std::vector<double> attached;
    std::vector<double> metered;
    for (int trial = 0; trial < 5; ++trial) {
      for (int mode = 0; mode < 3; ++mode) {
        obs::RecorderOptions recording;
        recording.trace = false;
        recording.metrics = mode == 2;
        obs::Recorder recorder(recording);
        serve::ServingConfig config = config_;
        config.recorder = mode == 0 ? nullptr : &recorder;
        const auto t0 = Clock::now();
        const serve::ServingReport report = serve::simulate(config);
        (mode == 0 ? detached : mode == 1 ? attached : metered)
            .push_back(seconds_since(t0));
        if (mode == 1) {
          checks.expect(perfbench::digest(report.metrics, true) == digest(true),
                        "cnn_day: an attached recorder leaves the metrics "
                        "bit-identical");
        } else if (mode == 2) {
          checks.expect(report.metrics.p99_s == m.p99_s &&
                            report.metrics.completed == m.completed,
                        "cnn_day: metering leaves p99 and completions "
                        "unchanged");
        }
      }
    }
    put(out, "obs.attached_ratio", median(detached) / median(attached),
        attached.size());
    put(out, "obs.metered_ratio", median(detached) / median(metered),
        metered.size());
  }

 private:
  static constexpr double kLeNetBaseRps = 3000.0;
  static constexpr double kResNetBaseRps = 250.0;
  static constexpr double kAmplitude = 0.6;

  /// One tenant's diurnal trace. The generator has no phase knob, so the
  /// anti-phase trace shifts event times by half a period modulo the
  /// duration (the same construction as bench/elastic_day_sweep).
  static std::vector<double> diurnal(double base_rps, double duration_s,
                                     double period_s, std::uint64_t seed,
                                     bool anti_phase, Tracer& tracer) {
    serve::TraceGenSpec spec;
    spec.profile = serve::TraceProfile::kDiurnal;
    spec.base_rps = base_rps;
    spec.duration_s = duration_s;
    spec.period_s = period_s;
    spec.amplitude = kAmplitude;
    spec.seed = seed;
    std::vector<serve::TraceEvent> events;
    {
      const Tracer::Scope scope(tracer, "serve.tracegen");
      events = serve::generate_trace(spec);
    }
    std::vector<double> times;
    times.reserve(events.size());
    for (const serve::TraceEvent& event : events) {
      double t = event.arrival_s;
      if (anti_phase) {
        t += period_s / 2.0;
        if (t >= duration_s) {
          t -= duration_s;
        }
      }
      times.push_back(t);
    }
    std::sort(times.begin(), times.end());
    return times;
  }

  std::uint64_t seed_;
  double requests_;
  serve::ServingConfig config_;
  std::uint64_t generated_ = 0;
  serve::ServingReport report_;
};

// ----------------------------------------------------------------- llm_chat
/// Closed loop: 64 TinyGPT chat users, each waiting for its reply and
/// thinking 1 s before the next prompt, under continuous batching with a
/// KV budget that binds.
class LlmChat final : public Workload {
 public:
  LlmChat(std::uint64_t seed, bool smoke)
      : seed_(seed), requests_(smoke ? 2000 : 40000) {}

  void setup(Tracer& tracer) override {
    build_models(tracer, {"TinyGPT"});
    serve::ServingSpec spec;
    spec.tenant_mix = "TinyGPT";
    spec.source = serve::ArrivalSource::kClosedLoop;
    spec.users = 64;
    spec.think_s = 1.0;
    spec.prefill_tokens = kPrefill;
    spec.decode_tokens = kDecode;
    spec.token_spread = kSpread;
    spec.policy = serve::BatchPolicy::kContinuous;
    spec.max_batch = 16;
    spec.kv_cache_mb = kKvMb;
    spec.requests = requests_;
    spec.seed = seed_;
    const Tracer::Scope scope(tracer, "serve.config");
    config_ = serve::make_serving_config(core::default_system_config(), kArch,
                                         spec);
  }

  std::uint64_t timed_call(Tracer& tracer) override {
    report_ = {};  // one live report at a time keeps the peak RSS steady
    const Tracer::Scope scope(tracer, "serve.simulate");
    report_ = serve::simulate(config_);
    return report_.metrics.completed;
  }

  void check(Checks& checks) override {
    check_serving(report_.metrics, pool(report_.tenant_latencies), requests_,
                  "llm_chat", checks);
    checks.expect(static_cast<double>(report_.metrics.kv_peak_bytes) <=
                      kKvMb * 1024.0 * 1024.0,
                  "llm_chat: KV peak within the budget");
  }

  std::uint64_t digest(bool counters) const override {
    return perfbench::digest(report_.metrics, counters);
  }
  std::string stats() const override {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " ttft_p99=%.9g s kv_peak=%.4g MiB",
                  report_.metrics.ttft_p99_s,
                  static_cast<double>(report_.metrics.kv_peak_bytes) /
                      (1024.0 * 1024.0));
    return serving_stats(report_.metrics) + buf;
  }

  void probe_layers(const Tracer& tracer, Checks& /*checks*/,
                    MetricMap& out) override {
    const serve::ServingMetrics& m = report_.metrics;
    put_span(out, tracer, "serve.simulate", "serve.simulate_s");
    put(out, "serve.events", static_cast<double>(m.sim_events), 1);
    put(out, "serve.queue_peak", static_cast<double>(m.sim_event_queue_peak),
        1);
    put_oracle_counts(m, out);

    // A fresh oracle pricing the workload's phase key space: batch-1
    // prefills over every prompt length the spread can draw, and decode
    // steps at every batch size over every KV bucket a context can reach.
    // The run prices only the keys its token draws reach, so the per-key
    // cost scales to its miss count.
    const auto p_lo = static_cast<std::uint32_t>(kPrefill * (1.0 - kSpread));
    const auto p_hi = static_cast<std::uint32_t>(kPrefill * (1.0 + kSpread));
    const auto d_hi = static_cast<std::uint32_t>(kDecode * (1.0 + kSpread));
    std::size_t keys = 0;
    const auto t0 = Clock::now();
    serve::ColocatedSetup setup = serve::make_colocated_setup(
        core::default_system_config(), kArch, {"TinyGPT"});
    serve::ServiceTimeOracle oracle(std::move(setup.oracle_tenants), kArch);
    for (std::uint32_t p = p_lo; p <= p_hi; ++p) {
      (void)oracle.prefill_run(0, 1, p);
      ++keys;
    }
    for (unsigned b = 1; b <= 16; ++b) {
      for (std::uint32_t kv = p_lo; kv < p_hi + d_hi + 64; kv += 64) {
        (void)oracle.decode_run(0, b, kv);
        ++keys;
      }
    }
    const double warm_s = put_oracle_warm(out, seconds_since(t0), keys,
                                          m.service_cache_misses);
    put(out, "serve.events_per_s",
        static_cast<double>(m.sim_events) /
            (out.at("serve.simulate_s").value - warm_s),
        1);
    probe_quantile(pool(report_.tenant_latencies), out);
  }

 private:
  static constexpr std::uint32_t kPrefill = 256;
  static constexpr std::uint32_t kDecode = 128;
  static constexpr double kSpread = 0.5;
  static constexpr double kKvMb = 32.0;

  std::uint64_t seed_;
  std::uint64_t requests_;
  serve::ServingConfig config_;
  serve::ServingReport report_;
};

// ------------------------------------------------------------------- rack16
/// Open-loop Poisson into a 16-package rack: ResNet50 + MobileNetV2, eight
/// replicas each, least-loaded front end, layer-granular pipelining, one
/// package per worker thread.
class Rack16 final : public Workload {
 public:
  Rack16(std::uint64_t seed, bool smoke, std::size_t threads)
      : seed_(seed), requests_(smoke ? 5000 : 60000), threads_(threads) {}

  void setup(Tracer& tracer) override {
    build_models(tracer, {"ResNet50", "MobileNetV2"});
    config_ = cluster::ClusterConfig{};
    config_.system = core::default_system_config();
    config_.arch = kArch;
    config_.serving.tenant_mix = "ResNet50+MobileNetV2";
    config_.serving.arrival_rps = 5000.0;
    config_.serving.policy = serve::BatchPolicy::kDeadline;
    config_.serving.max_batch = 8;
    config_.serving.max_wait_s = 0.5e-3;
    config_.serving.pipeline = serve::PipelineMode::kLayerGranular;
    config_.serving.requests = requests_;
    config_.serving.seed = seed_;
    config_.cluster.packages = 16;
    config_.cluster.replication = 8;
    config_.cluster.balancer = cluster::BalancerPolicy::kLeastLoaded;
    config_.threads = threads_;
    // The rack resolves its tenants per package; resolving the whole spec
    // once validates it and prices the serve layer's config step.
    const Tracer::Scope scope(tracer, "serve.config");
    const serve::ServingConfig resolved = serve::make_serving_config(
        config_.system, kArch, config_.serving);
    if (resolved.tenants.size() != 2) {
      throw std::runtime_error("rack16 expects two tenants");
    }
  }

  std::uint64_t timed_call(Tracer& tracer) override {
    report_ = {};
    const Tracer::Scope scope(tracer, "cluster.simulate");
    report_ = cluster::simulate(config_);
    return report_.metrics.rack.completed;
  }

  void check(Checks& checks) override {
    check_serving(report_.metrics.rack, pooled(report_), requests_, "rack16",
                  checks);
  }

  std::uint64_t digest(bool counters) const override {
    return rack_digest(report_, counters);
  }
  std::string stats() const override {
    return serving_stats(report_.metrics.rack) +
           " transfers=" + std::to_string(report_.metrics.transfers);
  }
  std::size_t threads() const override { return threads_; }

  void probe_layers(const Tracer& tracer, Checks& checks,
                    MetricMap& out) override {
    const serve::ServingMetrics& m = report_.metrics.rack;
    const std::vector<double> walls_n = package_walls(report_);
    const double busy_n = perfbench::sum_of(walls_n);

    // The same rack on one worker thread: the result must not change, and
    // the walls split the thread effect from dispatch + merge.
    cluster::ClusterConfig one = config_;
    one.threads = 1;
    std::vector<double> wall_1t;
    std::vector<double> busy_1t;
    for (int trial = 0; trial < 2; ++trial) {
      const auto t0 = Clock::now();
      const cluster::ClusterReport report = cluster::simulate(one);
      wall_1t.push_back(seconds_since(t0));
      busy_1t.push_back(perfbench::sum_of(package_walls(report)));
      checks.expect(rack_digest(report, true) == digest(true),
                    "rack16: 1 thread and " + std::to_string(threads_) +
                        " threads give identical metrics");
    }
    const double simulate_n = median(tracer.durations("cluster.simulate"));
    put_span(out, tracer, "cluster.simulate", "cluster.simulate_s");
    put(out, "cluster.simulate_1t_s", median(wall_1t), wall_1t.size());
    put(out, "cluster.thread_speedup", median(wall_1t) / simulate_n,
        wall_1t.size());
    put(out, "cluster.pkg_busy_s", busy_n, walls_n.size());
    put(out, "cluster.pkg_max_s", perfbench::max_of(walls_n), walls_n.size());
    put(out, "cluster.outside_pkg_s", median(wall_1t) - median(busy_1t),
        wall_1t.size());
    put(out, "cluster.pkg_inflation", busy_n / median(busy_1t),
        busy_1t.size());

    // Inside the rack, each package runs one serve::simulate.
    put(out, "serve.simulate_s", median(walls_n), walls_n.size());
    put(out, "serve.events", static_cast<double>(m.sim_events), 1);
    put(out, "serve.queue_peak", static_cast<double>(m.sim_event_queue_peak),
        1);
    put_oracle_counts(m, out);

    // Every active package warms a fresh oracle over its hosted tenants'
    // layer schedules. The rack records no batch trace, so price batch 1-8
    // of every hosted tenant and scale the per-key cost to the misses.
    std::size_t keys = 0;
    const auto t0 = Clock::now();
    for (const cluster::PackageBreakdown& package : report_.packages) {
      if (!package.active) {
        continue;
      }
      serve::ColocatedSetup setup = serve::make_colocated_setup(
          config_.system, kArch, package.tenants);
      serve::ServiceTimeOracle oracle(std::move(setup.oracle_tenants), kArch);
      for (std::size_t t = 0; t < oracle.tenant_count(); ++t) {
        for (unsigned b = 1; b <= 8; ++b) {
          (void)oracle.layer_schedule(t, b);
          ++keys;
        }
      }
    }
    const double warm_s = put_oracle_warm(out, seconds_since(t0), keys,
                                          m.service_cache_misses);
    put(out, "serve.events_per_s",
        static_cast<double>(m.sim_events) / (busy_n - warm_s), 1);
    probe_quantile(pooled(report_), out);
  }

 private:
  static std::vector<double> pooled(const cluster::ClusterReport& report) {
    std::vector<double> out;
    for (const cluster::PackageBreakdown& package : report.packages) {
      for (const auto& latencies : package.report.tenant_latencies) {
        out.insert(out.end(), latencies.begin(), latencies.end());
      }
    }
    return out;
  }
  static std::vector<double> package_walls(
      const cluster::ClusterReport& report) {
    std::vector<double> walls;
    for (const cluster::PackageBreakdown& package : report.packages) {
      if (package.active) {
        walls.push_back(package.report.wall_s);
      }
    }
    return walls;
  }
  /// Rack metrics plus every package's metrics, in package order.
  static std::uint64_t rack_digest(const cluster::ClusterReport& report,
                                   bool counters) {
    std::uint64_t h = perfbench::digest(report.metrics.rack, counters);
    for (const cluster::PackageBreakdown& package : report.packages) {
      h = perfbench::digest(package.report.metrics, counters, h);
    }
    return h;
  }

  std::uint64_t seed_;
  std::uint64_t requests_;
  std::size_t threads_;
  cluster::ClusterConfig config_;
  cluster::ClusterReport report_;
};

// ---------------------------------------------------------------- cycle_zoo
/// Design-space exploration: a SweepRunner grid of three zoo models at
/// cycle-accurate and sampled fidelity, each scenario a short deadline-
/// batched serving run. Oracle warm-up through the cycle net dominates.
class CycleZoo final : public Workload {
 public:
  CycleZoo(std::uint64_t seed, bool smoke, std::size_t threads)
      : seed_(seed), requests_(smoke ? 200 : 2000), threads_(threads) {}

  void setup(Tracer& tracer) override {
    build_models(tracer, kModels);
    engine::ScenarioGrid grid;
    grid.tenant_mixes = kModels;
    grid.architectures = {kArch};
    grid.fidelities = {core::Fidelity::kCycleAccurate, sampled_spec()};
    grid.batch_policies = {serve::BatchPolicy::kDeadline};
    grid.arrival_rates_rps = {400.0};
    grid.serving_defaults.requests = requests_;
    // At 400 r/s every seed forms batches of 1, 2 and 3 many times over,
    // while larger batches would appear in some seeds only: capping the
    // batch at 3 keeps the oracle's key set, and so the cycle-net work per
    // call, the same for every seed.
    grid.serving_defaults.max_batch = kMaxBatch;
    grid.serving_defaults.max_wait_s = 0.5e-3;
    grid.serving_defaults.seed = seed_;
    const Tracer::Scope scope(tracer, "serve.config");
    specs_ = grid.expand(core::default_system_config());
    if (specs_.size() != 2 * kModels.size()) {
      throw std::runtime_error("cycle_zoo grid lost scenarios");
    }
  }

  std::uint64_t timed_call(Tracer& tracer) override {
    results_.clear();
    const Tracer::Scope scope(tracer, "engine.sweep");
    engine::SweepOptions options;
    options.threads = threads_;
    engine::SweepRunner runner(core::default_system_config(), options);
    results_ = runner.run(specs_);
    std::uint64_t completed = 0;
    for (const engine::ScenarioResult& r : results_) {
      completed += r.serving ? r.serving->completed : 0;
    }
    return completed;
  }

  void check(Checks& checks) override {
    for (const engine::ScenarioResult& r : results_) {
      const std::string label = "cycle_zoo " + r.spec.key();
      checks.expect(r.serving.has_value(), label + ": serving metrics");
      if (!r.serving) {
        continue;
      }
      const serve::ServingMetrics& m = *r.serving;
      checks.expect(m.offered == m.completed + m.shed + m.abandoned,
                    label + ": offered == completed + shed + abandoned");
      checks.expect(m.offered == requests_,
                    label + ": offered == the scenario's request budget");
      checks.expect(0.0 < m.p50_s && m.p50_s <= m.p99_s &&
                        m.p99_s <= m.max_latency_s,
                    label + ": 0 < p50 <= p99 <= max");
    }
  }

  std::uint64_t digest(bool counters) const override {
    std::uint64_t h = 1469598103934665603ULL;
    for (const engine::ScenarioResult& r : results_) {
      h = r.serving ? perfbench::digest(*r.serving, counters, h) : h;
    }
    return h;
  }
  std::string stats() const override {
    std::string out;
    char buf[200];
    for (const engine::ScenarioResult& r : results_) {
      if (r.serving) {
        std::snprintf(buf, sizeof(buf), "%s%s/%s p99=%.9g s mean_batch=%.4g",
                      out.empty() ? "" : "; ", r.spec.model.c_str(),
                      core::to_string(r.spec.fidelity.mode), r.serving->p99_s,
                      r.serving->mean_batch);
        out += buf;
      }
    }
    std::snprintf(buf, sizeof(buf), "; sampled_err=%.4g%%", sampled_err_pct());
    return out + buf;
  }
  std::size_t threads() const override { return threads_; }

  void probe_layers(const Tracer& tracer, Checks& checks,
                    MetricMap& out) override {
    put_span(out, tracer, "engine.sweep", "engine.sweep_s");
    std::vector<double> evals;
    serve::ServingMetrics totals;
    for (const engine::ScenarioResult& r : results_) {
      evals.push_back(r.eval_wall_s);
      if (r.serving) {
        totals.completed += r.serving->completed;
        totals.service_cache_hits += r.serving->service_cache_hits;
        totals.service_cache_misses += r.serving->service_cache_misses;
      }
    }
    put(out, "engine.scenario_s", median(evals), evals.size());
    put(out, "engine.scenario_max_s", perfbench::max_of(evals), evals.size());
    put(out, "engine.pool_eff",
        perfbench::sum_of(evals) /
            (out.at("engine.sweep_s").value * static_cast<double>(threads_)),
        evals.size());
    put_oracle_counts(totals, out);
    put(out, "core.sampled_err_pct", sampled_err_pct(), results_.size());

    probe_core(out);

    // Each scenario served directly through serve::simulate with its batch
    // trace recorded: the sweep must report exactly what a direct run
    // reports, and the batch sizes that actually ran are the key set a
    // fresh oracle prices for the warm-up time.
    const core::SystemConfig base = core::default_system_config();
    double probe_s = 0.0;
    std::size_t keys = 0;
    for (const engine::ScenarioResult& r : results_) {
      core::SystemConfig cfg = base;
      r.spec.apply(cfg);
      serve::ServingConfig config =
          serve::make_serving_config(cfg, kArch, *r.spec.serving);
      config.record_batches = true;
      const serve::ServingReport report = serve::simulate(config);
      const std::string label = "cycle_zoo direct " + r.spec.key();
      checks.expect(r.serving && perfbench::digest(report.metrics, true) ==
                                     perfbench::digest(*r.serving, true),
                    label + ": sweep == direct serve::simulate");
      check_serving(report.metrics, pool(report.tenant_latencies), requests_,
                    label, checks);
      std::set<unsigned> sizes = {1};  // the SLA pin prices batch 1
      for (const serve::BatchTrace& batch : report.batches) {
        sizes.insert(batch.size);
      }
      const auto t0 = Clock::now();
      serve::ColocatedSetup setup =
          serve::make_colocated_setup(cfg, kArch, {r.spec.model});
      serve::ServiceTimeOracle oracle(std::move(setup.oracle_tenants), kArch);
      for (const unsigned b : sizes) {
        (void)oracle.batch_run(0, b);
      }
      probe_s += seconds_since(t0);
      keys += sizes.size();
    }
    // The probe prices exactly the sweep's key set, so here the scaling is
    // by misses / keys = 1.
    put_oracle_warm(out, probe_s, keys, totals.service_cache_misses);
  }

 private:
  static constexpr unsigned kMaxBatch = 3;
  inline static const std::vector<std::string> kModels = {
      "ResNet50", "DenseNet121", "MobileNetV2"};

  static core::FidelitySpec sampled_spec() {
    core::FidelitySpec spec(core::Fidelity::kSampled);
    spec.windows = 8;
    spec.seed = 3;
    return spec;
  }

  /// max over models of |p99 sampled - p99 cycle| / p99 cycle, in percent.
  [[nodiscard]] double sampled_err_pct() const {
    double worst = 0.0;
    for (const engine::ScenarioResult& c : results_) {
      if (!c.serving ||
          c.spec.fidelity.mode != core::Fidelity::kCycleAccurate) {
        continue;
      }
      for (const engine::ScenarioResult& s : results_) {
        if (s.serving && s.spec.model == c.spec.model &&
            s.spec.fidelity.mode == core::Fidelity::kSampled) {
          worst = std::max(worst, 100.0 *
                                      std::abs(s.serving->p99_s -
                                               c.serving->p99_s) /
                                      c.serving->p99_s);
        }
      }
    }
    return worst;
  }

  /// SystemSimulator::run per call over models x batch 1-8 at each
  /// fidelity, and the cycle net's rate in gateway cycles per host second.
  void probe_core(MetricMap& out) const {
    const core::SystemConfig base = core::default_system_config();
    const core::FidelitySpec fidelities[] = {core::Fidelity::kAnalytical,
                                             core::Fidelity::kCycleAccurate,
                                             sampled_spec()};
    std::vector<double> walls[3];
    double comm_cycles = 0.0;
    for (const std::string& name : kModels) {
      const dnn::Model model =
          dnn::ModelRegistry::instance().at(name).factory();
      for (unsigned b = 1; b <= 8; ++b) {
        for (int f = 0; f < 3; ++f) {
          core::SystemConfig cfg = base;
          cfg.fidelity = fidelities[f];
          cfg.batch_size = b;
          const core::SystemSimulator simulator(cfg);
          const auto t0 = Clock::now();
          const core::RunResult run = simulator.run(model, kArch);
          walls[f].push_back(seconds_since(t0));
          if (f == 1) {
            for (const core::LayerResult& layer : run.layers) {
              comm_cycles += std::max(layer.read_s, layer.write_s) *
                             cfg.photonic.gateway_clock_hz;
            }
          }
        }
      }
    }
    const char* names[] = {"analytical", "cycle", "sampled"};
    for (int f = 0; f < 3; ++f) {
      const std::string key = std::string("core.run_s.") + names[f];
      put(out, key, median(walls[f]), walls[f].size());
      put(out, key + ".max", perfbench::max_of(walls[f]), walls[f].size());
    }
    put(out, "core.sampled_speedup",
        perfbench::sum_of(walls[1]) / perfbench::sum_of(walls[2]),
        walls[1].size());
    put(out, "noc.cycles_per_s",
        comm_cycles /
            (perfbench::sum_of(walls[1]) - perfbench::sum_of(walls[0])),
        walls[1].size());
  }

  std::uint64_t seed_;
  std::uint64_t requests_;
  std::size_t threads_;
  std::vector<engine::ScenarioSpec> specs_;
  std::vector<engine::ScenarioResult> results_;
};

std::unique_ptr<Workload> make_workload(const Options& options) {
  const std::size_t threads = nproc();
  if (options.workload == "cnn_day") {
    return std::make_unique<CnnDay>(options.seed, options.smoke);
  }
  if (options.workload == "llm_chat") {
    return std::make_unique<LlmChat>(options.seed, options.smoke);
  }
  if (options.workload == "rack16") {
    return std::make_unique<Rack16>(options.seed, options.smoke, threads);
  }
  if (options.workload == "cycle_zoo") {
    return std::make_unique<CycleZoo>(options.seed, options.smoke, threads);
  }
  return nullptr;
}

// ------------------------------------------------------------- run context
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimizedMacro = true;
#else
constexpr bool kOptimizedMacro = false;
#endif

/// Why this build must not be measured, or empty when it may. CI's
/// Debug+sanitizer builds compile the same sources; their numbers mean
/// nothing here.
std::string build_refusal() {
  const std::string_view flags = PERFBENCH_CXX_FLAGS;
  if (!kOptimizedMacro || flags.find("-O0") != std::string_view::npos) {
    return "built without optimization";
  }
  if (kSanitizerMacro || flags.find("-fsanitize") != std::string_view::npos) {
    return "built with a sanitizer";
  }
  return "";
}

std::string context_json(const Options& options, std::size_t threads) {
  return std::string("{\"compiler\": ") +
         perfbench::json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + perfbench::json_string(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + perfbench::json_string(PERFBENCH_CXX_FLAGS) +
         ", \"optimized\": " + (kOptimizedMacro ? "true" : "false") +
         ", \"sanitized\": " + (kSanitizerMacro ? "true" : "false") +
         ", \"nproc\": " + std::to_string(nproc()) +
         ", \"threads\": " + std::to_string(threads) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"size\": " +
         perfbench::json_string(options.smoke ? "smoke" : "full") +
         ", \"source\": " + perfbench::json_string(options.source_id) + "}";
}

// ---------------------------------------------------------------- self-test
/// The checks must catch a corrupted report: pin the benchmark's own
/// quantile against hand-computed ranks, run a smoke cnn_day, confirm its
/// checks pass, then corrupt one field at a time and confirm each
/// corruption raises error_rate.
int self_test() {
  // Nearest rank ceil(q * n) of 1..10 and of 1..200; the second puts p99
  // at rank 198, one below what an off-by-one rank would return.
  std::vector<double> ten(10);
  std::vector<double> two_hundred(200);
  for (std::size_t i = 0; i < two_hundred.size(); ++i) {
    two_hundred[i] = static_cast<double>(i + 1);
    if (i < ten.size()) {
      ten[i] = static_cast<double>(i + 1);
    }
  }
  const bool ranks_ok = perfbench::nearest_rank(ten, 0.50) == 5.0 &&
                        perfbench::nearest_rank(ten, 0.99) == 10.0 &&
                        perfbench::nearest_rank(ten, 0.01) == 1.0 &&
                        perfbench::nearest_rank(two_hundred, 0.50) == 100.0 &&
                        perfbench::nearest_rank(two_hundred, 0.99) == 198.0 &&
                        perfbench::nearest_rank({}, 0.99) == 0.0;
  std::printf("self-test: nearest-rank known answers %s\n",
              ranks_ok ? "match" : "DIFFER");

  CnnDay workload(7, /*smoke=*/true);
  Tracer tracer(false);
  workload.setup(tracer);
  (void)workload.timed_call(tracer);
  Checks clean;
  workload.check(clean);
  std::printf("self-test: clean report: %llu checks, error_rate %.3g\n",
              static_cast<unsigned long long>(clean.run()),
              clean.error_rate());
  bool ok = ranks_ok && clean.run() > 0 && clean.failed() == 0;

  struct Corruption {
    const char* what;
    void (*apply)(serve::ServingReport&);
  };
  const Corruption corruptions[] = {
      {"completed + 1", [](serve::ServingReport& r) { r.metrics.completed++; }},
      {"offered + 1", [](serve::ServingReport& r) { r.metrics.offered++; }},
      {"p99 nudged",
       [](serve::ServingReport& r) { r.metrics.p99_s *= 1.0 + 1e-12; }},
      {"p50 nudged",
       [](serve::ServingReport& r) { r.metrics.p50_s *= 1.0 - 1e-12; }},
      {"one latency sample dropped",
       [](serve::ServingReport& r) { r.tenant_latencies[0].pop_back(); }},
      // What a fast but wrong quantile in the library would report: the
      // sample one rank above the nearest rank. A check that recomputed
      // the quantile through that same library function would agree with
      // it; the benchmark's own nearest rank does not.
      {"p99 one rank high",
       [](serve::ServingReport& r) {
         std::vector<double> all = pool(r.tenant_latencies);
         std::sort(all.begin(), all.end());
         const auto rank = static_cast<std::size_t>(
             std::ceil(0.99 * static_cast<double>(all.size())));
         r.metrics.p99_s = all[std::min(rank, all.size() - 1)];
       }},
  };
  const serve::ServingReport& pristine = workload.last_report();
  for (const Corruption& c : corruptions) {
    serve::ServingReport corrupted = pristine;
    c.apply(corrupted);
    Checks checks;
    check_serving(corrupted.metrics, pool(corrupted.tenant_latencies),
                  workload.generated(), "self-test", checks);
    const bool caught = checks.error_rate() > 0.0;
    std::printf("self-test: %-28s error_rate %.3g %s\n", c.what,
                checks.error_rate(), caught ? "caught" : "MISSED");
    ok = ok && caught;
  }
  std::printf("self-test: %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

// --------------------------------------------------------------------- main
[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cnn_day|llm_chat|rack16|cycle_zoo --seed N --seconds S "
               "--trace 0|1 [--size full|smoke] [--out DIR] [--source-id ID]"
               "\n       perfbench --self-test\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      options.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (arg == "--size") {
        if (value != "full" && value != "smoke") {
          usage("--size takes full or smoke");
        }
        options.smoke = value == "smoke";
      } else if (arg == "--out") {
        options.out_dir = value;
      } else if (arg == "--source-id") {
        options.source_id = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!options.self_test && !(options.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return options;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  if (!workload) {
    usage("unknown workload '" + options.workload + "'");
  }
  Tracer tracer(options.trace);
  Checks checks;
  const std::string context = context_json(options, workload->threads());
  std::printf("context %s\n", context.c_str());

  std::vector<double> setup_walls;
  const auto setup = [&] {
    const Tracer::Scope scope(tracer, "setup");
    const auto t0 = Clock::now();
    workload->setup(tracer);
    setup_walls.push_back(seconds_since(t0));
  };
  for (int k = 0; k < kInitialSetups; ++k) {
    setup();
  }

  // One untimed call first, so lazy process state (allocator arenas,
  // registry, page faults) is settled before timing.
  tracer.set_enabled(false);
  (void)workload->timed_call(tracer);
  // Peak memory through set-up and one call: what one run of the workload
  // needs. Later calls add only allocator fragmentation, which varies with
  // thread timing and the number of calls that fit in --seconds.
  const double rss_mb = peak_rss_mb();
  workload->check(checks);
  const std::uint64_t first_digest = workload->digest(true);

  // Timed phase. In the traced run every other call goes untraced, so the
  // traced/untraced difference is the tracing overhead.
  // Single-threaded calls rotate over the allowed CPUs: on a shared host
  // one CPU can be slowed by a neighbour for tens of seconds, and a thread
  // left where the scheduler put it would carry that into every call.
  const cpu_set_t allowed = allowed_cpus();
  const bool rotate = workload->threads() == 1 && CPU_COUNT(&allowed) > 1;
  std::vector<double> rates;
  std::vector<double> walls[2];  // [traced]
  const auto phase_t0 = Clock::now();
  for (int rep = 0;
       rep < kMinReps || seconds_since(phase_t0) < options.seconds; ++rep) {
    if (rotate) {
      pin_to_nth(allowed, static_cast<std::size_t>(rep));
    }
    const bool traced = options.trace && rep % 2 == 0;
    tracer.set_enabled(traced);
    const auto t0 = Clock::now();
    std::uint64_t completed = 0;
    try {
      completed = workload->timed_call(tracer);
    } catch (const std::exception& e) {
      tracer.set_enabled(options.trace);
      checks.threw(options.workload + " timed call: " + e.what());
      continue;
    }
    const double wall = seconds_since(t0);
    tracer.set_enabled(options.trace);
    rates.push_back(static_cast<double>(completed) / wall);
    walls[traced ? 1 : 0].push_back(wall);
    workload->check(checks);
    checks.expect(completed > 0, options.workload + ": requests completed");
    checks.expect(workload->digest(true) == first_digest,
                  options.workload + ": repeated calls are bit-identical");
    setup();
  }
  if (rotate) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
  if (rates.empty()) {
    std::fprintf(stderr, "perfbench: every timed call threw\n");
    for (const std::string& failure : checks.failures()) {
      std::fprintf(stderr, "  %s\n", failure.c_str());
    }
    return 1;
  }

  MetricMap metrics;
  if (options.trace) {
    for (const LayerMetricDef& def : kLayerMetrics) {
      metrics[def.name] = Metric{0.0, def.unit, 0};
    }
    put_span(metrics, tracer, "dnn.build", "dnn.build_s");
    put_span(metrics, tracer, "serve.config", "serve.config_s");
    const std::vector<double> tracegen = tracer.durations("serve.tracegen");
    if (!tracegen.empty()) {
      // Two traces per setup: report the per-setup total.
      std::vector<double> per_setup;
      for (std::size_t i = 0; i + 1 < tracegen.size(); i += 2) {
        per_setup.push_back(tracegen[i] + tracegen[i + 1]);
      }
      put(metrics, "serve.tracegen_s", median(per_setup), per_setup.size());
    }
    try {
      workload->probe_layers(tracer, checks, metrics);
    } catch (const std::exception& e) {
      checks.threw(options.workload + " layer probes: " + e.what());
    }
  } else {
    // The median call: every call does identical, deterministic work, so
    // the spread between calls is other load on the host. Over ten seeds
    // the median moved several times less than the fastest call did.
    metrics["req_per_host_s"] = Metric{median(rates), "1/s", rates.size()};
    metrics["setup_s"] = Metric{median(setup_walls), "s", setup_walls.size()};
    metrics["peak_rss_mb"] = Metric{rss_mb, "MB", 1};
  }

  // Human-readable report, then the result file, then the JSON line.
  std::printf("workload %s seed %llu: %zu timed calls, %zu setups\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), rates.size(),
              setup_walls.size());
  std::printf("rates (req/host-s):");
  for (const double rate : rates) {
    std::printf(" %.6g", rate);
  }
  std::printf(" (median %.6g)\nsimulated %s\n", median(rates),
              workload->stats().c_str());
  std::printf("digest %016llx outputs %016llx\n",
              static_cast<unsigned long long>(workload->digest(true)),
              static_cast<unsigned long long>(workload->digest(false)));
  std::printf("checks %llu failed %llu error_rate %.6g\n",
              static_cast<unsigned long long>(checks.run()),
              static_cast<unsigned long long>(checks.failed()),
              checks.error_rate());
  for (const std::string& failure : checks.failures()) {
    std::printf("  FAILED %s\n", failure.c_str());
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-28s %-14.8g %-6s n=%zu\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.n);
  }
  std::string spans_json = "{}";
  if (options.trace) {
    const double untraced = median(walls[0]);
    const double traced = median(walls[1]);
    std::printf("tracing overhead %+.3g%% (traced %zu vs untraced %zu calls)\n",
                untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0,
                walls[1].size(), walls[0].size());
    std::printf("  %-22s %6s %12s %12s\n", "span", "count", "total_s",
                "self_s");
    spans_json = "{";
    for (const auto& [name, t] : tracer.self_times()) {
      std::printf("  %-22s %6zu %12.6f %12.6f\n", name.c_str(), t.count,
                  t.total_s, t.self_s);
      spans_json += std::string(spans_json.size() > 1 ? ", " : "") +
                    perfbench::json_string(name) +
                    ": {\"count\": " + std::to_string(t.count) +
                    ", \"total_s\": " + perfbench::json_number(t.total_s) +
                    ", \"self_s\": " + perfbench::json_number(t.self_s) + "}";
    }
    spans_json += "}";
  }
  if (!options.out_dir.empty()) {
    const std::string stem = options.out_dir + "/" + options.workload + "-s" +
                             std::to_string(options.seed) + "-t" +
                             (options.trace ? "1" : "0");
    if (options.trace && !tracer.write_json(stem + ".trace.json")) {
      std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                   stem.c_str());
      return 1;
    }
    std::FILE* file = std::fopen((stem + ".json").c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
      return 1;
    }
    char digest_hex[64];
    std::snprintf(digest_hex, sizeof(digest_hex),
                  "\"%016llx\", \"output_digest\": \"%016llx\"",
                  static_cast<unsigned long long>(workload->digest(true)),
                  static_cast<unsigned long long>(workload->digest(false)));
    std::string failures = "[";
    for (const std::string& f : checks.failures()) {
      failures += (failures.size() > 1 ? ", " : "") + perfbench::json_string(f);
    }
    std::fprintf(
        file,
        "{\"workload\": %s, \"context\": %s, \"checks\": %llu, "
        "\"failed\": %llu, \"failures\": %s], \"digest\": %s, "
        "\"simulated\": %s, \"metrics\": %s, \"spans\": %s}\n",
        perfbench::json_string(options.workload).c_str(), context.c_str(),
        static_cast<unsigned long long>(checks.run()),
        static_cast<unsigned long long>(checks.failed()), failures.c_str(),
        digest_hex, perfbench::json_string(workload->stats()).c_str(),
        perfbench::json_metrics(metrics, true).c_str(), spans_json.c_str());
    if (std::fclose(file) != 0) {
      std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.run()),
              static_cast<unsigned long long>(checks.failed()),
              perfbench::json_metrics(metrics, false).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (const std::string refusal = build_refusal(); !refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s (flags: %s)\n",
                 refusal.c_str(), PERFBENCH_CXX_FLAGS);
    return 3;
  }
  try {
    return options.self_test ? self_test() : run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
