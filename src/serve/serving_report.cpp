#include "serve/serving_report.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "util/require.hpp"

namespace optiplet::serve {

namespace {

/// Nearest-rank quantiles of `values` at ascending `qs`, all from this one
/// copy: each nth_element pass selects within the part above the previous
/// rank, so later passes shrink and every value equals exact_quantile's.
template <std::size_t N>
std::array<double, N> nearest_ranks(std::vector<double> values,
                                    const std::array<double, N>& qs) {
  std::array<double, N> out{};
  const std::size_t n = values.size();
  auto lo = values.begin();
  for (std::size_t i = 0; i < N && n > 0; ++i) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(qs[i] * static_cast<double>(n)));
    const auto nth =
        values.begin() + static_cast<std::ptrdiff_t>(
                             std::min(n, std::max<std::size_t>(rank, 1)) - 1);
    if (nth >= lo) {
      std::nth_element(lo, nth, values.end());
      lo = nth + 1;
    }
    out[i] = *nth;
  }
  return out;
}

/// One pooled copy of one kind of sample (`size` in all), in tenant order.
std::vector<double> pool(std::span<const TenantSamples> tenants,
                         std::span<const double> TenantSamples::*samples,
                         std::size_t size) {
  std::vector<double> out;
  out.reserve(size);
  for (const TenantSamples& t : tenants) {
    out.insert(out.end(), (t.*samples).begin(), (t.*samples).end());
  }
  return out;
}

/// The fold every level shares (tenant, class, run, rack): `out`'s latency
/// statistics, rates and per-request figures from `tenants`' samples over
/// `makespan_s`; `out.completed` and `out.energy_j` hold the level's totals.
template <class Level>
void derive(Level& out, std::span<const TenantSamples> tenants,
            double makespan_s) {
  std::size_t samples = 0;
  std::size_t ttfts = 0;
  double sum = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t batches = 0;
  out.max_latency_s = 0.0;
  out.decode_tps = 0.0;
  for (const TenantSamples& t : tenants) {
    for (const double l : t.latencies) {
      sum += l;
      out.max_latency_s = std::max(out.max_latency_s, l);
      violations += l > t.report.sla_s ? 1 : 0;
    }
    samples += t.latencies.size();
    ttfts += t.ttfts.size();
    batches += t.report.batches;
    if (makespan_s > 0.0) {
      out.decode_tps +=
          static_cast<double>(t.report.decode_tokens) / makespan_s;
    }
  }
  if (samples > 0) {
    out.mean_latency_s = sum / static_cast<double>(samples);
    const auto [p50, p95, p99] =
        nearest_ranks(pool(tenants, &TenantSamples::latencies, samples),
                      std::array<double, 3>{0.50, 0.95, 0.99});
    out.p50_s = p50;
    out.p95_s = p95;
    out.p99_s = p99;
    out.sla_violation_rate =
        static_cast<double>(violations) / static_cast<double>(samples);
  }
  out.ttft_p99_s = nearest_ranks(pool(tenants, &TenantSamples::ttfts, ttfts),
                                 std::array<double, 1>{0.99})[0];
  if (makespan_s > 0.0) {
    out.throughput_rps = static_cast<double>(out.completed) / makespan_s;
    // Every completion records one latency, so completed - violations is
    // exactly the SLA-met count.
    out.goodput_rps =
        static_cast<double>(out.completed - violations) / makespan_s;
  }
  if (out.completed > 0) {
    out.energy_per_request_j =
        out.energy_j / static_cast<double>(out.completed);
    out.mean_batch = static_cast<double>(out.completed) /
                     static_cast<double>(std::max<std::uint64_t>(batches, 1));
  }
}

/// The counters a tenant and a package both carry.
template <class Level>
void add_shared_counters(ServingMetrics& into, const Level& from) {
  into.offered += from.offered;
  into.completed += from.completed;
  into.shed += from.shed;
  into.abandoned += from.abandoned;
  into.retries += from.retries;
  into.energy_j += from.energy_j;
  into.resipi_conflicts += from.resipi_conflicts;
  into.resipi_wait_s += from.resipi_wait_s;
  into.shared_handoffs += from.shared_handoffs;
  into.handoff_resipi_s += from.handoff_resipi_s;
  into.gate_events += from.gate_events;
  into.gated_idle_s += from.gated_idle_s;
  into.kv_peak_bytes = std::max(into.kv_peak_bytes, from.kv_peak_bytes);
}

}  // namespace

double exact_quantile(std::vector<double> values, double q) {
  OPTIPLET_REQUIRE(q > 0.0 && q <= 1.0, "quantile must be in (0,1]");
  return nearest_ranks(std::move(values), std::array<double, 1>{q})[0];
}

void add_counters(ServingMetrics& into, const TenantReport& tenant) {
  add_shared_counters(into, tenant);
}

void add_counters(ServingMetrics& into, const ServingMetrics& package) {
  add_shared_counters(into, package);
  into.service_cache_hits += package.service_cache_hits;
  into.service_cache_misses += package.service_cache_misses;
  into.sim_events += package.sim_events;
  into.sim_event_queue_peak =
      std::max(into.sim_event_queue_peak, package.sim_event_queue_peak);
  into.repartitions += package.repartitions;
  into.repartition_resipi_s += package.repartition_resipi_s;
  into.faults_injected += package.faults_injected;
  into.carbon_g += package.carbon_g;
}

std::vector<ClassReport> fold_report(ServingMetrics& m,
                                     std::span<const TenantSamples> tenants) {
  derive(m, tenants, m.makespan_s);
  std::map<unsigned, std::vector<TenantSamples>> members;  // ascending
  for (const TenantSamples& t : tenants) {
    members[t.report.priority].push_back(t);
  }
  std::vector<ClassReport> classes;
  for (const auto& [priority, tenants_of_class] : members) {
    ServingMetrics c;
    for (const TenantSamples& t : tenants_of_class) {
      add_counters(c, t.report);
    }
    derive(c, tenants_of_class, m.makespan_s);
    classes.push_back({priority, c.offered, c.completed, c.shed, c.abandoned,
                       c.p99_s, c.sla_violation_rate, c.goodput_rps});
  }
  if (!classes.empty()) {
    m.p99_hi_s = classes.front().p99_s;
    m.p99_lo_s = classes.back().p99_s;
  }
  return classes;
}

void finish_tenant(TenantReport& r, std::span<const double> latencies,
                   std::span<const double> ttfts, double makespan_s) {
  const TenantSamples self{r, latencies, ttfts};
  derive(r, std::span<const TenantSamples>(&self, 1), makespan_s);
  if (makespan_s > 0.0) {
    // Layer-granular overlap sums concurrent stage intervals into busy_s,
    // so the executor's busy fraction saturates at 1 (mirrors the
    // per-chiplet clamp in the pool metric).
    r.utilization = std::min(r.busy_s, makespan_s) / makespan_s;
  }
}

void finish_day_curve(std::vector<DayPoint>& curve) {
  for (DayPoint& p : curve) {
    if (p.completed > 0) {
      p.energy_per_request_j = p.energy_j / static_cast<double>(p.completed);
    }
  }
}

}  // namespace optiplet::serve
