#include "serve/serving_report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace optiplet::serve {
namespace {

/// Nearest-rank quantile by full sort: the definition the fold must meet.
double sorted_rank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

TenantReport tenant(unsigned priority, double sla_s, std::uint64_t completed) {
  TenantReport r;
  r.priority = priority;
  r.sla_s = sla_s;
  r.offered = completed;
  r.completed = completed;
  return r;
}

TEST(ServingReport, OneCopyQuantilesMatchExactQuantile) {
  util::Xoshiro256 rng(0x5eed);
  for (const std::size_t n : {1u, 2u, 3u, 20u, 1001u}) {
    // Eight distinct values: plenty of ties at every rank.
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(1e-3 * static_cast<double>(rng.next() % 8));
    }
    // Split across two tenants of two classes so the pooled and per-class
    // paths both run.
    const std::size_t cut = n / 2;
    const std::vector<double> a(samples.begin(), samples.begin() + cut);
    const std::vector<double> b(samples.begin() + cut, samples.end());
    const TenantReport ra = tenant(0, 1.0, a.size());
    const TenantReport rb = tenant(1, 1.0, b.size());
    ServingMetrics m;
    m.makespan_s = 1.0;
    add_counters(m, ra);
    add_counters(m, rb);
    const std::vector<TenantSamples> tenants{{ra, a, {}}, {rb, b, {}}};
    const std::vector<ClassReport> classes = fold_report(m, tenants);

    SCOPED_TRACE(n);
    EXPECT_EQ(m.p50_s, exact_quantile(samples, 0.50));
    EXPECT_EQ(m.p95_s, exact_quantile(samples, 0.95));
    EXPECT_EQ(m.p99_s, exact_quantile(samples, 0.99));
    EXPECT_EQ(m.p50_s, sorted_rank(samples, 0.50));
    EXPECT_EQ(m.p95_s, sorted_rank(samples, 0.95));
    EXPECT_EQ(m.p99_s, sorted_rank(samples, 0.99));
    EXPECT_EQ(classes.back().p99_s, sorted_rank(b, 0.99));
    if (!a.empty()) {
      EXPECT_EQ(classes.front().p99_s, sorted_rank(a, 0.99));
    }
    for (const double q : {0.01, 0.5, 0.9, 1.0}) {
      EXPECT_EQ(exact_quantile(samples, q), sorted_rank(samples, q));
    }
  }
}

TEST(ServingReport, KnownAnswerFold) {
  TenantReport hi = tenant(0, 0.010, 4);
  hi.batches = 2;
  hi.energy_j = 4.0;
  hi.busy_s = 3.0;
  TenantReport lo = tenant(1, 0.050, 2);
  lo.offered = 3;
  lo.shed = 1;
  lo.batches = 2;
  lo.energy_j = 2.0;
  lo.decode_tokens = 10;
  const std::vector<double> hi_lat{0.003, 0.001, 0.020, 0.002};
  const std::vector<double> lo_lat{0.060, 0.040};
  const std::vector<double> lo_ttft{0.030, 0.010};

  ServingMetrics m;
  m.makespan_s = 2.0;
  add_counters(m, hi);
  add_counters(m, lo);
  const std::vector<TenantSamples> tenants{{hi, hi_lat, {}},
                                           {lo, lo_lat, lo_ttft}};
  const std::vector<ClassReport> classes = fold_report(m, tenants);

  EXPECT_EQ(m.completed, 6u);
  EXPECT_DOUBLE_EQ(m.mean_latency_s, 0.126 / 6.0);
  EXPECT_EQ(m.max_latency_s, 0.060);
  EXPECT_EQ(m.p50_s, 0.003);  // rank 3 of 6
  EXPECT_EQ(m.p95_s, 0.060);  // rank 6 of 6
  EXPECT_EQ(m.p99_s, 0.060);
  // 0.020 misses the 10 ms SLA, 0.060 the 50 ms one.
  EXPECT_DOUBLE_EQ(m.sla_violation_rate, 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(m.throughput_rps, 3.0);
  EXPECT_DOUBLE_EQ(m.goodput_rps, 2.0);
  EXPECT_DOUBLE_EQ(m.energy_per_request_j, 1.0);
  EXPECT_DOUBLE_EQ(m.mean_batch, 1.5);
  EXPECT_EQ(m.ttft_p99_s, 0.030);
  EXPECT_DOUBLE_EQ(m.decode_tps, 5.0);

  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].priority, 0u);
  EXPECT_EQ(classes[0].p99_s, 0.020);
  EXPECT_DOUBLE_EQ(classes[0].sla_violation_rate, 0.25);
  EXPECT_DOUBLE_EQ(classes[0].goodput_rps, 1.5);
  EXPECT_EQ(classes[1].priority, 1u);
  EXPECT_EQ(classes[1].offered, 3u);
  EXPECT_EQ(classes[1].shed, 1u);
  EXPECT_EQ(classes[1].p99_s, 0.060);
  EXPECT_DOUBLE_EQ(classes[1].sla_violation_rate, 0.5);
  EXPECT_DOUBLE_EQ(classes[1].goodput_rps, 0.5);
  EXPECT_EQ(m.p99_hi_s, 0.020);
  EXPECT_EQ(m.p99_lo_s, 0.060);

  // The tenant-level fold is the same arithmetic over one tenant.
  finish_tenant(hi, hi_lat, {}, 2.0);
  EXPECT_EQ(hi.p50_s, 0.002);  // rank 2 of 4
  EXPECT_EQ(hi.p99_s, 0.020);
  EXPECT_DOUBLE_EQ(hi.sla_violation_rate, 0.25);
  EXPECT_DOUBLE_EQ(hi.throughput_rps, 2.0);
  EXPECT_DOUBLE_EQ(hi.goodput_rps, 1.5);
  EXPECT_DOUBLE_EQ(hi.mean_batch, 2.0);
  EXPECT_DOUBLE_EQ(hi.energy_per_request_j, 1.0);
  EXPECT_DOUBLE_EQ(hi.utilization, 1.0);  // busy 3 s clamps to the 2 s span
}

TEST(ServingReport, EdgeCasesGiveZerosNotNaN) {
  EXPECT_EQ(exact_quantile({}, 0.99), 0.0);

  ServingMetrics empty;
  EXPECT_TRUE(fold_report(empty, {}).empty());
  EXPECT_EQ(empty.p99_s, 0.0);
  EXPECT_EQ(empty.throughput_rps, 0.0);
  EXPECT_EQ(empty.mean_batch, 0.0);

  // No samples, no makespan, no completions.
  TenantReport idle = tenant(0, 0.01, 0);
  finish_tenant(idle, {}, {}, 0.0);
  for (const double v :
       {idle.mean_latency_s, idle.p50_s, idle.p99_s, idle.sla_violation_rate,
        idle.throughput_rps, idle.goodput_rps, idle.energy_per_request_j,
        idle.mean_batch, idle.utilization, idle.ttft_p99_s,
        idle.decode_tps}) {
    EXPECT_EQ(v, 0.0);
  }

  // Samples but a zero makespan and zero batches: rates stay 0, the batch
  // mean divides by one batch.
  TenantReport burst = tenant(0, 0.01, 2);
  burst.energy_j = 1.0;
  burst.decode_tokens = 7;
  burst.busy_s = 1.0;
  const std::vector<double> lat{0.005, 0.015};
  finish_tenant(burst, lat, {}, 0.0);
  EXPECT_EQ(burst.throughput_rps, 0.0);
  EXPECT_EQ(burst.goodput_rps, 0.0);
  EXPECT_EQ(burst.decode_tps, 0.0);
  EXPECT_EQ(burst.utilization, 0.0);
  EXPECT_EQ(burst.mean_batch, 2.0);
  EXPECT_EQ(burst.energy_per_request_j, 0.5);
  EXPECT_EQ(burst.p99_s, 0.015);
  EXPECT_DOUBLE_EQ(burst.sla_violation_rate, 0.5);

  std::vector<DayPoint> curve(2);
  curve[0].energy_j = 3.0;
  curve[1].energy_j = 3.0;
  curve[1].completed = 2;
  finish_day_curve(curve);
  EXPECT_EQ(curve[0].energy_per_request_j, 0.0);
  EXPECT_EQ(curve[1].energy_per_request_j, 1.5);
}

}  // namespace
}  // namespace optiplet::serve
