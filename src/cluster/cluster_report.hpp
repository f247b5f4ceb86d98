#pragma once
/// \file cluster_report.hpp
/// Rack-level results: merged serving metrics, transfer charges, and
/// per-package breakdowns.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_scheduler.hpp"
#include "serve/serving_report.hpp"

namespace optiplet::cluster {

/// One package's slice of the rack.
struct PackageBreakdown {
  std::size_t package = 0;
  /// Hosted tenant names, cluster order.
  std::vector<std::string> tenants;
  /// Requests (open loop) or users (closed loop) routed here.
  std::uint64_t dispatched = 0;
  /// True when the package hosted tenants and ran a simulator.
  bool active = false;
  serve::ServingReport report;
};

/// The compact rack summary the sweep engine and CSVs carry.
struct ClusterMetrics {
  /// Merged rack-level serving metrics. Percentiles, TTFT, goodput and
  /// decode_tps are exact: the report fold recomputes them from the pooled
  /// per-tenant samples and token counts over the rack makespan, not by
  /// combining package figures.
  serve::ServingMetrics rack;
  std::size_t packages = 0;
  /// Inter-package request/response transfers (pairs count once).
  std::uint64_t transfers = 0;
  /// Total photonic transfer latency charged, both directions [s].
  double transfer_latency_s = 0.0;
  /// Total photonic transfer energy charged, both directions [J].
  double transfer_energy_j = 0.0;
  /// Utilization spread across packages (idle packages count as 0).
  double util_min = 0.0;
  double util_max = 0.0;
};

struct ClusterReport {
  ClusterMetrics metrics;
  Placement placement;
  std::vector<PackageBreakdown> packages;
  /// Rack-level energy/carbon day curve: the per-package curves merged
  /// pointwise by bucket (buckets are absolute-time indexed, so package
  /// curves align). Empty unless ElasticSpec::curve_bucket_s > 0.
  std::vector<serve::DayPoint> day_curve;
};

}  // namespace optiplet::cluster
