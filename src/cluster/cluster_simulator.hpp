#pragma once
/// \file cluster_simulator.hpp
/// The parallel rack engine: N interposer packages, each wrapping its own
/// serving simulator, fed from one shared arrival stream.
///
/// Dispatch is resolved deterministically *before* any package simulates:
/// the cluster-wide per-tenant arrival streams (the exact Poisson vectors,
/// replayed trace, or closed-loop user pools a lone simulator would see)
/// are merged in time order, each arrival enters the rack at a round-robin
/// ingress port, and the `LoadBalancer` picks the serving replica. A
/// request served off its ingress package pays the `PackageLink`
/// link-budget transfer cost: the forward hop delays its arrival at the
/// serving package, and both hops accrue into the rack's transfer
/// latency/energy totals. The per-package simulators then run in parallel
/// on `engine::ThreadPool` (one package per worker) and their reports
/// merge into a `ClusterReport` through the lone simulator's report fold
/// over every package's tenants, so a 1-package rack reproduces the lone
/// simulator bit for bit.

#include <cstddef>

#include "accel/platform.hpp"
#include "cluster/cluster_report.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/system_config.hpp"
#include "serve/serving_spec.hpp"

namespace optiplet::obs {
class Recorder;
}  // namespace optiplet::obs

namespace optiplet::cluster {

struct ClusterConfig {
  /// Per-package base system (Table 1 by default).
  core::SystemConfig system;
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  /// Cluster-wide workload: the same sweepable spec a lone simulator
  /// takes; the front end shards its arrival stream across the rack.
  serve::ServingSpec serving;
  ClusterSpec cluster;
  /// Rack worker threads (one package per worker); 0 = hardware
  /// concurrency. The result is bit-identical for any thread count.
  std::size_t threads = 0;
  /// Observability sink. Each package gets a child recorder (pid = package
  /// index, written by that package's worker only); children merge into
  /// this recorder, in package order, after the workers join. Inter-package
  /// transfers land on a "frontend" pseudo-process (pid = package count).
  /// Null disables observability. Not owned; must outlive simulate().
  obs::Recorder* recorder = nullptr;
};

/// Run the rack to completion (every package drains its dispatched load).
[[nodiscard]] ClusterReport simulate(const ClusterConfig& config);

}  // namespace optiplet::cluster
