/// \file serving_events_test.cpp
/// The serving engine's typed event loop:
///   * two runs that between them fire every event kind — an open-loop
///     run (arrivals, deadline timers, whole-batch stage ends, retry
///     backoffs, a fault, metric ticks) and a closed-loop run (think
///     timers, a layer-granular CNN chain, a continuous TinyGPT tenant) —
///     keep their event count, queue peak, completions and p99 pinned to
///     the values the closure-based event loop produced;
///   * a shed final arrival still flushes the partial batch it leaves.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/system_config.hpp"
#include "obs/recorder.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::serve {
namespace {

ServingConfig config_for(const ServingSpec& spec) {
  return make_serving_config(core::default_system_config(),
                             accel::Architecture::kSiph2p5D, spec);
}

/// Open loop, batch-granular: arrivals, kDeadline timers, whole-batch
/// stage ends, kSlaShed rejects deferred by retry backoff, a drifted
/// microring fault mid-run, and a metering recorder's snapshot ticks.
ServingReport open_loop_run(obs::Recorder& recorder) {
  ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.arrival_rps = 40000.0;
  spec.requests = 600;
  spec.policy = BatchPolicy::kDeadline;
  spec.max_wait_s = 2.0e-4;
  spec.admission = AdmissionPolicy::kSlaShed;
  spec.sla_s = 1.5e-4;
  spec.elastic.retry_max_attempts = 2;
  spec.elastic.retry_backoff_s = 1.0e-4;
  spec.elastic.faults.push_back({5.0e-3, -1, 0.8, -1});
  ServingConfig config = config_for(spec);
  config.recorder = &recorder;
  return simulate(config);
}

/// Closed loop, layer-granular: think timers for both tenants, LeNet5's
/// layer chain (one stage-end event per stage) and TinyGPT's continuous
/// iterations.
ServingReport closed_loop_run() {
  ServingSpec spec;
  spec.tenant_mix = "LeNet5+TinyGPT";
  spec.source = ArrivalSource::kClosedLoop;
  spec.users = 4;
  spec.think_s = 1.0e-4;
  spec.requests = 120;
  spec.pipeline = PipelineMode::kLayerGranular;
  ServingConfig config = config_for(spec);
  config.record_batches = true;
  TenantSetup& gpt = config.tenants[1];
  gpt.prefill_tokens = 32;
  gpt.decode_tokens = 8;
  gpt.batching.policy = BatchPolicy::kContinuous;
  return simulate(config);
}

TEST(ServingEvents, OpenLoopRunKeepsItsEventSchedule) {
  obs::RecorderOptions options;
  options.trace = false;
  obs::Recorder recorder(options);
  const ServingReport report = open_loop_run(recorder);
  const ServingMetrics& m = report.metrics;
  // Every open-loop kind fired.
  EXPECT_GT(m.offered, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_EQ(m.faults_injected, 1u);
  EXPECT_FALSE(recorder.metrics().samples().empty());
  EXPECT_EQ(m.offered, m.completed + m.shed + m.abandoned);

  EXPECT_EQ(m.sim_events, 1313u);
  EXPECT_EQ(m.sim_event_queue_peak, 21u);
  EXPECT_EQ(m.completed, 494u);
  EXPECT_DOUBLE_EQ(m.p99_s, 6.0218225694370995e-4);
}

TEST(ServingEvents, ClosedLoopRunKeepsItsEventSchedule) {
  const ServingReport report = closed_loop_run();
  const ServingMetrics& m = report.metrics;
  ASSERT_EQ(report.tenants.size(), 2u);
  // LeNet5 ran layer stages; TinyGPT decoded token by token.
  bool layer_stage = false;
  for (const BatchTrace& b : report.batches) {
    layer_stage = layer_stage || (b.tenant == 0 && b.layer_count > 0);
  }
  EXPECT_TRUE(layer_stage);
  EXPECT_GT(report.tenants[1].decode_tokens, 0u);
  EXPECT_EQ(m.offered, 120u);
  EXPECT_EQ(m.offered, m.completed + m.shed + m.abandoned);

  EXPECT_EQ(m.sim_events, 390u);
  EXPECT_EQ(m.sim_event_queue_peak, 8u);
  EXPECT_EQ(m.completed, 120u);
  EXPECT_DOUBLE_EQ(m.p99_s, 7.478565882406224e-3);
}

TEST(ServingEvents, ShedFinalArrivalFlushesThePartialBatch) {
  // Fixed-size batches of 8 under a tight SLA: nearly every arrival is
  // shed, so the last admitted request sits in a partial batch that only
  // the final arrival's flush can dispatch — even when that arrival is
  // itself shed.
  ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.source = ArrivalSource::kClosedLoop;
  spec.users = 8;
  spec.requests = 500;
  spec.policy = BatchPolicy::kFixedSize;
  spec.admission = AdmissionPolicy::kSlaShed;
  spec.sla_s = 2.0e-4;
  const ServingMetrics m = simulate(config_for(spec)).metrics;
  EXPECT_EQ(m.offered, 500u);
  EXPECT_GT(m.shed, 0u);
  EXPECT_GT(m.completed, 0u);
  EXPECT_EQ(m.offered, m.completed + m.shed);
}

}  // namespace
}  // namespace optiplet::serve
