#include "noc/photonic_cycle_net.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "sim/stats.hpp"
#include "util/units.hpp"

namespace optiplet::noc {
namespace {

PhotonicCycleNetConfig pinned_config() {
  PhotonicCycleNetConfig cfg;
  cfg.resipi_enabled = false;  // all gateways lit: pure-medium behavior
  return cfg;
}

/// Expected zero-load latency [cycles] for one transfer serialized over
/// `channels` wavelengths: store-and-forward fill, grant turnaround, the
/// serialization itself, and photon time of flight.
std::uint64_t expected_zero_load_cycles(const PhotonicCycleNet& net,
                                        std::uint64_t bits,
                                        std::size_t channels) {
  const auto serialize = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(bits) /
                (static_cast<double>(channels) *
                 net.bits_per_cycle_per_channel())));
  return net.store_forward_cycles() + serialize + 1 +
         net.time_of_flight_cycles();
}

TEST(PhotonicCycleNet, ZeroLoadReadLatencyIsExact) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  net.inject_read(0, bits);
  ASSERT_TRUE(net.run_until_drained(100'000));
  ASSERT_EQ(net.stats().reads_completed, 1u);
  // Full activation: the reader's 4x16-channel filter bank covers the whole
  // 64-wavelength medium.
  EXPECT_EQ(net.completed().front().done_cycle,
            expected_zero_load_cycles(net, bits, 64));
  EXPECT_EQ(net.stats().read_bits_delivered, bits);
}

TEST(PhotonicCycleNet, ZeroLoadWriteMatchesReadPath) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  net.inject_write(3, bits);
  ASSERT_TRUE(net.run_until_drained(100'000));
  ASSERT_EQ(net.stats().writes_completed, 1u);
  EXPECT_EQ(net.completed().front().done_cycle,
            expected_zero_load_cycles(net, bits, 64));
}

TEST(PhotonicCycleNet, BroadcastDeliversOnceOverSharedMedium) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  net.inject_broadcast({0, 1, 2}, bits);
  ASSERT_TRUE(net.run_until_drained(100'000));
  // One medium transfer, not one per reader: the SWMR bus carries the
  // payload once and every listed reader filter-drops it.
  EXPECT_EQ(net.stats().reads_completed, 1u);
  EXPECT_EQ(net.stats().read_bits_delivered, bits);
  EXPECT_EQ(net.completed().front().done_cycle,
            expected_zero_load_cycles(net, bits, 64));
}

TEST(PhotonicCycleNet, ReadsContendForTheMediumWritesDoNot) {
  // Two same-size reads to different chiplets share the 64-channel medium
  // FIFO-granted, so the second finishes roughly a serialization later;
  // two writes ride dedicated SWSR waveguides and finish together.
  const std::uint64_t bits = 16'384;
  PhotonicCycleNet reads(pinned_config(), power::PhotonicTech{});
  reads.inject_read(0, bits);
  reads.inject_read(1, bits);
  ASSERT_TRUE(reads.run_until_drained(100'000));
  ASSERT_EQ(reads.stats().reads_completed, 2u);
  const auto first = reads.completed()[0].done_cycle;
  const auto second = reads.completed()[1].done_cycle;
  EXPECT_GT(second, first);  // medium was occupied by the first grant

  PhotonicCycleNet writes(pinned_config(), power::PhotonicTech{});
  writes.inject_write(0, bits);
  writes.inject_write(1, bits);
  ASSERT_TRUE(writes.run_until_drained(100'000));
  ASSERT_EQ(writes.stats().writes_completed, 2u);
  EXPECT_EQ(writes.completed()[0].done_cycle,
            writes.completed()[1].done_cycle);
}

TEST(PhotonicCycleNet, SaturatedReadsApproachMediumBandwidth) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  const std::size_t packets = 100;
  for (std::size_t i = 0; i < packets; ++i) {
    net.inject_read(i % net.chiplet_count(), bits);
  }
  ASSERT_TRUE(net.run_until_drained(1'000'000));
  const double medium_bits_per_cycle =
      64.0 * net.bits_per_cycle_per_channel();
  const double delivered_fraction =
      static_cast<double>(net.stats().read_bits_delivered) /
      (static_cast<double>(net.cycle()) * medium_bits_per_cycle);
  // Back-to-back transfers keep the medium busy outside the initial
  // store-and-forward fill and the per-grant turnaround cycles.
  EXPECT_GT(delivered_fraction, 0.9);
  EXPECT_LE(delivered_fraction, 1.0);
}

TEST(PhotonicCycleNet, EpochDrivenUpshiftHysteresisAndDownshift) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;  // 2000 gateway cycles
  power::PhotonicTech tech;
  tech.pcm.write_time_s = 50.0 * units::ns;  // short stalls for the test
  PhotonicCycleNet net(cfg, tech);
  const double gw_bw = 16.0 * net.bits_per_cycle_per_channel() *
                       net.clock_hz();  // one gateway, bits/s
  ASSERT_NEAR(gw_bw, 192e9, 1e6);

  // Epoch 1: demand worth 3 gateways (2.45x one gateway at 85% target).
  net.inject_read(0, 400'000);
  // Provisioning lag: the controller cannot react before the boundary.
  while (net.cycle() < net.epoch_cycles() - 1) {
    net.step();
  }
  EXPECT_EQ(net.controller().active_gateways(0), 1u);
  net.step();  // commits the first epoch boundary
  EXPECT_EQ(net.controller().active_gateways(0), 3u);
  EXPECT_EQ(net.controller().reconfiguration_count(), 2u);

  // Epoch 2: demand needs only 2 gateways but would run them at 78% —
  // above the 60% downshift threshold, so hysteresis holds at 3.
  net.inject_read(0, 300'000);
  while (net.cycle() < 2 * net.epoch_cycles()) {
    net.step();
  }
  EXPECT_EQ(net.controller().active_gateways(0), 3u);
  EXPECT_EQ(net.controller().reconfiguration_count(), 2u);

  // Epoch 3: demand at 52% of a single gateway — below the threshold, so
  // the boundary downshifts to the minimum.
  net.inject_read(0, 100'000);
  while (net.cycle() < 3 * net.epoch_cycles()) {
    net.step();
  }
  EXPECT_EQ(net.controller().active_gateways(0), 1u);
  EXPECT_EQ(net.controller().reconfiguration_count(), 4u);

  // The PCM writes darkened chiplet 0's gateways for the write latency.
  EXPECT_GT(net.stats().stall_cycles, 0u);
  ASSERT_TRUE(net.run_until_drained(1'000'000));
  EXPECT_EQ(net.stats().epochs, 3u);
}

TEST(PhotonicCycleNet, PcmStallPausesInFlightTraffic) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;
  PhotonicCycleNet with_stall(cfg, power::PhotonicTech{});  // 1 us PCM write
  power::PhotonicTech instant;
  instant.pcm.write_time_s = 0.0;
  PhotonicCycleNet no_stall(cfg, instant);
  // Demand large enough to upshift at the first boundary and still be
  // serializing when the PCM write lands.
  with_stall.inject_read(0, 400'000);
  no_stall.inject_read(0, 400'000);
  ASSERT_TRUE(with_stall.run_until_drained(1'000'000));
  ASSERT_TRUE(no_stall.run_until_drained(1'000'000));
  EXPECT_GT(with_stall.stats().stall_cycles, 0u);
  EXPECT_EQ(no_stall.stats().stall_cycles, 0u);
  EXPECT_GT(with_stall.completed().front().done_cycle,
            no_stall.completed().front().done_cycle);
}

TEST(PhotonicCycleNet, AdvanceIdleDownshiftsThroughEpochBoundaries) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;
  power::PhotonicTech tech;
  tech.pcm.write_time_s = 50.0 * units::ns;
  PhotonicCycleNet net(cfg, tech);
  // Epoch 1 upshifts to 3 gateways; epoch 2's demand keeps hysteresis
  // holding them. All traffic drains inside epoch 3.
  net.inject_read(0, 400'000);
  while (net.cycle() < net.epoch_cycles()) {
    net.step();
  }
  net.inject_read(0, 300'000);
  while (net.cycle() < 2 * net.epoch_cycles() + 800) {
    net.step();
  }
  ASSERT_TRUE(net.drained());
  ASSERT_EQ(net.controller().active_gateways(0), 3u);
  const std::uint64_t cycle_before = net.cycle();
  // Two fast-forwarded epochs: the boundary inside the window must fire
  // with zero demand and park the extra gateways.
  net.advance_idle(2 * net.epoch_cycles());
  EXPECT_EQ(net.cycle(), cycle_before + 2 * net.epoch_cycles());
  EXPECT_EQ(net.controller().active_gateways(0), 1u);
  EXPECT_GE(net.stats().epochs, 3u);
}

TEST(PhotonicCycleNet, DeterministicAcrossIdenticalRuns) {
  const auto run = [] {
    PhotonicCycleNetConfig cfg;
    cfg.resipi.epoch_s = 1.0 * units::us;
    PhotonicCycleNet net(cfg, power::PhotonicTech{});
    for (std::size_t i = 0; i < 32; ++i) {
      net.inject_read(i % net.chiplet_count(), 10'000 + 1'000 * i);
      net.inject_write((i + 3) % net.chiplet_count(), 5'000 + 500 * i);
    }
    EXPECT_TRUE(net.run_until_drained(1'000'000));
    return std::tuple{net.cycle(), net.stats().read_latency_cycles.mean(),
                      net.stats().write_latency_cycles.mean(),
                      net.controller().reconfiguration_count(),
                      net.gateway_cycle_weight()};
  };
  EXPECT_EQ(run(), run());
}

TEST(PhotonicCycleNet, GatewayWeightTracksActivation) {
  // Pinned mode: every cycle carries chiplets * gateways_per_chiplet.
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  net.inject_read(0, 16'384);
  ASSERT_TRUE(net.run_until_drained(100'000));
  EXPECT_EQ(net.gateway_cycle_weight(), net.cycle() * 8u * 4u);
}

// ---- busy-period skip-ahead vs per-cycle stepping -------------------------

/// The per-cycle reference run_until_drained() must reproduce bit for bit.
bool step_until_drained(PhotonicCycleNet& net, std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (n < max_cycles && !net.drained()) {
    net.step();
    ++n;
  }
  return net.drained();
}

void expect_same_stat(const sim::RunningStat& a, const sim::RunningStat& b,
                      const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

/// Everything the net reports, compared exactly. Only stepped_cycles may
/// differ: it counts the host work the skip-ahead saves.
void expect_same_net(const PhotonicCycleNet& fast,
                     const PhotonicCycleNet& ref) {
  EXPECT_EQ(fast.cycle(), ref.cycle());
  ASSERT_EQ(fast.completed().size(), ref.completed().size());
  for (std::size_t i = 0; i < ref.completed().size(); ++i) {
    const CompletedTransfer& a = fast.completed()[i];
    const CompletedTransfer& b = ref.completed()[i];
    EXPECT_EQ(a.id, b.id) << "completion " << i;
    EXPECT_EQ(a.is_write, b.is_write) << "completion " << i;
    EXPECT_EQ(a.inject_cycle, b.inject_cycle) << "completion " << i;
    EXPECT_EQ(a.done_cycle, b.done_cycle) << "completion " << i;
  }
  const PhotonicCycleNetStats& a = fast.stats();
  const PhotonicCycleNetStats& b = ref.stats();
  expect_same_stat(a.read_latency_cycles, b.read_latency_cycles, "reads");
  expect_same_stat(a.write_latency_cycles, b.write_latency_cycles, "writes");
  EXPECT_EQ(a.read_bits_delivered, b.read_bits_delivered);
  EXPECT_EQ(a.write_bits_delivered, b.write_bits_delivered);
  EXPECT_EQ(a.reads_completed, b.reads_completed);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_LE(a.stepped_cycles, b.stepped_cycles);
  EXPECT_EQ(fast.gateway_cycle_weight(), ref.gateway_cycle_weight());
  EXPECT_EQ(fast.controller().reconfiguration_count(),
            ref.controller().reconfiguration_count());
  EXPECT_EQ(fast.controller().reconfiguration_energy_j(),
            ref.controller().reconfiguration_energy_j());
  for (std::size_t c = 0; c < ref.chiplet_count(); ++c) {
    EXPECT_EQ(fast.controller().active_gateways(c),
              ref.controller().active_gateways(c))
        << "chiplet " << c;
    EXPECT_EQ(fast.stalled(c), ref.stalled(c)) << "chiplet " << c;
  }
}

/// Drives identical seeded traffic through run_until_drained() and the
/// per-cycle reference: rounds of reads, broadcasts and writes, each
/// followed by a cycle budget that is sometimes too short to drain (so
/// later rounds inject mid-run) and, when drained, an idle gap. Returns
/// the reference's stats so callers can check what the traffic covered.
PhotonicCycleNetStats expect_skip_ahead_matches_stepping(
    const PhotonicCycleNetConfig& cfg, const power::PhotonicTech& tech,
    std::uint64_t seed) {
  PhotonicCycleNet fast(cfg, tech);
  PhotonicCycleNet ref(cfg, tech);
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const std::size_t chiplets = ref.chiplet_count();
  for (int round = 0; round < 24; ++round) {
    const std::uint64_t transfers = 1 + pick(6);
    for (std::uint64_t k = 0; k < transfers; ++k) {
      const std::uint64_t bits = 1 + pick(300'000);
      const std::size_t chiplet = pick(chiplets);
      switch (pick(3)) {
        case 0:
          fast.inject_read(chiplet, bits);
          ref.inject_read(chiplet, bits);
          break;
        case 1: {
          std::vector<std::size_t> targets;
          for (std::size_t c = 0; c < chiplets; ++c) {
            if (c == chiplet || pick(3) == 0) {
              targets.push_back(c);
            }
          }
          fast.inject_broadcast(targets, bits);
          ref.inject_broadcast(targets, bits);
          break;
        }
        default:
          fast.inject_write(chiplet, bits);
          ref.inject_write(chiplet, bits);
          break;
      }
    }
    const std::uint64_t budget =
        pick(4) == 0 ? 1 + pick(3'000) : 1'000'000;
    const bool fast_drained = fast.run_until_drained(budget);
    EXPECT_EQ(fast_drained, step_until_drained(ref, budget))
        << "round " << round;
    expect_same_net(fast, ref);
    if (fast_drained && ref.drained() && pick(2) == 0) {
      const std::uint64_t idle = pick(3 * ref.epoch_cycles());
      fast.advance_idle(idle);
      ref.advance_idle(idle);
    }
  }
  EXPECT_TRUE(fast.run_until_drained(10'000'000));
  EXPECT_TRUE(step_until_drained(ref, 10'000'000));
  expect_same_net(fast, ref);
  EXPECT_LT(fast.stats().stepped_cycles, ref.stats().stepped_cycles);
  return ref.stats();
}

TEST(PhotonicCycleNetSkipAhead, MatchesSteppingThroughEpochsAndStalls) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;  // many boundaries per round
  power::PhotonicTech tech;
  tech.pcm.write_time_s = 150.0 * units::ns;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const PhotonicCycleNetStats covered =
        expect_skip_ahead_matches_stepping(cfg, tech, seed);
    EXPECT_GT(covered.stall_cycles, 0u);
    EXPECT_GT(covered.epochs, 3u);
  }
  // Stalls as long as the epoch: transfers pause across boundaries.
  EXPECT_GT(
      expect_skip_ahead_matches_stepping(cfg, power::PhotonicTech{}, 4)
          .stall_cycles,
      0u);
}

TEST(PhotonicCycleNetSkipAhead, MatchesSteppingWithResipiDisabled) {
  for (const std::uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE(seed);
    expect_skip_ahead_matches_stepping(pinned_config(),
                                       power::PhotonicTech{}, seed);
  }
}

TEST(PhotonicCycleNetSkipAhead, MatchesSteppingAtFractionalBitsPerCycle) {
  // 7 Gb/s at a 2.5 GHz gateway clock: 2.8 bits per cycle per channel, so
  // serialization progress is not an exact integer and the fold replays.
  PhotonicCycleNetConfig cfg;
  cfg.interposer.gateway_clock_hz = 2.5 * units::GHz;
  cfg.interposer.data_rate_per_wavelength_bps = 7.0 * units::Gbps;
  cfg.resipi.epoch_s = 1.0 * units::us;
  power::PhotonicTech tech;
  tech.pcm.write_time_s = 150.0 * units::ns;
  {
    const PhotonicCycleNet probe(cfg, tech);
    ASSERT_NE(probe.bits_per_cycle_per_channel(),
              std::floor(probe.bits_per_cycle_per_channel()));
  }
  for (const std::uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE(seed);
    EXPECT_GT(expect_skip_ahead_matches_stepping(cfg, tech, seed)
                  .stall_cycles,
              0u);
  }
  cfg.resipi_enabled = false;
  expect_skip_ahead_matches_stepping(cfg, tech, 9);
}

TEST(PhotonicCycleNetSkipAhead, CapStopsMidTransferOnTheSameCycle) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;
  PhotonicCycleNet fast(cfg, power::PhotonicTech{});
  PhotonicCycleNet ref(cfg, power::PhotonicTech{});
  for (PhotonicCycleNet* net : {&fast, &ref}) {
    net->inject_read(0, 400'000);
    net->inject_write(1, 250'000);
  }
  for (const std::uint64_t cap : {1u, 17u, 1'999u, 2'500u}) {
    SCOPED_TRACE(cap);
    EXPECT_FALSE(fast.run_until_drained(cap));
    EXPECT_FALSE(step_until_drained(ref, cap));
    expect_same_net(fast, ref);
  }
  EXPECT_TRUE(fast.run_until_drained(1'000'000));
  EXPECT_TRUE(step_until_drained(ref, 1'000'000));
  expect_same_net(fast, ref);
}

}  // namespace
}  // namespace optiplet::noc
