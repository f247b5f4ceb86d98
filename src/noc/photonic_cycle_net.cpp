#include "noc/photonic_cycle_net.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/recorder.hpp"
#include "util/require.hpp"

namespace optiplet::noc {

namespace {

PhotonicCycleNetConfig resolve_config(PhotonicCycleNetConfig config) {
  if (config.chiplet_count == 0) {
    config.chiplet_count = config.interposer.compute_chiplets;
  }
  return config;
}

std::uint64_t cycles_for(double seconds, double clock_hz) {
  return static_cast<std::uint64_t>(std::ceil(seconds * clock_hz - 1e-9));
}

/// Serialization progress below this many bits counts as done (guards the
/// floating-point remainder of fractional bits-per-cycle rates).
constexpr double kRemainderTolerance = 1e-6;

/// True when `remaining - k * rate` is exact for every k the transfer
/// lives through: integer-valued doubles below 2^53 subtract without
/// rounding, so one multiply-subtract equals k per-cycle subtractions.
bool exact_progress(double remaining, double rate) {
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  return rate == std::floor(rate) && remaining == std::floor(remaining) &&
         remaining < kExactLimit && rate < kExactLimit;
}

/// Cycles until a transfer with `remaining` bits left retires while
/// serializing `rate` bits per cycle (the cycle whose subtraction lands at
/// or below the tolerance), or `limit` when that is later.
std::uint64_t cycles_to_retire(double remaining, double rate,
                               std::uint64_t limit) {
  if (rate <= 0.0) {
    return limit;
  }
  if (exact_progress(remaining, rate)) {
    const auto bits = static_cast<std::uint64_t>(remaining);
    const auto per_cycle = static_cast<std::uint64_t>(rate);
    return std::min(limit, (bits + per_cycle - 1) / per_cycle);
  }
  for (std::uint64_t k = 1; k <= limit; ++k) {
    remaining -= rate;
    if (remaining <= kRemainderTolerance) {
      return k;
    }
  }
  return limit;
}

/// `remaining` after `cycles` per-cycle subtractions of `rate`, bit for
/// bit (a scalar replay when the values are not exact integers).
double drain_bits(double remaining, double rate, std::uint64_t cycles) {
  if (exact_progress(remaining, rate)) {
    return remaining - static_cast<double>(cycles) * rate;
  }
  for (std::uint64_t k = 0; k < cycles; ++k) {
    remaining -= rate;
  }
  return remaining;
}

}  // namespace

PhotonicCycleNet::PhotonicCycleNet(const PhotonicCycleNetConfig& config,
                                   const power::PhotonicTech& tech)
    : config_(resolve_config(config)),
      interposer_(config_.interposer, tech),
      controller_(config_.resipi, config_.chiplet_count,
                  config_.interposer.gateways_per_chiplet,
                  interposer_.gateway_bandwidth_bps(), tech.pcm),
      engine_(config_.interposer.gateway_clock_hz),
      broadcast_component_(*this, &PhotonicCycleNet::evaluate_broadcast,
                           &PhotonicCycleNet::commit_broadcast),
      return_component_(*this, &PhotonicCycleNet::evaluate_returns,
                        &PhotonicCycleNet::commit_returns),
      epoch_component_(*this, nullptr, &PhotonicCycleNet::commit_epoch),
      chiplets_(config_.chiplet_count) {
  const double clock = config_.interposer.gateway_clock_hz;
  bits_per_cycle_per_channel_ =
      photonics::line_rate_bps(config_.interposer.modulation,
                               config_.interposer
                                   .data_rate_per_wavelength_bps) /
      clock;
  OPTIPLET_REQUIRE(bits_per_cycle_per_channel_ > 0.0,
                   "line rate must be positive");
  store_forward_cycles_ =
      cycles_for(interposer_.compute_gateway().store_forward_latency_s(),
                 clock);
  tof_cycles_ = cycles_for(interposer_.time_of_flight_s(), clock);
  epoch_cycles_ = std::max<std::uint64_t>(
      1, cycles_for(config_.resipi.epoch_s, clock));
  pcm_write_cycles_ = cycles_for(tech.pcm.write_time_s, clock);
  free_channels_ = config_.interposer.total_wavelengths;

  engine_.register_component(broadcast_component_);
  engine_.register_component(return_component_);
  engine_.register_component(epoch_component_);

  controller_.set_recorder(config_.recorder);
  if (config_.recorder != nullptr && config_.recorder->tracing()) {
    obs::Recorder& rec = *config_.recorder;
    rec.trace().set_process_name(rec.pid(), "noc");
    epoch_track_ = rec.trace().track(rec.pid(), "resipi");
  }
}

std::size_t PhotonicCycleNet::active_gateways(std::size_t chiplet) const {
  return config_.resipi_enabled ? controller_.active_gateways(chiplet)
                                : config_.interposer.gateways_per_chiplet;
}

std::size_t PhotonicCycleNet::reader_capacity(std::size_t chiplet) const {
  return active_gateways(chiplet) * interposer_.wavelengths_per_gateway();
}

bool PhotonicCycleNet::stalled(std::size_t chiplet) const {
  OPTIPLET_REQUIRE(chiplet < chiplets_.size(), "chiplet index out of range");
  return chiplets_[chiplet].stall_until_cycle > now_;
}

bool PhotonicCycleNet::paused(const ReadTransfer& t) const {
  return std::any_of(t.targets.begin(), t.targets.end(),
                     [this](std::size_t c) { return stalled(c); });
}

double PhotonicCycleNet::read_rate(const ReadTransfer& t) const {
  return static_cast<double>(t.channels) * bits_per_cycle_per_channel_;
}

double PhotonicCycleNet::write_rate(std::size_t chiplet) const {
  // The dedicated return waveguide serializes at the chiplet's currently
  // active modulator bandwidth; activation changes apply per cycle.
  return static_cast<double>(reader_capacity(chiplet)) *
         bits_per_cycle_per_channel_;
}

std::uint64_t PhotonicCycleNet::inject_read(std::size_t chiplet,
                                            std::uint64_t bits) {
  return inject_broadcast({chiplet}, bits);
}

std::uint64_t PhotonicCycleNet::inject_broadcast(
    const std::vector<std::size_t>& targets, std::uint64_t bits) {
  OPTIPLET_REQUIRE(!targets.empty(), "broadcast needs at least one target");
  OPTIPLET_REQUIRE(bits >= 1, "empty transfer");
  ReadTransfer t;
  t.id = next_id_++;
  t.targets = targets;
  for (const std::size_t c : t.targets) {
    OPTIPLET_REQUIRE(c < chiplets_.size(), "chiplet index out of range");
    chiplets_[c].epoch_demand_bits += bits;
  }
  t.payload_bits = bits;
  t.remaining_bits = static_cast<double>(bits);
  t.inject_cycle = now_;
  t.eligible_cycle = now_ + store_forward_cycles_;
  reads_.push_back(std::move(t));
  return reads_.back().id;
}

std::uint64_t PhotonicCycleNet::inject_write(std::size_t chiplet,
                                             std::uint64_t bits) {
  OPTIPLET_REQUIRE(chiplet < chiplets_.size(), "chiplet index out of range");
  OPTIPLET_REQUIRE(bits >= 1, "empty transfer");
  WriteTransfer t;
  t.id = next_id_++;
  t.payload_bits = bits;
  t.remaining_bits = static_cast<double>(bits);
  t.inject_cycle = now_;
  t.eligible_cycle = now_ + store_forward_cycles_;
  chiplets_[chiplet].epoch_demand_bits += bits;
  chiplets_[chiplet].write_queue.push_back(std::move(t));
  return chiplets_[chiplet].write_queue.back().id;
}

void PhotonicCycleNet::retire(std::uint64_t id, bool is_write,
                              std::uint64_t inject_cycle, std::uint64_t bits) {
  CompletedTransfer done;
  done.id = id;
  done.is_write = is_write;
  done.inject_cycle = inject_cycle;
  done.done_cycle = now_ + 1 + tof_cycles_;
  const auto latency = static_cast<double>(done.done_cycle - inject_cycle);
  if (is_write) {
    stats_.write_latency_cycles.add(latency);
    stats_.write_bits_delivered += bits;
    ++stats_.writes_completed;
  } else {
    stats_.read_latency_cycles.add(latency);
    stats_.read_bits_delivered += bits;
    ++stats_.reads_completed;
  }
  completed_.push_back(done);
}

// ---- SWMR broadcast (memory -> chiplets) -----------------------------------

void PhotonicCycleNet::evaluate_broadcast() {
  retired_read_slots_.clear();
  granted_read_slots_.clear();
  granted_read_channels_.clear();

  // 1. Progress granted transfers whose every target is unstalled; stage
  //    retirements. A stalled reader pauses the transfer: its filter rows
  //    are dark while the PCM write is in flight.
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    ReadTransfer& t = reads_[i];
    if (!t.granted) {
      continue;
    }
    if (paused(t)) {
      continue;
    }
    t.remaining_bits -= read_rate(t);
    if (t.remaining_bits <= kRemainderTolerance) {
      retired_read_slots_.push_back(i);
    }
  }

  // 2. Grant waiting transfers in FIFO order. Each grant takes a fixed
  //    wavelength slice bounded by the medium's free channels and by every
  //    target reader's free filter capacity; transfers that cannot get a
  //    single channel wait, but later transfers to other readers may still
  //    grant (no head-of-line blocking across destinations). Channels freed
  //    by this cycle's retirements become grantable next cycle (filter-row
  //    re-tuning turnaround).
  std::size_t medium_free = free_channels_;
  std::vector<std::size_t> staged_in_use(chiplets_.size(), 0);
  for (std::size_t i = 0; i < reads_.size() && medium_free > 0; ++i) {
    const ReadTransfer& t = reads_[i];
    if (t.granted || now_ < t.eligible_cycle) {
      continue;
    }
    bool blocked = false;
    std::size_t cap = medium_free;
    for (const std::size_t c : t.targets) {
      if (stalled(c)) {
        blocked = true;
        break;
      }
      const std::size_t used =
          chiplets_[c].read_channels_in_use + staged_in_use[c];
      const std::size_t capacity = reader_capacity(c);
      if (used >= capacity) {
        blocked = true;
        break;
      }
      cap = std::min(cap, capacity - used);
    }
    if (blocked || cap == 0) {
      continue;
    }
    for (const std::size_t c : t.targets) {
      staged_in_use[c] += cap;
    }
    medium_free -= cap;
    granted_read_slots_.push_back(i);
    granted_read_channels_.push_back(cap);
  }
}

void PhotonicCycleNet::commit_broadcast() {
  for (std::size_t g = 0; g < granted_read_slots_.size(); ++g) {
    ReadTransfer& t = reads_[granted_read_slots_[g]];
    t.granted = true;
    t.channels = granted_read_channels_[g];
    free_channels_ -= t.channels;
    for (const std::size_t c : t.targets) {
      chiplets_[c].read_channels_in_use += t.channels;
    }
  }
  // Erase retired slots back to front so earlier indices stay valid.
  for (auto it = retired_read_slots_.rbegin();
       it != retired_read_slots_.rend(); ++it) {
    const ReadTransfer& t = reads_[*it];
    free_channels_ += t.channels;
    for (const std::size_t c : t.targets) {
      chiplets_[c].read_channels_in_use -= t.channels;
    }
    retire(t.id, /*is_write=*/false, t.inject_cycle, t.payload_bits);
    reads_.erase(reads_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
}

// ---- SWSR returns (chiplet -> memory) --------------------------------------

void PhotonicCycleNet::evaluate_returns() {
  retired_write_chiplets_.clear();
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    ChipletState& state = chiplets_[c];
    if (state.write_queue.empty() || stalled(c)) {
      continue;
    }
    WriteTransfer& head = state.write_queue.front();
    // One cycle of modulator-row turnaround after eligibility, mirroring
    // the read path's grant cycle.
    if (now_ <= head.eligible_cycle) {
      continue;
    }
    head.remaining_bits -= write_rate(c);
    if (head.remaining_bits <= kRemainderTolerance) {
      retired_write_chiplets_.push_back(c);
    }
  }
}

void PhotonicCycleNet::commit_returns() {
  for (const std::size_t c : retired_write_chiplets_) {
    ChipletState& state = chiplets_[c];
    const WriteTransfer head = state.write_queue.front();
    state.write_queue.erase(state.write_queue.begin());
    retire(head.id, /*is_write=*/true, head.inject_cycle, head.payload_bits);
  }
}

// ---- ReSiPI epochs ---------------------------------------------------------

void PhotonicCycleNet::commit_epoch() {
  std::uint64_t active = 0;
  bool any_stalled = false;
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    active += active_gateways(c);
    any_stalled = any_stalled || stalled(c);
  }
  gateway_cycle_weight_ += active;
  if (any_stalled) {
    ++stats_.stall_cycles;
  }
  if (config_.resipi_enabled && (now_ + 1) % epoch_cycles_ == 0) {
    run_epoch_boundary(now_ + 1);
  }
}

void PhotonicCycleNet::run_epoch_boundary(std::uint64_t boundary_cycle) {
  std::vector<double> demands(chiplets_.size(), 0.0);
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    demands[c] = static_cast<double>(chiplets_[c].epoch_demand_bits) /
                 config_.resipi.epoch_s;
  }
  std::vector<std::size_t> before(chiplets_.size(), 0);
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    before[c] = controller_.active_gateways(c);
  }
  const std::size_t writes = controller_.observe_epoch(demands);
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    chiplets_[c].epoch_demand_bits = 0;
    if (controller_.active_gateways(c) != before[c]) {
      // The PCM write gates this chiplet's gateways for the write latency:
      // the activation change commits now, the light comes back after it.
      chiplets_[c].stall_until_cycle = boundary_cycle + pcm_write_cycles_;
    }
  }
  ++stats_.epochs;
  if (config_.recorder != nullptr) {
    obs::Recorder& rec = *config_.recorder;
    const double end_s = static_cast<double>(boundary_cycle) / clock_hz();
    if (rec.tracing()) {
      const double start_s =
          static_cast<double>(boundary_cycle - epoch_cycles_) / clock_hz();
      rec.trace().add_complete(
          "epoch", "noc", start_s, end_s, rec.pid(), epoch_track_,
          {obs::arg("writes", static_cast<std::uint64_t>(writes)),
           obs::arg("active_gateways", static_cast<std::uint64_t>(
                                           controller_
                                               .total_active_gateways()))});
    }
    if (rec.metering()) {
      rec.metrics().snapshot(end_s);
    }
  }
}

// ---- driving ---------------------------------------------------------------

void PhotonicCycleNet::step() {
  engine_.step();
  ++now_;
  ++stats_.busy_cycles;
  ++stats_.stepped_cycles;
}

bool PhotonicCycleNet::drained() const {
  if (!reads_.empty()) {
    return false;
  }
  for (const auto& c : chiplets_) {
    if (!c.write_queue.empty()) {
      return false;
    }
  }
  return true;
}

bool PhotonicCycleNet::run_until_drained(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  // The last step granted nothing, retired nothing and crossed no epoch
  // boundary: until the next event, every step would do the same.
  bool quiet = false;
  while (n < max_cycles && !drained()) {
    if (quiet) {
      const std::uint64_t h = quiet_horizon(max_cycles - n);
      fold_quiet(h);
      n += h;
      if (n == max_cycles) {
        break;
      }
    }
    const std::uint64_t epochs = stats_.epochs;
    step();
    ++n;
    quiet = granted_read_slots_.empty() && retired_read_slots_.empty() &&
            retired_write_chiplets_.empty() && stats_.epochs == epochs;
  }
  return drained();
}

std::uint64_t PhotonicCycleNet::quiet_horizon(std::uint64_t limit) const {
  // Each event below is the first cycle whose step could differ from the
  // quiet one before it; the horizon is the gap to the earliest.
  std::uint64_t h = limit;
  const auto until = [&](std::uint64_t event_cycle) {
    if (event_cycle >= now_) {
      h = std::min(h, event_cycle - now_);
    }
  };
  // A progressing transfer stays quiet up to the cycle it retires in.
  const auto until_retired = [&](double remaining, double rate) {
    if (h > 0) {
      const std::uint64_t cap =
          h < std::numeric_limits<std::uint64_t>::max() ? h + 1 : h;
      h = std::min(h, cycles_to_retire(remaining, rate, cap) - 1);
    }
  };
  if (config_.resipi_enabled) {
    until((now_ / epoch_cycles_ + 1) * epoch_cycles_ - 1);  // epoch commit
  }
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    const ChipletState& state = chiplets_[c];
    until(state.stall_until_cycle);  // gateways relight
    if (!state.write_queue.empty()) {
      const WriteTransfer& head = state.write_queue.front();
      until(head.eligible_cycle + 1);  // serialization starts
      if (!stalled(c) && now_ > head.eligible_cycle) {
        until_retired(head.remaining_bits, write_rate(c));
      }
    }
  }
  for (const ReadTransfer& t : reads_) {
    if (!t.granted) {
      until(t.eligible_cycle);  // grant arbitration sees it
    } else if (!paused(t)) {
      until_retired(t.remaining_bits, read_rate(t));
    }
  }
  return h;
}

void PhotonicCycleNet::fold_quiet(std::uint64_t cycles) {
  for (ReadTransfer& t : reads_) {
    if (t.granted && !paused(t)) {
      t.remaining_bits = drain_bits(t.remaining_bits, read_rate(t), cycles);
    }
  }
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    ChipletState& state = chiplets_[c];
    if (!state.write_queue.empty() && !stalled(c) &&
        now_ > state.write_queue.front().eligible_cycle) {
      WriteTransfer& head = state.write_queue.front();
      head.remaining_bits = drain_bits(head.remaining_bits, write_rate(c),
                                       cycles);
    }
  }
  charge_span(now_ + cycles);
  now_ += cycles;
  stats_.busy_cycles += cycles;
}

void PhotonicCycleNet::charge_span(std::uint64_t end) {
  std::uint64_t active = 0;
  std::uint64_t stall_until_max = 0;
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    active += active_gateways(c);
    stall_until_max = std::max(stall_until_max, chiplets_[c].stall_until_cycle);
  }
  gateway_cycle_weight_ += active * (end - now_);
  // Activation only changes at epoch commits, and every live stall window
  // started at or before now_: the stalled part of the span is its prefix.
  if (stall_until_max > now_) {
    stats_.stall_cycles += std::min(end, stall_until_max) - now_;
  }
}

void PhotonicCycleNet::advance_idle(std::uint64_t cycles) {
  OPTIPLET_REQUIRE(drained(), "advance_idle requires a drained network");
  const std::uint64_t end = now_ + cycles;
  while (now_ < end) {
    std::uint64_t next = end;
    if (config_.resipi_enabled) {
      const std::uint64_t boundary =
          (now_ / epoch_cycles_ + 1) * epoch_cycles_;
      next = std::min(next, boundary);
    }
    // Chunks run boundary to boundary, so activation is constant inside.
    charge_span(next);
    now_ = next;
    if (config_.resipi_enabled && now_ % epoch_cycles_ == 0) {
      run_epoch_boundary(now_);
    }
  }
}

void PhotonicCycleNet::advance_idle_s(double seconds) {
  OPTIPLET_REQUIRE(seconds >= 0.0, "idle time must be non-negative");
  advance_idle(cycles_for(seconds, clock_hz()));
}

void PhotonicCycleNet::warm_layer(const std::vector<std::uint64_t>& demand_bits,
                                  double duration_s) {
  OPTIPLET_REQUIRE(drained(), "warm_layer requires a drained network");
  OPTIPLET_REQUIRE(demand_bits.size() == chiplets_.size(),
                   "warm_layer demand vector size mismatch");
  OPTIPLET_REQUIRE(duration_s >= 0.0, "layer duration must be non-negative");
  // Book the layer's traffic exactly as inject_* would, then fast-forward
  // its wall time: epoch boundaries fire on the real (clock-aligned) grid
  // with real cross-layer demand carry, so the controller upshifts,
  // downshifts, and hysteresis-holds through the fast-forwarded span just
  // as it would in a continuous cycle run.
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    chiplets_[c].epoch_demand_bits += demand_bits[c];
  }
  advance_idle_s(duration_s);
}

}  // namespace optiplet::noc
