#pragma once
/// \file event_queue.hpp
/// Discrete-event kernel for the transaction-level system simulator.
///
/// Continuous time (seconds, double). Events scheduled at equal times fire in
/// insertion order (a monotone sequence number breaks ties), which keeps the
/// system simulator deterministic.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/require.hpp"

namespace optiplet::sim {

/// Min-heap of (time, seq) → callback. Not thread-safe by design: the
/// transaction simulator is single-threaded.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute time `t` (seconds); t must not precede now().
  void schedule_at(double t, Callback cb) {
    OPTIPLET_REQUIRE(t >= now_, "cannot schedule in the past");
    heap_.push_back(Entry{t, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    if (heap_.size() > peak_size_) {
      peak_size_ = heap_.size();
    }
  }

  /// Schedule `cb` `dt` seconds from now; dt must be non-negative.
  void schedule_in(double dt, Callback cb) {
    OPTIPLET_REQUIRE(dt >= 0.0, "negative delay");
    schedule_at(now_ + dt, std::move(cb));
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double now() const { return now_; }

  /// Self-profiling: events executed so far and the deepest the heap has
  /// been. Both are deterministic (pure functions of the schedule), so they
  /// may surface in reports that determinism tests compare.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Pop and run the earliest event; returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) {
      return false;
    }
    // Move out before running so the callback may schedule new events;
    // moving (not copying) skips duplicating the callback's captures.
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.time;
    ++processed_;
    e.cb();
    return true;
  }

  /// Run until empty or `max_events` processed; returns events processed.
  std::uint64_t run(std::uint64_t max_events = ~0ULL) {
    std::uint64_t n = 0;
    while (n < max_events && step()) {
      ++n;
    }
    return n;
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Callback cb;

    bool operator>(const Entry& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  std::vector<Entry> heap_;  // binary min-heap under std::greater<>
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  std::uint64_t processed_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace optiplet::sim
