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
#include <type_traits>
#include <vector>

#include "util/require.hpp"

namespace optiplet::sim {

/// Min-heap of (time, seq) → `Event`, a plain record the caller dispatches
/// itself: nothing is type-erased or heap-allocated per event. Not
/// thread-safe by design: the transaction simulator is single-threaded.
template <class Event>
class EventQueue {
  static_assert(std::is_trivially_copyable_v<Event>,
                "events are plain records, copied in and out of the heap");

 public:
  /// Schedule `event` at absolute time `t` (seconds); t must not precede
  /// now().
  void schedule_at(double t, const Event& event) {
    OPTIPLET_REQUIRE(t >= now_, "cannot schedule in the past");
    heap_.push_back(Entry{t, next_seq_++, event});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    if (heap_.size() > peak_size_) {
      peak_size_ = heap_.size();
    }
  }

  /// Schedule `event` `dt` seconds from now; dt must be non-negative.
  void schedule_in(double dt, const Event& event) {
    OPTIPLET_REQUIRE(dt >= 0.0, "negative delay");
    schedule_at(now_ + dt, event);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double now() const { return now_; }

  /// Self-profiling: events executed so far and the deepest the heap has
  /// been. Both are deterministic (pure functions of the schedule), so they
  /// may surface in reports that determinism tests compare.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Pop the earliest event and hand it to `handler(const Event&)`, which
  /// may schedule more; returns false when the queue is empty.
  template <class Handler>
  bool step(Handler&& handler) {
    if (heap_.empty()) {
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Entry e = heap_.back();
    heap_.pop_back();
    now_ = e.time;
    ++processed_;
    handler(e.event);
    return true;
  }

  /// Step until the queue is empty.
  template <class Handler>
  void run(Handler&& handler) {
    while (!heap_.empty()) {
      step(handler);
    }
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Event event;

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
