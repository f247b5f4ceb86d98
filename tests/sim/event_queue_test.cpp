#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace optiplet::sim {
namespace {

/// A minimal event record: the id the handler logs.
struct Ev {
  int id = 0;
};

using Queue = EventQueue<Ev>;

/// Run `q` to empty, returning the ids in firing order.
std::vector<int> drain(Queue& q) {
  std::vector<int> order;
  q.run([&](const Ev& e) { order.push_back(e.id); });
  return order;
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  Queue q;
  q.schedule_at(3.0, Ev{3});
  q.schedule_at(1.0, Ev{1});
  q.schedule_at(2.0, Ev{2});
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInInsertionOrder) {
  Queue q;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, Ev{i});
  }
  EXPECT_EQ(drain(q), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, NowAdvancesWithEvents) {
  Queue q;
  double seen = -1.0;
  q.schedule_at(2.5, Ev{});
  q.run([&](const Ev&) { seen = q.now(); });
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents) {
  Queue q;
  std::vector<int> order;
  q.schedule_at(1.0, Ev{1});
  q.run([&](const Ev& e) {
    order.push_back(e.id);
    if (e.id == 1) {
      q.schedule_in(1.0, Ev{2});
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  Queue q;
  q.schedule_at(10.0, Ev{});
  ASSERT_TRUE(q.step([](const Ev&) {}));
  EXPECT_THROW(q.schedule_at(5.0, Ev{}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-1.0, Ev{}), std::invalid_argument);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  Queue q;
  int fired = 0;
  EXPECT_FALSE(q.step([&](const Ev&) { ++fired; }));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.processed(), 0u);
}

TEST(EventQueue, CountsProcessedEvents) {
  Queue q;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(static_cast<double>(i), Ev{i});
  }
  EXPECT_EQ(q.processed(), 0u);
  q.step([](const Ev&) {});
  EXPECT_EQ(q.processed(), 1u);
  EXPECT_EQ(q.size(), 4u);
  drain(q);
  EXPECT_EQ(q.processed(), 5u);
}

TEST(EventQueue, TracksPeakSize) {
  Queue q;
  EXPECT_EQ(q.peak_size(), 0u);
  q.schedule_at(1.0, Ev{});
  q.schedule_at(2.0, Ev{});
  q.schedule_at(3.0, Ev{});
  EXPECT_EQ(q.peak_size(), 3u);
  drain(q);
  // The peak survives the drain; late scheduling below it does not move it.
  EXPECT_EQ(q.peak_size(), 3u);
  q.schedule_at(4.0, Ev{});
  EXPECT_EQ(q.peak_size(), 3u);
}

TEST(EventQueue, EqualTimesStayFifoAcrossInterleavedSchedulesAndSteps) {
  Queue q;
  std::vector<int> order;
  const auto log = [&](const Ev& e) {
    order.push_back(e.id);
    if (e.id == -1) {
      // An event a handler schedules for its own time runs after every
      // event already queued for that time.
      q.schedule_at(1.0, Ev{6});
    }
  };
  q.schedule_at(1.0, Ev{0});
  q.schedule_at(2.0, Ev{100});
  q.schedule_at(1.0, Ev{1});
  q.schedule_at(1.0, Ev{2});
  ASSERT_TRUE(q.step(log));  // runs 0
  q.schedule_at(1.0, Ev{3});
  q.schedule_at(1.0, Ev{4});
  ASSERT_TRUE(q.step(log));  // runs 1
  q.schedule_at(2.0, Ev{101});
  ASSERT_TRUE(q.step(log));  // runs 2
  q.schedule_at(1.0, Ev{5});
  q.schedule_at(1.0, Ev{-1});
  q.run(log);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, -1, 6, 100, 101}));
  EXPECT_EQ(q.processed(), 10u);
  EXPECT_EQ(q.peak_size(), 6u);
}

TEST(EventQueue, SelfPerpetuatingChainBounded) {
  Queue q;
  std::uint64_t count = 0;
  q.schedule_at(0.0, Ev{});
  q.run([&](const Ev&) {
    if (++count < 1000) {
      q.schedule_in(0.001, Ev{});
    }
  });
  EXPECT_EQ(count, 1000u);
  EXPECT_EQ(q.processed(), 1000u);
  EXPECT_NEAR(q.now(), 0.999, 1e-9);
}

}  // namespace
}  // namespace optiplet::sim
