#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

namespace optiplet::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue q;
  double seen = -1.0;
  q.schedule_at(2.5, [&] { seen = q.now(); });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule_at(10.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunHonoursEventBudget) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(static_cast<double>(i), [&] { ++fired; });
  }
  const std::uint64_t processed = q.run(4);
  EXPECT_EQ(processed, 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(q.size(), 6u);
}

TEST(EventQueue, CountsProcessedEvents) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(static_cast<double>(i), [] {});
  }
  EXPECT_EQ(q.processed(), 0u);
  q.step();
  EXPECT_EQ(q.processed(), 1u);
  q.run();
  EXPECT_EQ(q.processed(), 5u);
}

TEST(EventQueue, TracksPeakSize) {
  EventQueue q;
  EXPECT_EQ(q.peak_size(), 0u);
  q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  q.schedule_at(3.0, [] {});
  EXPECT_EQ(q.peak_size(), 3u);
  q.run();
  // The peak survives the drain; late scheduling below it does not move it.
  EXPECT_EQ(q.peak_size(), 3u);
  q.schedule_at(4.0, [] {});
  EXPECT_EQ(q.peak_size(), 3u);
}

/// A callback that counts its own copies. Its move constructor is
/// noexcept, so moving the std::function that holds it never copies it;
/// only copying the std::function does.
struct CopyCounting {
  int* copies;
  std::vector<int>* order;
  int id;

  CopyCounting(int* c, std::vector<int>* o, int i)
      : copies(c), order(o), id(i) {}
  CopyCounting(const CopyCounting& other)
      : copies(other.copies), order(other.order), id(other.id) {
    ++*copies;
  }
  CopyCounting(CopyCounting&&) noexcept = default;

  void operator()() const { order->push_back(id); }
};

TEST(EventQueue, StepMovesCallbacksWithoutCopying) {
  EventQueue q;
  int copies = 0;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    q.schedule_at(static_cast<double>(31 - i),
                  CopyCounting(&copies, &order, i));
  }
  EXPECT_EQ(copies, 0);
  q.run();
  EXPECT_EQ(copies, 0);
  ASSERT_EQ(order.size(), 32u);
  EXPECT_EQ(order.front(), 31);
  EXPECT_EQ(order.back(), 0);
}

TEST(EventQueue, EqualTimesStayFifoAcrossInterleavedSchedulesAndSteps) {
  EventQueue q;
  int copies = 0;
  std::vector<int> order;
  const auto at = [&](double t, int id) {
    q.schedule_at(t, CopyCounting(&copies, &order, id));
  };
  at(1.0, 0);
  at(2.0, 100);
  at(1.0, 1);
  at(1.0, 2);
  ASSERT_TRUE(q.step());  // runs 0
  at(1.0, 3);
  at(1.0, 4);
  ASSERT_TRUE(q.step());  // runs 1
  at(2.0, 101);
  ASSERT_TRUE(q.step());  // runs 2
  at(1.0, 5);
  // An event a callback schedules for its own time runs after every
  // event already queued for that time.
  q.schedule_at(1.0, [&] { at(1.0, 6); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 100, 101}));
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(q.processed(), 10u);
  EXPECT_EQ(q.peak_size(), 6u);
}

TEST(EventQueue, SelfPerpetuatingChainBounded) {
  EventQueue q;
  std::uint64_t count = 0;
  std::function<void()> tick = [&] {
    if (++count < 1000) {
      q.schedule_in(0.001, tick);
    }
  };
  q.schedule_at(0.0, tick);
  q.run();
  EXPECT_EQ(count, 1000u);
  EXPECT_NEAR(q.now(), 0.999, 1e-9);
}

}  // namespace
}  // namespace optiplet::sim
