#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

namespace lidc::sim {
namespace {

TEST(DurationTest, UnitConversions) {
  EXPECT_EQ(Duration::millis(1).toNanos(), 1'000'000);
  EXPECT_DOUBLE_EQ(Duration::seconds(2.5).toSeconds(), 2.5);
  EXPECT_DOUBLE_EQ(Duration::minutes(2).toSeconds(), 120.0);
  EXPECT_DOUBLE_EQ(Duration::hours(1).toSeconds(), 3600.0);
  EXPECT_DOUBLE_EQ(Duration::micros(1500).toMillis(), 1.5);
}

TEST(DurationTest, ArithmeticAndOrdering) {
  EXPECT_EQ(Duration::millis(3) + Duration::millis(4), Duration::millis(7));
  EXPECT_EQ(Duration::seconds(1) - Duration::millis(250), Duration::millis(750));
  EXPECT_LT(Duration::millis(1), Duration::seconds(1));
  EXPECT_EQ(Duration::millis(10) * 2.0, Duration::millis(20));
}

TEST(TimeTest, TimePlusDuration) {
  const Time t = Time::fromNanos(1000) + Duration::nanos(500);
  EXPECT_EQ(t.toNanos(), 1500);
  EXPECT_EQ(t - Time::fromNanos(1000), Duration::nanos(500));
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAfter(Duration::millis(30), [&] { order.push_back(3); });
  sim.scheduleAfter(Duration::millis(10), [&] { order.push_back(1); });
  sim.scheduleAfter(Duration::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.scheduleAfter(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  Time observed;
  sim.scheduleAfter(Duration::seconds(2), [&] { observed = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(observed.toSeconds(), 2.0);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(Duration::millis(1), [&] {
    ++fired;
    sim.scheduleAfter(Duration::millis(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.scheduleAfter(Duration::millis(5), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFiringIsHarmless) {
  Simulator sim;
  auto handle = sim.scheduleAfter(Duration::millis(1), [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op

  // The next event reuses the freed slot; the stale handle must not reach it.
  auto stale = sim.scheduleAfter(Duration::millis(1), [] {});
  sim.run();
  bool fired = false;
  auto fresh = sim.scheduleAfter(Duration::millis(1), [&] { fired = true; });
  stale.cancel();
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(Duration::millis(10), [&] { ++fired; });
  sim.scheduleAfter(Duration::millis(30), [&] { ++fired; });
  const auto count =
      sim.runUntil(Time::fromNanos(Duration::millis(20).toNanos()));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(fired, 1);
  // Clock advanced exactly to the deadline.
  EXPECT_EQ(sim.now().toNanos(), Duration::millis(20).toNanos());
  // The rest still runs later.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunStepsLimitsEventCount) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.scheduleAfter(Duration::millis(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.runSteps(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pendingEvents(), 6u);
}

TEST(SimulatorTest, SchedulingInThePastClampsToNow) {
  Simulator sim;
  sim.scheduleAfter(Duration::millis(10), [] {});
  sim.run();
  bool fired = false;
  sim.scheduleAt(Time::fromNanos(0), [&] {
    fired = true;
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_GE(sim.now().toNanos(), Duration::millis(10).toNanos());
}

TEST(SimulatorTest, RunUntilWithCancelledHeadRespectsDeadline) {
  // Regression: a cancelled event before the deadline must not let a
  // live event *after* the deadline execute.
  Simulator sim;
  auto cancelled = sim.scheduleAfter(Duration::millis(10), [] {});
  bool lateFired = false;
  sim.scheduleAfter(Duration::seconds(100), [&] { lateFired = true; });
  cancelled.cancel();
  sim.runUntil(Time::fromNanos(Duration::seconds(1).toNanos()));
  EXPECT_FALSE(lateFired);
  EXPECT_EQ(sim.now().toNanos(), Duration::seconds(1).toNanos());
}

TEST(SimulatorTest, EmptyAfterRun) {
  Simulator sim;
  sim.scheduleAfter(Duration::millis(1), [] {});
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, CancellingOwnHandleInsideCallbackIsNoOp) {
  Simulator sim;
  EventHandle self;
  bool pendingInside = true;
  int fired = 0;
  self = sim.scheduleAfter(Duration::millis(1), [&] {
    ++fired;
    pendingInside = self.pending();
    self.cancel();
    sim.scheduleAfter(Duration::millis(1), [&] { ++fired; });
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(pendingInside);
  EXPECT_FALSE(self.pending());
}

TEST(SimulatorTest, EarlierEventCancelsLaterOne) {
  Simulator sim;
  bool lateFired = false;
  EventHandle late = sim.scheduleAfter(Duration::millis(20), [&] { lateFired = true; });
  sim.scheduleAfter(Duration::millis(10), [&] { late.cancel(); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(lateFired);
  EXPECT_EQ(sim.now().toNanos(), Duration::millis(10).toNanos());
}

TEST(SimulatorTest, HandleIsHarmlessAfterSimulatorIsDestroyed) {
  EventHandle queued;
  EventHandle fired;
  {
    Simulator sim;
    fired = sim.scheduleAfter(Duration::millis(1), [] {});
    sim.run();
    queued = sim.scheduleAfter(Duration::millis(1), [] {});
  }
  // A later simulator may reuse the memory; the handles must not reach it.
  Simulator next;
  bool nextFired = false;
  next.scheduleAfter(Duration::millis(1), [&] { nextFired = true; });
  EXPECT_FALSE(queued.pending());
  EXPECT_FALSE(fired.pending());
  queued.cancel();
  fired.cancel();
  EXPECT_EQ(next.pendingEvents(), 1u);
  next.run();
  EXPECT_TRUE(nextFired);
}

TEST(SimulatorTest, MoveOnlyCaptureFires) {
  Simulator sim;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  sim.scheduleAfter(Duration::millis(1), [&seen, value = std::move(value)] { seen = *value; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, CaptureLargerThanInlineBufferFires) {
  Simulator sim;
  std::array<std::uint64_t, 32> big{};
  big.back() = 7;
  static_assert(sizeof(big) > detail::kEventInlineBytes);
  std::uint64_t seen = 0;
  sim.scheduleAfter(Duration::millis(1), [&seen, big] { seen = big.back(); });
  sim.run();
  EXPECT_EQ(seen, 7u);
}

TEST(SimulatorTest, PendingEventsDropsOnCancel) {
  Simulator sim;
  sim.scheduleAfter(Duration::millis(1), [] {});
  EventHandle middle = sim.scheduleAfter(Duration::millis(2), [] {});
  sim.scheduleAfter(Duration::millis(3), [] {});
  EXPECT_EQ(sim.pendingEvents(), 3u);
  middle.cancel();
  EXPECT_EQ(sim.pendingEvents(), 2u);
  middle.cancel();
  EXPECT_EQ(sim.pendingEvents(), 2u);
  EXPECT_EQ(sim.run(), 2u);
}

TEST(SimulatorTest, CancelFromTheMiddleKeepsTimeOrder) {
  // Cancelling from the middle of a large queue must keep (time, seq)
  // order for everything left.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 600; ++i) {
    handles.push_back(sim.scheduleAfter(Duration::micros((i * 7919) % 600),
                                        [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 600; i += 3) handles[static_cast<std::size_t>(i)].cancel();
  for (int i = 0; i < 600; i += 3) {
    sim.scheduleAfter(Duration::micros((i * 7919) % 600), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.pendingEvents(), 600u);
  sim.run();
  ASSERT_EQ(order.size(), 600u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    const int prev = (order[k - 1] * 7919) % 600;
    const int cur = (order[k] * 7919) % 600;
    EXPECT_LE(prev, cur);
  }
}

/// Move-only callable that counts how often its one owning instance is
/// destroyed; `Pad` bytes push it past the inline buffer.
template <std::size_t Pad>
struct CountingCallable {
  explicit CountingCallable(int& destroyed) : destroyed(&destroyed) {}
  CountingCallable(CountingCallable&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  CountingCallable& operator=(CountingCallable&&) = delete;
  ~CountingCallable() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() const {}

  int* destroyed;
  std::array<char, Pad> pad{};
};

template <typename Callable>
void expectDestroyedOnce() {
  {
    Simulator sim;
    int destroyed = 0;
    sim.scheduleAfter(Duration::millis(1), Callable(destroyed));
    EXPECT_EQ(destroyed, 0);
    sim.run();
    EXPECT_EQ(destroyed, 1) << "fired";
  }
  {
    Simulator sim;
    int destroyed = 0;
    EventHandle handle = sim.scheduleAfter(Duration::millis(1), Callable(destroyed));
    handle.cancel();
    EXPECT_EQ(destroyed, 1) << "cancelled";
    sim.run();
    EXPECT_EQ(destroyed, 1) << "cancelled, then run";
  }
  int destroyed = 0;
  {
    Simulator sim;
    sim.scheduleAfter(Duration::millis(1), Callable(destroyed));
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1) << "queued when the simulator died";
}

TEST(SimulatorTest, InlineCallableIsDestroyedExactlyOnce) {
  static_assert(detail::kFitsInline<CountingCallable<8>>);
  expectDestroyedOnce<CountingCallable<8>>();
}

TEST(SimulatorTest, HeapCallableIsDestroyedExactlyOnce) {
  static_assert(!detail::kFitsInline<CountingCallable<128>>);
  expectDestroyedOnce<CountingCallable<128>>();
}

}  // namespace
}  // namespace lidc::sim
