// Flight recorder: sim-clock stamped ring of structured events —
// ordering, wraparound, deterministic truncation, log capture via the
// global sink, and the exact render format alert post-mortems embed.
// EventLog: a component's stamped text log that feeds the ring once per
// event at kInfo and above.
#include <gtest/gtest.h>

#include <string>

#include "common/logging.hpp"
#include "telemetry/flight_recorder.hpp"

namespace lidc::telemetry {
namespace {

TEST(FlightRecorderTest, RecordsEventsInChronologicalOrder) {
  sim::Simulator sim;
  FlightRecorder recorder(sim, 16);
  for (int i = 1; i <= 3; ++i) {
    sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(i),
                   [&recorder, i] {
                     recorder.record("comp", log::Level::kWarn,
                                     "event-" + std::to_string(i));
                   });
  }
  sim.run();

  EXPECT_EQ(recorder.recorded(), 3u);
  const auto events = recorder.lastN(2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "event-2");
  EXPECT_EQ(events[1].message, "event-3");
  EXPECT_EQ(events[1].component, "comp");
  EXPECT_EQ(events[1].severity, log::Level::kWarn);
  EXPECT_EQ(events[1].at.toNanos(), sim::Duration::seconds(3).toNanos());
}

TEST(FlightRecorderTest, WrapAroundKeepsNewestCapacityEvents) {
  sim::Simulator sim;
  FlightRecorder recorder(sim, 4);
  for (int i = 0; i < 10; ++i) {
    recorder.record("c", log::Level::kInfo, "e" + std::to_string(i));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const auto events = recorder.lastN(100);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().message, "e6");
  EXPECT_EQ(events.back().message, "e9");
}

TEST(FlightRecorderTest, TruncatesLongFieldsDeterministically) {
  sim::Simulator sim;
  FlightRecorder recorder(sim, 4);
  const std::string longComponent(100, 'c');
  const std::string longMessage(500, 'm');
  recorder.record(longComponent, log::Level::kError, longMessage);
  const auto events = recorder.lastN(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component.size(), FlightRecorder::kMaxComponent);
  EXPECT_EQ(events[0].message.size(), FlightRecorder::kMaxMessage);
  EXPECT_EQ(events[0].component, std::string(FlightRecorder::kMaxComponent, 'c'));
}

TEST(FlightRecorderTest, RenderFormatsSimTimeLevelComponentMessage) {
  sim::Simulator sim;
  FlightRecorder recorder(sim, 4);
  sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::millis(1500),
                 [&recorder] {
                   recorder.record("chaos", log::Level::kWarn, "inject east-dark");
                 });
  sim.run();
  EXPECT_EQ(FlightRecorder::render(recorder.lastN(1)),
            "t=1.500000s WARN chaos: inject east-dark\n");
}

TEST(FlightRecorderTest, CaptureLogsRoutesWarnAndAboveIntoRing) {
  sim::Simulator sim;
  const log::Level before = log::level();
  log::setLevel(log::Level::kInfo);
  {
    FlightRecorder recorder(sim, 16);
    recorder.captureLogs(log::Level::kWarn);
    LIDC_LOG(kInfo, "quiet") << "below the capture floor";
    LIDC_LOG(kWarn, "loud") << "captured line";
    const auto events = recorder.lastN(10);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].component, "loud");
    EXPECT_EQ(events[0].message, "captured line");

    recorder.releaseLogs();
    LIDC_LOG(kWarn, "loud") << "after release";
    EXPECT_EQ(recorder.lastN(10).size(), 1u);
  }
  // Recorder destroyed: the sink must be gone (no dangling capture).
  LIDC_LOG(kWarn, "loud") << "after destruction";
  log::setLevel(before);
}

TEST(FlightRecorderTest, EventMacroIsNullSafe) {
  FlightRecorder* recorder = nullptr;
  int evaluations = 0;
  // The message expression must not be evaluated for a null recorder.
  LIDC_FR_EVENT(recorder, kWarn, "x",
                (++evaluations, std::string("never built")));
  EXPECT_EQ(evaluations, 0);

  sim::Simulator sim;
  FlightRecorder real(sim, 4);
  LIDC_FR_EVENT(&real, kError, "y", std::string("built once"));
  EXPECT_EQ(real.recorded(), 1u);
}

TEST(EventLogTest, StampsEachLineWithTheSimClock) {
  sim::Simulator sim;
  EventLog owner(sim, "comp");
  owner.record(log::Level::kDebug, "first");
  sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::millis(1500),
                 [&owner] { owner.record(log::Level::kWarn, "second k=v"); });
  sim.run();
  EXPECT_EQ(owner.text(), "t=0.000000s first\nt=1.500000s second k=v\n");
}

TEST(EventLogTest, DebugLinesStayInTheOwnerLog) {
  sim::Simulator sim;
  FlightRecorder recorder(sim, 8);
  EventLog owner(sim, "comp");
  owner.setRecorder(&recorder);
  owner.record(log::Level::kDebug, "enqueue a");
  EXPECT_EQ(owner.text(), "t=0.000000s enqueue a\n");
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(EventLogTest, InfoAndWarnLinesReachTheRingWithTheSameText) {
  sim::Simulator sim;
  FlightRecorder recorder(sim, 8);
  EventLog owner(sim, "replica/west");
  owner.setRecorder(&recorder);
  owner.record(log::Level::kInfo, "ckpt job=j epoch=1");
  owner.record(log::Level::kDebug, "start /a");
  owner.record(log::Level::kWarn, "fail /a (UNAVAILABLE: gone)");

  const auto events = recorder.lastN(8);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].component, "replica/west");
  EXPECT_EQ(events[0].severity, log::Level::kInfo);
  EXPECT_EQ(events[0].message, "ckpt job=j epoch=1");
  EXPECT_EQ(events[1].component, "replica/west");
  EXPECT_EQ(events[1].severity, log::Level::kWarn);
  EXPECT_EQ(events[1].message, "fail /a (UNAVAILABLE: gone)");
  EXPECT_EQ(owner.text(),
            "t=0.000000s ckpt job=j epoch=1\n"
            "t=0.000000s start /a\n"
            "t=0.000000s fail /a (UNAVAILABLE: gone)\n");
}

TEST(EventLogTest, NullRecorderKeepsOnlyTheText) {
  sim::Simulator sim;
  FlightRecorder recorder(sim, 8);
  EventLog owner(sim, "comp");
  owner.record(log::Level::kWarn, "before attach");
  owner.setRecorder(&recorder);
  owner.record(log::Level::kWarn, "attached");
  owner.setRecorder(nullptr);
  owner.record(log::Level::kError, "after detach");

  EXPECT_EQ(recorder.recorded(), 1u);
  EXPECT_EQ(recorder.lastN(1)[0].message, "attached");
  EXPECT_EQ(owner.text(),
            "t=0.000000s before attach\n"
            "t=0.000000s attached\n"
            "t=0.000000s after detach\n");
}

}  // namespace
}  // namespace lidc::telemetry
