// Flight recorder: a fixed-capacity, lock-light ring buffer of
// structured events (forwarder decisions, gateway admissions, chaos
// injections, client retry/backoff steps). Components record into it
// from the hot path with one atomic reservation and a bounded copy —
// no allocation, no mutex — and the AlertEngine snapshots the last-N
// window into every fired alert so a single explainAlert() call yields
// a self-contained post-mortem.
//
// Concurrency follows the seqlock idea: a writer reserves a global
// sequence number with fetch_add, marks the slot odd (writing), fills
// it, then publishes the even tag for that sequence. Readers accept a
// slot only when its tag is the expected even value before AND after
// the copy, so torn slots are skipped instead of locked around. In the
// single-threaded simulator this never skips; under real threads it
// degrades to dropping in-flight slots, never to blocking a writer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hpp"
#include "sim/simulator.hpp"

namespace lidc::telemetry {

/// One recorded event, as read back out of the ring.
struct FlightEvent {
  sim::Time at;
  log::Level severity = log::Level::kInfo;
  std::string component;
  std::string message;
};

class FlightRecorder {
 public:
  /// Longer fields are truncated on record — deterministically, so
  /// traces stay byte-identical per seed.
  static constexpr std::size_t kMaxComponent = 23;
  static constexpr std::size_t kMaxMessage = 159;

  explicit FlightRecorder(sim::Simulator& sim, std::size_t capacity = 1024);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event, stamped with the sim clock. Wait-free for
  /// writers; oldest events are overwritten once the ring is full.
  void record(std::string_view component, log::Level severity,
              std::string_view message) noexcept;

  /// Routes every LIDC_LOG line at `minLevel` or above into the ring
  /// (via log::setSink — the already-formatted message is reused, no
  /// second formatting pass). One recorder may capture at a time.
  void captureLogs(log::Level minLevel = log::Level::kWarn);

  /// Uninstalls the log sink if this recorder installed it. Safe to
  /// call unconditionally; the destructor does this too.
  void releaseLogs() noexcept;

  /// The newest min(n, recorded, capacity) events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> lastN(std::size_t n) const;

  /// Total events ever recorded (not capped by capacity).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// "t=12.000000s WARN chaos: inject east-gw-dark" per event.
  static std::string render(const std::vector<FlightEvent>& events);

 private:
  struct Slot {
    // 0 = empty; 2*seq+1 = being written; 2*seq+2 = published.
    std::atomic<std::uint64_t> state{0};
    std::int64_t atNanos = 0;
    log::Level severity = log::Level::kInfo;
    char component[kMaxComponent + 1] = {};
    char message[kMaxMessage + 1] = {};
  };

  sim::Simulator& sim_;
  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  bool capturing_ = false;
};

/// A component's own deterministic decision log, and the one place its
/// events are recorded: record() appends "t=<sim s>s <line>\n" to
/// text() and, at kInfo and above, hands the same line to the attached
/// recorder under the component's name. kDebug lines stay in the log.
class EventLog {
 public:
  EventLog(sim::Simulator& sim, std::string component)
      : sim_(sim), component_(std::move(component)) {}

  /// Null detaches; the text log is kept either way.
  void setRecorder(FlightRecorder* recorder) noexcept { recorder_ = recorder; }

  void record(log::Level level, std::string_view line);

  /// Every recorded line, stamped; byte-identical across same-seed runs.
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  sim::Simulator& sim_;
  std::string component_;
  FlightRecorder* recorder_ = nullptr;
  std::string text_;
};

/// Event-recording call site for components without a log of their own;
/// does nothing (message expression unevaluated) when the recorder is
/// null:
///   LIDC_FR_EVENT(recorder_, kWarn, "gateway", "reject job=" + id);
#define LIDC_FR_EVENT(recorder, severity, component, message_expr)        \
  do {                                                                    \
    if ((recorder) != nullptr) {                                          \
      (recorder)->record((component), ::lidc::log::Level::severity,       \
                         (message_expr));                                 \
    }                                                                     \
  } while (0)

}  // namespace lidc::telemetry
