#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace lidc::telemetry {

namespace {

/// Which recorder currently owns the global log sink. A second
/// captureLogs() steals it; releaseLogs() only removes its own.
std::atomic<FlightRecorder*> g_log_owner{nullptr};

constexpr std::string_view levelName(log::Level level) noexcept {
  switch (level) {
    case log::Level::kTrace:
      return "TRACE";
    case log::Level::kDebug:
      return "DEBUG";
    case log::Level::kInfo:
      return "INFO";
    case log::Level::kWarn:
      return "WARN";
    case log::Level::kError:
      return "ERROR";
    case log::Level::kOff:
      return "OFF";
  }
  return "?";
}

void copyTruncated(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(cap, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

FlightRecorder::FlightRecorder(sim::Simulator& sim, std::size_t capacity)
    : sim_(sim),
      capacity_(std::max<std::size_t>(1, capacity)),
      slots_(std::make_unique<Slot[]>(std::max<std::size_t>(1, capacity))) {}

FlightRecorder::~FlightRecorder() { releaseLogs(); }

void FlightRecorder::record(std::string_view component, log::Level severity,
                            std::string_view message) noexcept {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  slot.state.store(2 * seq + 1, std::memory_order_release);
  slot.atNanos = sim_.now().toNanos();
  slot.severity = severity;
  copyTruncated(slot.component, kMaxComponent, component);
  copyTruncated(slot.message, kMaxMessage, message);
  slot.state.store(2 * seq + 2, std::memory_order_release);
}

void FlightRecorder::captureLogs(log::Level minLevel) {
  g_log_owner.store(this, std::memory_order_relaxed);
  capturing_ = true;
  log::setSink([this, minLevel](log::Level level, std::string_view component,
                                std::string_view message) {
    if (level >= minLevel) record(component, level, message);
  });
}

void FlightRecorder::releaseLogs() noexcept {
  if (!capturing_) return;
  capturing_ = false;
  FlightRecorder* expected = this;
  if (g_log_owner.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_relaxed)) {
    log::setSink(nullptr);
  }
}

std::vector<FlightEvent> FlightRecorder::lastN(std::size_t n) const {
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t available =
      std::min<std::uint64_t>(total, static_cast<std::uint64_t>(capacity_));
  const std::uint64_t want = std::min<std::uint64_t>(n, available);

  std::vector<FlightEvent> events;
  events.reserve(want);
  // Newest first, then reversed into chronological order. Slots whose
  // tag changed mid-copy (a concurrent writer lapped us) are skipped.
  for (std::uint64_t back = 0; back < want; ++back) {
    const std::uint64_t seq = total - 1 - back;
    const Slot& slot = slots_[seq % capacity_];
    const std::uint64_t expected = 2 * seq + 2;
    if (slot.state.load(std::memory_order_acquire) != expected) continue;
    FlightEvent event;
    event.at = sim::Time::fromNanos(slot.atNanos);
    event.severity = slot.severity;
    event.component = slot.component;
    event.message = slot.message;
    if (slot.state.load(std::memory_order_acquire) != expected) continue;
    events.push_back(std::move(event));
  }
  std::reverse(events.begin(), events.end());
  return events;
}

void EventLog::record(log::Level level, std::string_view line) {
  char stamp[40];
  std::snprintf(stamp, sizeof(stamp), "t=%.6fs ", sim_.now().toSeconds());
  text_ += stamp;
  text_ += line;
  text_ += '\n';
  if (recorder_ != nullptr && level >= log::Level::kInfo) {
    recorder_->record(component_, level, line);
  }
}

std::string FlightRecorder::render(const std::vector<FlightEvent>& events) {
  std::string out;
  char head[64];
  for (const FlightEvent& event : events) {
    const std::string_view level = levelName(event.severity);
    std::snprintf(head, sizeof(head), "t=%.6fs %.*s ",
                  static_cast<double>(event.at.toNanos()) / 1e9,
                  static_cast<int>(level.size()), level.data());
    out += head;
    out += event.component;
    out += ": ";
    out += event.message;
    out += '\n';
  }
  return out;
}

}  // namespace lidc::telemetry
