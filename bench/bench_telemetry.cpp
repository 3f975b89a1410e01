// Telemetry hot-path cost: what one counter increment costs in each
// mode (plain uint64, atomic Counter, and the worst case of a
// per-increment family lookup), what one flight-recorder record() costs
// against the ring, how many rule evaluations per second the
// AlertEngine sustains, and what attaching the full registry + tracer
// instrumentation does to forwarder throughput. The throughput legs run
// in thread CPU time, in kRounds rounds of alternating order, and each
// overhead is reported as the median of its per-round values with the
// quartiles. Results go to BENCH_telemetry.json.
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace lidc;

/// Keeps the compiler from deleting the measured loop.
inline void sink(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ns per iteration of `body` over `iters` runs.
template <typename Body>
double measureNs(std::uint64_t iters, Body body) {
  const double start = nowSeconds();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  return (nowSeconds() - start) * 1e9 / static_cast<double>(iters);
}

enum class Mode { kOff, kCounters, kCountersAndTracing };

/// Thread CPU seconds of `exchanges` full consumer->forwarder->producer
/// ->consumer exchanges on one node; optionally with the forwarder bound
/// into a registry, and optionally with a trace context on every
/// Interest (per-hop span recording).
double forwarderCpuSeconds(Mode mode, std::uint64_t exchanges) {
  sim::Simulator sim;
  ndn::Forwarder node("bench", sim);
  node.cs().setCapacity(0);  // measure the full path, not cache hits

  telemetry::MetricsRegistry registry;
  telemetry::Tracer tracer(sim);
  if (mode != Mode::kOff) {
    node.attachTelemetry(registry,
                         mode == Mode::kCountersAndTracing ? &tracer : nullptr);
  }

  auto consumer = std::make_shared<ndn::AppFace>("app://c", sim, 1);
  auto producer = std::make_shared<ndn::AppFace>("app://p", sim, 2);
  node.addFace(consumer);
  node.addFace(producer);
  node.registerPrefix(ndn::Name("/svc"), producer->id());
  producer->setInterestHandler([&producer](const ndn::Interest& interest) {
    ndn::Data data(interest.name());
    data.setContent("r");
    data.sign();
    producer->putData(std::move(data));
  });

  const double start = bench::threadCpuSeconds();
  for (std::uint64_t i = 0; i < exchanges; ++i) {
    ndn::Interest interest(ndn::Name("/svc").appendNumber(i));
    if (mode == Mode::kCountersAndTracing) {
      interest.setTraceContext(tracer.startTrace("bench-exchange", "bench"));
    }
    bool done = false;
    consumer->expressInterest(
        interest,
        [&done](const ndn::Interest&, const ndn::Data&) { done = true; });
    sim.run();
    sink(done ? 1 : 0);
  }
  return bench::threadCpuSeconds() - start;
}

}  // namespace

int main() {
  constexpr std::uint64_t kIncrements = 20'000'000;
  constexpr std::uint64_t kExchanges = 5'000;
  constexpr int kRounds = 21;

  bench::printHeader("Telemetry hot path: counter increment cost");
  bench::printRow({"mode", "ns/inc"});
  bench::printRule(2);

  std::uint64_t plain = 0;
  const double plainNs = measureNs(kIncrements, [&plain](std::uint64_t) { ++plain; });
  sink(plain);
  bench::printRow({"plain-uint64", bench::fmt(plainNs, "%.3f")});

  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("lidc_bench_events");
  const double counterNs =
      measureNs(kIncrements, [&counter](std::uint64_t) { counter.inc(); });
  sink(counter.value());
  bench::printRow({"atomic-counter", bench::fmt(counterNs, "%.3f")});

  // Anti-pattern measured on purpose: looking the family up per
  // increment instead of holding the reference.
  const double lookupNs = measureNs(kIncrements / 100, [&registry](std::uint64_t) {
    registry.counter("lidc_bench_lookup", {{"node", "n1"}}).inc();
  });
  sink(registry.counter("lidc_bench_lookup", {{"node", "n1"}}).value());
  bench::printRow({"family-lookup", bench::fmt(lookupNs, "%.3f")});

  bench::printHeader("Flight recorder: record() cost into the ring");
  bench::printRow({"mode", "ns/record"});
  bench::printRule(2);
  sim::Simulator frSim;
  telemetry::FlightRecorder recorder(frSim, 4096);
  const double recordNs = measureNs(kIncrements / 10, [&recorder](std::uint64_t i) {
    recorder.record("bench", log::Level::kWarn,
                    i % 2 == 0 ? "event-even" : "event-odd");
  });
  sink(recorder.recorded());
  bench::printRow({"record", bench::fmt(recordNs, "%.3f")});
  // The null-recorder call site (every component holds a possibly-null
  // pointer) must cost a predicted branch, nothing more.
  telemetry::FlightRecorder* nullRecorder = nullptr;
  const double nullRecordNs = measureNs(kIncrements, [&nullRecorder](std::uint64_t i) {
    LIDC_FR_EVENT(nullRecorder, kWarn, "bench", i % 2 == 0 ? "a" : "b");
  });
  bench::printRow({"null-call-site", bench::fmt(nullRecordNs, "%.3f")});

  bench::printHeader("Alert engine: rule evaluations per second");
  bench::printRow({"rules", "evals/s"});
  bench::printRule(2);
  double alertEvalsPerSec = 0;
  {
    constexpr int kRules = 64;
    constexpr std::uint64_t kEvalPasses = 20'000;
    sim::Simulator aeSim;
    telemetry::AlertEngine engine(aeSim);
    std::map<std::string, double, std::less<>> values;
    for (int r = 0; r < kRules; ++r) {
      const std::string series = "s" + std::to_string(r);
      values[series] = static_cast<double>(r);
      engine.addThresholdRule("rule-" + std::to_string(r), series,
                              telemetry::AlertComparison::kAbove, 1e9);
    }
    engine.setValueSource([&values](std::string_view series) -> std::optional<double> {
      const auto it = values.find(series);
      if (it == values.end()) return std::nullopt;
      return it->second;
    });
    const double start = nowSeconds();
    int transitions = 0;
    for (std::uint64_t i = 0; i < kEvalPasses; ++i) transitions += engine.evaluate();
    sink(static_cast<std::uint64_t>(transitions));
    alertEvalsPerSec = static_cast<double>(kEvalPasses) * kRules /
                       (nowSeconds() - start);
    bench::printRow({bench::fmt(static_cast<double>(kRules), "%.0f"),
                     bench::fmt(alertEvalsPerSec, "%.0f")});
  }

  bench::printHeader("Forwarder throughput: instrumentation on vs off");
  bench::printRow({"mode", "exchanges/cpu-s", "[q1, q3]"}, 18);
  bench::printRule(3, 18);
  // Rounds alternate the order of the three legs, so drift on the host
  // hits every mode alike. An overhead is 1 - off/on in CPU time per
  // exchange, taken within one round.
  const char* const kModeNames[] = {"off", "counters", "counters+trace"};
  std::vector<double> rates[3];
  std::vector<double> counterPct;
  std::vector<double> tracingPct;
  for (int round = 0; round < kRounds; ++round) {
    double seconds[3] = {};
    for (int leg = 0; leg < 3; ++leg) {
      const int mode = round % 2 == 0 ? leg : 2 - leg;
      seconds[mode] = forwarderCpuSeconds(static_cast<Mode>(mode), kExchanges);
    }
    for (int mode = 0; mode < 3; ++mode) {
      rates[mode].push_back(static_cast<double>(kExchanges) / seconds[mode]);
    }
    counterPct.push_back(100.0 * (seconds[1] - seconds[0]) / seconds[1]);
    tracingPct.push_back(100.0 * (seconds[2] - seconds[0]) / seconds[2]);
  }
  bench::Summary rate[3];
  for (int mode = 0; mode < 3; ++mode) {
    rate[mode] = bench::summarize(rates[mode]);
    bench::printRow({kModeNames[mode], bench::fmt(rate[mode].p50, "%.0f"),
                     bench::fmtSpread(rate[mode], "%.0f")},
                    18);
  }
  const bench::Summary counterOverhead = bench::summarize(counterPct);
  const bench::Summary tracingOverhead = bench::summarize(tracingPct);
  std::printf("counter overhead: %.1f%% %s, counter+tracing overhead: %.1f%% %s\n"
              "(median [q1, q3] of %d rounds)\n",
              counterOverhead.p50, bench::fmtSpread(counterOverhead, "%.1f").c_str(),
              tracingOverhead.p50, bench::fmtSpread(tracingOverhead, "%.1f").c_str(),
              kRounds);

  std::printf(
      "shape check: a held Counter& costs one relaxed fetch_add (~plain\n"
      "increment); only the per-call family lookup pays for hashing. The\n"
      "forwarder counts in its own plain cells, which the registry reads\n"
      "only at export, so counters-only throughput stays within noise of\n"
      "uninstrumented; per-hop span recording costs more and is only\n"
      "paid by Interests that actually carry a trace context.\n");

  bench::JsonReport report("telemetry");
  report.add("plain_uint64_inc_ns", plainNs);
  report.add("atomic_counter_inc_ns", counterNs);
  report.add("family_lookup_inc_ns", lookupNs);
  report.add("flight_recorder_record_ns", recordNs);
  report.add("flight_recorder_null_site_ns", nullRecordNs);
  report.add("alert_rule_evals_per_s", alertEvalsPerSec);
  report.add("forwarder_exchanges_per_s_off", rate[0].p50);
  report.add("forwarder_exchanges_per_s_counters", rate[1].p50);
  report.add("forwarder_exchanges_per_s_traced", rate[2].p50);
  report.add("counter_overhead_pct", counterOverhead.p50);
  report.add("counter_overhead_pct_q1", counterOverhead.q1);
  report.add("counter_overhead_pct_q3", counterOverhead.q3);
  report.add("tracing_overhead_pct", tracingOverhead.p50);
  report.add("tracing_overhead_pct_q1", tracingOverhead.q1);
  report.add("tracing_overhead_pct_q3", tracingOverhead.q3);
  report.write();
  return 0;
}
