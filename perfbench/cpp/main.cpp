// LIDC benchmark program.
//
//   lidc_perfbench --workload control_storm|lake_fetch|dag_observed
//                  --seed N --seconds S --trace 0|1 [--ops N]
//
// Builds the workload's inputs from the seed, then repeats set-up + run
// of the same simulated federation until S seconds have passed (at least
// four times; the first repetition warms up and is not timed). Host
// costs are thread CPU time, reported as medians over repetitions. Every repetition must produce the same per-op
// digest and work counts, and pass the workload's output checks;
// otherwise the program exits non-zero without printing metrics.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates
// untraced and traced repetitions, then replays each layer's public
// functions on the captured traffic, and prints the per-layer metrics.
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "harness.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t ops = 0;  // 0 = the workload's default size
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--ops") {
      args.ops = std::strtoull(value.c_str(), &end, 10);
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 == 0 || args.workload.empty()) return std::nullopt;
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of the per-op simulated latencies; a failed
/// op counts as lasting until the makespan (it missed every limit).
double latencyPercentile(const RepResult& result, double q) {
  std::vector<double> seconds;
  for (std::int64_t ns : result.latencyNs) {
    seconds.push_back(ns < 0 ? result.makespanS : static_cast<double>(ns) / 1e9);
  }
  std::sort(seconds.begin(), seconds.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(seconds.size())));
  return seconds[std::max<std::size_t>(rank, 1) - 1];
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Counts two repetitions must agree on (trace.* and telemetry.* exist
/// only where a registry or tracer is attached).
bool sameWork(const RepResult& a, const RepResult& b) {
  return a.digest() == b.digest() && a.makespanS == b.makespanS &&
         a.counts == b.counts && a.totals == b.totals;
}

[[noreturn]] void failCheck(const std::string& why) {
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
  std::exit(1);
}

std::unique_ptr<Workload> makeWorkload(const Args& args) {
  if (args.workload == "control_storm") return makeControlStorm(args.seed, args.ops);
  if (args.workload == "lake_fetch") return makeLakeFetch(args.seed, args.ops);
  if (args.workload == "dag_observed") return makeDagObserved(args.seed, args.ops);
  return nullptr;
}

struct Rep {
  bool traced = false;
  double setupS = 0;
  double runS = 0;
  alloc::Totals alloc;
  double appsHostS = 0;
};

int runBenchmark(const Args& args) {
  const std::unique_ptr<Workload> workload = makeWorkload(args);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const double ops = static_cast<double>(workload->ops());

  std::vector<Rep> reps;
  std::optional<RepResult> reference[2];  // first result per traced-ness
  std::optional<alloc::Totals> allocReference;
  std::unique_ptr<Scenario> kept[2];      // last scenario per traced-ness
  // Repetition 0 warms caches and lazy library state: it is checked
  // but not timed. Traced runs alternate untraced and traced repetitions.
  const int minReps = args.trace ? 5 : 4;
  const auto start = Clock::now();
  for (int i = 0; i < minReps || secondsSince(start) < args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 0 && i > 0;
    kept[traced].reset();
    Rep rep;
    rep.traced = traced;
    const double setupStart = threadCpuSeconds();
    std::unique_ptr<Scenario> scenario = workload->build(traced);
    rep.setupS = threadCpuSeconds() - setupStart;
    alloc::start();
    const double runStart = threadCpuSeconds();
    scenario->run();
    rep.runS = threadCpuSeconds() - runStart;
    rep.alloc = alloc::stop();
    RepResult result = scenario->collect();
    rep.appsHostS = result.appsHostS;
    if (!result.checkError.empty()) failCheck(result.checkError);
    if (reference[0] && reference[0]->digest() != result.digest()) {
      failCheck("per-op digest differs between repetitions");
    }
    if (reference[traced] && !sameWork(*reference[traced], result)) {
      failCheck("work counts differ between repetitions of one seed");
    }
    // Repetition 0 also pays one-time library initialisation, so
    // allocation counts are compared from the next untraced one on.
    if (!traced && i > 0) {
      if (allocReference && (allocReference->count != rep.alloc.count ||
                             allocReference->bytes != rep.alloc.bytes)) {
        failCheck("allocation counts differ between repetitions of one seed");
      }
      allocReference = rep.alloc;
    }
    if (!reference[traced]) reference[traced] = std::move(result);
    if (i > 0) reps.push_back(rep);
    if (args.trace) kept[traced] = std::move(scenario);
  }

  const RepResult& base = *reference[0];
  std::vector<double> opsPerS, setupS, runUsPerOp, appsUsPerOp, tracedOpsPerS;
  for (const Rep& rep : reps) {
    (rep.traced ? tracedOpsPerS : opsPerS).push_back(ops / rep.runS);
    if (rep.traced) continue;
    setupS.push_back(rep.setupS);
    runUsPerOp.push_back(rep.runS * 1e6 / ops);
    appsUsPerOp.push_back(rep.appsHostS * 1e6 / ops);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"ops_per_s", median(opsPerS), "1/s"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
        {"sim_latency_p50_s", latencyPercentile(base, 0.50), "s"},
        {"sim_latency_p99_s", latencyPercentile(base, 0.99), "s"},
        {"sim_makespan_s", base.makespanS, "s"},
        {"link_bytes_per_op", base.totals.at("link_bytes") / ops, "B"},
    };
  } else {
    const RepResult& traced = *reference[1];
    const LiveState tables = kept[0]->live();
    const LayerCosts costs = replayLayers(base.capture, tables, kept[1]->live().registry);
    const auto countUnit = [](const std::string& name) {
      if (name.find("ratio") != std::string::npos || name.find("share") != std::string::npos) {
        return "ratio";
      }
      return name.find("bytes") != std::string::npos ? "B" : "count";
    };
    // Counts come from the first untraced repetition, except the ones
    // that exist only with the registry and tracer attached.
    for (const RepResult* source : {&base, &traced}) {
      for (const auto& [name, value] : source->counts) {
        const bool tracedOnly = name.rfind("trace.", 0) == 0 || name.rfind("telemetry.", 0) == 0;
        if (tracedOnly == (source == &traced)) metrics.push_back({name, value, countUnit(name)});
      }
    }
    metrics.push_back({"alloc.count_per_op", static_cast<double>(allocReference->count) / ops, "count"});
    metrics.push_back({"alloc.bytes_per_op", static_cast<double>(allocReference->bytes) / ops, "B"});
    const std::vector<Metric> perCall = {
        {"ndn.name_parse_ns", costs.nameParseNs, "ns"},
        {"ndn.interest_encode_ns", costs.interestEncodeNs, "ns"},
        {"ndn.interest_decode_ns", costs.interestDecodeNs, "ns"},
        {"ndn.fib_lpm_ns", costs.fibLpmNs, "ns"},
        {"ndn.pit_ns", costs.pitNs, "ns"},
        {"ndn.exchange_ns", costs.exchangeNs, "ns"},
        {"ndn.data_encode_ns", costs.dataEncodeNs, "ns"},
        {"ndn.data_verify_ns", costs.dataVerifyNs, "ns"},
        {"ndn.cs_find_ns", costs.csFindNs, "ns"},
        {"ndn.cs_insert_ns", costs.csInsertNs, "ns"},
        {"datalake.get_ns", costs.lakeGetNs, "ns"},
        {"datalake.put_ns", costs.lakePutNs, "ns"},
        {"sim.event_ns", costs.eventNs, "ns"},
        {"k8s.select_node_ns", costs.selectNodeNs, "ns"},
        {"telemetry.export_us", costs.exportUs, "us"},
    };
    metrics.insert(metrics.end(), perCall.begin(), perCall.end());

    // Host time per op attributed to layers: each count the run made
    // times the replayed cost of one call (ns -> us).
    const auto perOp = [&](const char* total) { return base.totals.at(total) / ops; };
    const double perPacketUs =
        (base.counts.at("sim.events_per_op") * costs.eventNs +
         perOp("in_interests") * (costs.fibLpmNs + costs.pitNs) +
         perOp("out_interests") * costs.interestEncodeNs) / 1e3;
    const double payloadUs =
        (perOp("cs_lookups") * costs.csFindNs +
         perOp("in_data") * (costs.csInsertNs + costs.dataVerifyNs) +
         perOp("segments_served") * (costs.lakeGetNs + costs.dataEncodeNs)) / 1e3;
    const double appsUs = median(appsUsPerOp);
    const double planesUs = perOp("snapshots") * costs.exportUs + appsUs;
    const double k8sUs = perOp("jobs_launched") * costs.selectNodeNs / 1e3;
    const double runUs = median(runUsPerOp);
    metrics.push_back({"apps.host_us_per_op", appsUs, "us"});
    metrics.push_back({"host.run_us_per_op", runUs, "us"});
    metrics.push_back({"host.unattributed_us_per_op",
                       runUs - perPacketUs - payloadUs - planesUs - k8sUs, "us"});
    metrics.push_back({"share.per_packet_pct", 100.0 * perPacketUs / runUs, "%"});
    metrics.push_back({"share.payload_pct", 100.0 * payloadUs / runUs, "%"});
    metrics.push_back({"share.planes_pct", 100.0 * planesUs / runUs, "%"});
    metrics.push_back({"trace.overhead_pct",
                       100.0 * (median(opsPerS) / median(tracedOpsPerS) - 1.0), "%"});
  }

  const std::uint64_t attempted = (reps.size() + 1) * workload->ops();
  const std::uint64_t failed = (reps.size() + 1) * base.failed();
  std::printf("workload=%s seed=%" PRIu64 " ops=%zu repetitions=%zu digest=%016" PRIx64
              " failed_per_rep=%" PRIu64 " fail_ratio=%.6f\n",
              args.workload.c_str(), args.seed, workload->ops(), reps.size() + 1,
              base.digest(), base.failed(),
              static_cast<double>(base.failed()) / ops);
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) failCheck(metric.name + " is not a finite number");
    std::printf("  %-36s %18.6f %s\n", metric.name.c_str(), metric.value, metric.unit);
  }
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: lidc_perfbench --workload control_storm|lake_fetch|dag_observed "
                 "--seed N --seconds S --trace 0|1 [--ops N]\n");
    return 2;
  }
  return perfbench::runBenchmark(*args);
}
