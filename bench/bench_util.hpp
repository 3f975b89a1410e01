// Shared helpers for LIDC bench binaries: fixed-width table printing
// and a tiny stats accumulator. Bench binaries print the same rows the
// paper's tables/figures report; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace lidc::bench {

/// Prints a row of fixed-width columns.
inline void printRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline void printRule(std::size_t columns, int width = 14) {
  std::printf("%s\n", std::string(columns * static_cast<std::size_t>(width), '-').c_str());
}

inline void printHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Mean / quartiles / p95 over a sample set (nearest rank). Repeated
/// host timings are reported as p50 with [q1, q3], never as one run.
struct Summary {
  double mean = 0;
  double q1 = 0;
  double p50 = 0;
  double q3 = 0;
  double p95 = 0;
  double min = 0;
  double max = 0;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.q1 = samples[samples.size() / 4];
  s.p50 = samples[samples.size() / 2];
  s.q3 = samples[samples.size() * 3 / 4];
  s.p95 = samples[std::min(samples.size() - 1,
                           static_cast<std::size_t>(samples.size() * 0.95))];
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

/// CPU time of the calling thread, in seconds. Unlike wall time it does
/// not count the time the thread spends descheduled on a shared host.
inline double threadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

inline std::string fmt(double value, const char* format = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// "[q1, q3]" of `q` scaled by `scale`.
inline std::string fmtSpread(const Summary& q, const char* format,
                             double scale = 1.0) {
  return "[" + fmt(q.q1 * scale, format) + ", " + fmt(q.q3 * scale, format) +
         "]";
}

/// Machine-readable bench output: collects metric name -> value pairs
/// and writes them as BENCH_<name>.json next to the working directory,
/// so the perf trajectory of every bench can be tracked across commits.
/// Metrics keep insertion order; integral values are emitted without a
/// fractional part so the files diff cleanly.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void add(const std::string& metric, double value) {
    metrics_.emplace_back(metric, value);
  }

  /// Serialises to a stable, human-diffable JSON object.
  [[nodiscard]] std::string toJson() const {
    std::string out = "{\n  \"bench\": \"" + name_ + "\"";
    for (const auto& [metric, value] : metrics_) {
      out += ",\n  \"" + metric + "\": ";
      if (std::nearbyint(value) == value && std::abs(value) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        out += buf;
      } else {
        out += fmt(value, "%.6f");
      }
    }
    out += "\n}\n";
    return out;
  }

  /// Writes BENCH_<name>.json into the current working directory and
  /// reports the path on stdout.
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::printf("could not write %s\n", path.c_str());
      return;
    }
    const std::string json = toJson();
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace lidc::bench
