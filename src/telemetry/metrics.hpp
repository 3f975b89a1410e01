// MetricsRegistry: the unified metrics layer every LIDC component
// reports through. Three instrument kinds — monotonic Counters, Gauges,
// and log2-bucketed Histograms with p50/p90/p99 — grouped into labeled
// families (e.g. lidc_forwarder_in_interests{node="gw-east"}).
//
// Components count in plain cells they own and *bind* each series once
// to the value that owns it (a counter cell, or a callable for computed
// values); the registry reads every bound series right before each
// snapshot/export, with no name or label lookup. Handles returned by
// counter()/gauge()/histogram() are stable for the registry's lifetime,
// and incrementing one is a single relaxed atomic add — no lock, no
// lookup. Registration and snapshotting take a mutex.
//
// Exporters: toJson() (machine-readable, stable ordering) and
// toPrometheus() (text exposition format; histograms as summaries),
// which appends each series' pre-rendered line head and its number into
// one string. The /ndn/k8s/telemetry monitoring plane publishes the
// Prometheus form, and SeriesTable decodes it back into a flat,
// sorted series table on the collector side.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lidc::telemetry {

/// Sorted key=value pairs identifying one member of a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. inc() is the hot path: one relaxed atomic add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Absolute sync, used when a bound series is refreshed at export.
  void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (queue depth, free cores, health fraction).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram: bucket 0 holds [0,1), bucket i>=1 holds
/// [2^(i-1), 2^i). Observing is two relaxed adds plus a CAS-add on the
/// sum; quantiles are approximated by the midpoint of the bucket where
/// the cumulative count crosses q. Choose the unit so interesting
/// values land above 1 (e.g. microseconds for latencies).
class Histogram {
 public:
  static constexpr int kBucketCount = 64;

  /// `exemplarTrace` (optional) attaches an exemplar: when the sample
  /// lands in the highest populated bucket so far — the tail bucket the
  /// p99 estimate reads from — its trace id and value are captured, so
  /// a "p99 regressed" alert links straight to a concrete slow trace.
  void observe(double v, std::uint64_t exemplarTrace = 0) noexcept {
    const int bucket = bucketFor(v);
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
    if (exemplarTrace != 0 &&
        bucket >= exemplar_bucket_.load(std::memory_order_relaxed)) {
      exemplar_bucket_.store(bucket, std::memory_order_relaxed);
      exemplar_value_.store(v, std::memory_order_relaxed);
      exemplar_trace_.store(exemplarTrace, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Approximate quantile in [0,1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Trace id of the captured tail exemplar (0 = none captured).
  [[nodiscard]] std::uint64_t exemplarTrace() const noexcept {
    return exemplar_trace_.load(std::memory_order_relaxed);
  }
  /// Observed value of the captured tail exemplar.
  [[nodiscard]] double exemplarValue() const noexcept {
    return exemplar_value_.load(std::memory_order_relaxed);
  }

  static int bucketFor(double v) noexcept;
  /// [lower, upper) bounds of one bucket.
  static std::pair<double, double> bucketBounds(int bucket) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<int> exemplar_bucket_{-1};
  std::atomic<std::uint64_t> exemplar_trace_{0};
  std::atomic<double> exemplar_value_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported metric value (histograms carry their summary stats).
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter/gauge value; histogram mean
  // Histogram-only fields.
  std::uint64_t count = 0;
  double sum = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  /// Tail exemplar (0 = the histogram never captured one).
  std::uint64_t exemplarTrace = 0;
  double exemplarValue = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the instrument; the reference stays valid for the
  /// registry's lifetime. Labels are sorted internally, so label order
  /// does not create distinct series.
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  /// Binds a counter series to the cell its owner counts in, which must
  /// outlive the registry's exports. The series is created at the first
  /// snapshot()/export after the call and takes the cell's value at
  /// that and every later snapshot/export, never in between. Binding a
  /// series that already exists reuses it, so counter(name, labels)
  /// still returns the same Counter. A series bound to several cells
  /// exports their sum (every engine on a registry counts into the same
  /// unlabeled lidc_workflow_* series), so attaching one component twice
  /// to one registry counts it twice.
  void bindCounter(std::string name, Labels labels, const std::uint64_t& cell);
  void bindCounter(std::string name, Labels labels, const std::uint64_t&& cell) = delete;
  /// As above, for a count computed at export time.
  void bindCounter(std::string name, Labels labels,
                   std::function<std::uint64_t()> read);
  /// Binds a gauge series to a value computed at export time; of several
  /// bindings of one gauge series, the last one made wins.
  void bindGauge(std::string name, Labels labels, std::function<double()> read);

  /// Refreshes bound series, then returns every metric whose name starts
  /// with `prefix` (empty = all), ordered by (name, labels).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot(const std::string& prefix = "");

  /// {"metrics":[{"name":...,"labels":{...},"kind":...,"value":...},...]}
  [[nodiscard]] std::string toJson(const std::string& prefix = "");
  /// Prometheus text exposition format (histograms as summaries).
  [[nodiscard]] std::string toPrometheus(const std::string& prefix = "");
  /// Convenience: toPrometheus() parsed back into {series -> value},
  /// the same view a TelemetryCollector builds from scraped Data.
  [[nodiscard]] std::map<std::string, double> flatten(const std::string& prefix = "");

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    Labels labels;
    /// Exposition line heads, rendered once at creation: `name{labels} `
    /// for a counter or gauge; `_count`, `_sum` and the 0.5/0.9/0.99
    /// quantile lines for a histogram.
    std::vector<std::string> heads;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Entries = std::map<std::pair<std::string, std::string>, Entry>;

  /// Where a bound series reads its value: `count` for a counter,
  /// `level` for a gauge.
  struct Source {
    std::function<std::uint64_t()> count;
    std::function<double()> level;
  };
  /// A binding made since the last export, resolved at the next one.
  struct PendingBinding {
    std::string name;
    Labels labels;
    MetricKind kind;
    Source source;
  };
  struct Binding {
    Entry* entry;
    Source source;
  };

  void bind(std::string name, Labels labels, MetricKind kind, Source source);
  Entry& findOrCreateLocked(const std::string& name, Labels labels, MetricKind kind);
  /// Creates the series of pending bindings, then reads every bound
  /// value into its instrument: a counter gets the sum of its sources, a
  /// gauge the value of its last one. Bound sources run under the lock,
  /// so they must not call back into the registry.
  void refreshLocked();
  /// The entries whose name starts with `prefix`: one contiguous run.
  [[nodiscard]] std::pair<Entries::iterator, Entries::iterator> rangeLocked(
      const std::string& prefix);

  mutable std::mutex mutex_;
  // (name, serialized labels) -> instrument; ordered for stable exports.
  Entries entries_;
  std::vector<PendingBinding> pending_;
  std::vector<Binding> bindings_;
  /// Export buffer, kept so each export renders without regrowing.
  std::string render_;
};

/// Serializes labels as `k1="v1",k2="v2"` (sorted), "" when empty.
std::string labelString(const Labels& labels);

/// Appends one exposition line, `name{labels} value\n`, exactly as
/// toPrometheus() renders a counter or gauge: labels sorted, braces
/// omitted when there are none, an integral value below 1e15 in
/// magnitude as its digits ("%.0f", "-0" for negative zero) and
/// anything else as "%.6g".
void appendSample(std::string& out, std::string_view name, const Labels& labels,
                  double value);

/// One decoded snapshot of Prometheus text: a flat table of rows, each
/// an (offset, length, value) over the table's own text, sorted by
/// series. Rows are offsets, not string_views, so moving a table (whose
/// short text may live inline) never leaves a row dangling. Decoding is
/// tolerant by construction, because text may arrive truncated or
/// corrupted off the wire: comment lines, malformed or truncated lines,
/// unbalanced label blocks and non-finite values are skipped, a
/// duplicate series keeps its last value, and nothing ever throws.
class SeriesTable {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<std::string_view, double>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator() = default;
    [[nodiscard]] value_type operator*() const noexcept;
    const_iterator& operator++() noexcept {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator before = *this;
      ++row_;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class SeriesTable;
    const_iterator(const SeriesTable* table, std::size_t row) noexcept
        : table_(table), row_(row) {}
    const SeriesTable* table_ = nullptr;
    std::size_t row_ = 0;
  };

  SeriesTable() = default;
  explicit SeriesTable(std::string text);

  /// The series' value, or nullopt when the text did not carry it.
  [[nodiscard]] std::optional<double> find(std::string_view series) const;
  /// The decoded text.
  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  /// Series in sorted order, as (series, value) pairs.
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, rows_.size()}; }

 private:
  struct Row {
    std::size_t offset;
    std::size_t length;
    double value;
  };
  [[nodiscard]] std::string_view series(const Row& row) const noexcept {
    return std::string_view(text_).substr(row.offset, row.length);
  }

  std::string text_;
  std::vector<Row> rows_;
};

/// Parses Prometheus text back into {"name{labels}" or "name" -> value},
/// with SeriesTable's line rules.
std::map<std::string, double> parsePrometheusText(const std::string& text);

}  // namespace lidc::telemetry
