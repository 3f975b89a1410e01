#include "telemetry/metrics.hpp"

#include "telemetry/trace_context.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace lidc::telemetry {

int Histogram::bucketFor(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // negatives and NaN also land in bucket 0
  // Values at or above 2^63 saturate into the last bucket.
  if (v >= 9.223372036854775808e18) return kBucketCount - 1;
  const auto x = static_cast<std::uint64_t>(v);
  const int b = std::bit_width(x);  // x in [2^(b-1), 2^b)
  return std::min(b, kBucketCount - 1);
}

std::pair<double, double> Histogram::bucketBounds(int bucket) noexcept {
  if (bucket <= 0) return {0.0, 1.0};
  return {std::ldexp(1.0, bucket - 1), std::ldexp(1.0, bucket)};
}

double Histogram::quantile(double q) const noexcept {
  std::uint64_t counts[kBucketCount];
  std::uint64_t total = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += counts[i];
    if (seen >= rank && counts[i] > 0) {
      const auto [lo, hi] = bucketBounds(i);
      return (lo + hi) / 2.0;
    }
  }
  const auto [lo, hi] = bucketBounds(kBucketCount - 1);
  return (lo + hi) / 2.0;
}

std::string labelString(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out += ',';
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  return out;
}

namespace {

/// The one number format of the exposition.
void appendNumber(std::string& out, double value) {
  // Integral values render without a fractional part, so counter
  // exports stay byte-stable across platforms.
  char buf[32];
  std::to_chars_result result;
  if (std::isfinite(value) && value == std::floor(value) && std::abs(value) < 1e15) {
    if (value == 0.0 && std::signbit(value)) {
      out += "-0";
      return;
    }
    result = std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(value));
  } else {
    // Precision 6 in general form is exactly printf's "%.6g".
    result =
        std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 6);
  }
  out.append(buf, result.ptr);
}

void appendUnsigned(std::string& out, std::uint64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// `name` or `name{k="v",...}`, plus the trailing space before the value.
std::string lineHead(std::string_view name, const Labels& labels) {
  std::string head(name);
  if (!labels.empty()) {
    head += '{';
    head += labelString(labels);
    head += '}';
  }
  head += ' ';
  return head;
}

std::vector<std::string> renderHeads(const std::string& name, const Labels& labels,
                                     MetricKind kind) {
  if (kind != MetricKind::kHistogram) return {lineHead(name, labels)};
  std::vector<std::string> heads{lineHead(name + "_count", labels),
                                 lineHead(name + "_sum", labels)};
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    Labels withQuantile = labels;
    withQuantile.emplace_back("quantile", q);  // labelString sorts it in
    heads.push_back(lineHead(name, withQuantile));
  }
  return heads;
}

}  // namespace

void appendSample(std::string& out, std::string_view name, const Labels& labels,
                  double value) {
  out += lineHead(name, labels);
  appendNumber(out, value);
  out += '\n';
}

MetricsRegistry::Entry& MetricsRegistry::findOrCreateLocked(const std::string& name,
                                                            Labels labels,
                                                            MetricKind kind) {
  std::sort(labels.begin(), labels.end());
  auto key = std::make_pair(name, labelString(labels));
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.heads = renderHeads(name, labels, kind);
    entry.labels = std::move(labels);
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::move(key), std::move(entry)).first;
  }
  assert(it->second.kind == kind && "metric re-registered with a different kind");
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *findOrCreateLocked(name, std::move(labels), MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *findOrCreateLocked(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *findOrCreateLocked(name, std::move(labels), MetricKind::kHistogram).histogram;
}

void MetricsRegistry::bind(std::string name, Labels labels, MetricKind kind,
                           Source source) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(
      PendingBinding{std::move(name), std::move(labels), kind, std::move(source)});
}

void MetricsRegistry::bindCounter(std::string name, Labels labels,
                                  const std::uint64_t& cell) {
  bindCounter(std::move(name), std::move(labels), [&cell] { return cell; });
}

void MetricsRegistry::bindCounter(std::string name, Labels labels,
                                  std::function<std::uint64_t()> read) {
  Source source;
  source.count = std::move(read);
  bind(std::move(name), std::move(labels), MetricKind::kCounter, std::move(source));
}

void MetricsRegistry::bindGauge(std::string name, Labels labels,
                                std::function<double()> read) {
  Source source;
  source.level = std::move(read);
  bind(std::move(name), std::move(labels), MetricKind::kGauge, std::move(source));
}

void MetricsRegistry::refreshLocked() {
  // Bindings become series at the first export after they are made, so
  // set-up stays cheap and a registry that never exports never holds
  // them.
  for (PendingBinding& p : pending_) {
    Entry& entry = findOrCreateLocked(p.name, std::move(p.labels), p.kind);
    bindings_.push_back(Binding{&entry, std::move(p.source)});
  }
  pending_.clear();
  // A counter series bound to several cells exports their sum. The lock
  // is held, so a plain load and store add without a read-modify-write.
  for (const Binding& b : bindings_) {
    if (b.source.count) b.entry->counter->set(0);
  }
  for (const Binding& b : bindings_) {
    if (b.source.count) {
      Counter& counter = *b.entry->counter;
      counter.set(counter.value() + b.source.count());
    } else {
      b.entry->gauge->set(b.source.level());
    }
  }
}

std::pair<MetricsRegistry::Entries::iterator, MetricsRegistry::Entries::iterator>
MetricsRegistry::rangeLocked(const std::string& prefix) {
  // Names sharing a prefix sort next to each other.
  auto first = entries_.lower_bound({prefix, std::string()});
  auto last = first;
  while (last != entries_.end() &&
         last->first.first.compare(0, prefix.size(), prefix) == 0) {
    ++last;
  }
  return {first, last};
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  refreshLocked();
  const auto [first, last] = rangeLocked(prefix);
  std::vector<MetricSnapshot> out;
  out.reserve(static_cast<std::size_t>(std::distance(first, last)));
  for (auto it = first; it != last; ++it) {
    const auto& [key, entry] = *it;
    MetricSnapshot snap;
    snap.name = key.first;
    snap.labels = entry.labels;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::kGauge:
        snap.value = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        snap.count = entry.histogram->count();
        snap.sum = entry.histogram->sum();
        snap.value = entry.histogram->mean();
        snap.p50 = entry.histogram->quantile(0.50);
        snap.p90 = entry.histogram->quantile(0.90);
        snap.p99 = entry.histogram->quantile(0.99);
        snap.exemplarTrace = entry.histogram->exemplarTrace();
        snap.exemplarValue = entry.histogram->exemplarValue();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

std::string formatNumber(double v) {
  std::string out;
  appendNumber(out, v);
  return out;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

const char* kindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string MetricsRegistry::toJson(const std::string& prefix) {
  const auto snaps = snapshot(prefix);
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const auto& s : snaps) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << jsonEscape(s.name) << "\",\"kind\":\""
       << kindName(s.kind) << "\",\"labels\":{";
    bool firstLabel = true;
    for (const auto& [k, v] : s.labels) {
      if (!firstLabel) os << ',';
      firstLabel = false;
      os << '"' << jsonEscape(k) << "\":\"" << jsonEscape(v) << '"';
    }
    os << '}';
    if (s.kind == MetricKind::kHistogram) {
      os << ",\"count\":" << s.count << ",\"sum\":" << formatNumber(s.sum)
         << ",\"mean\":" << formatNumber(s.value)
         << ",\"p50\":" << formatNumber(s.p50)
         << ",\"p90\":" << formatNumber(s.p90)
         << ",\"p99\":" << formatNumber(s.p99);
      if (s.exemplarTrace != 0) {
        os << ",\"exemplar_trace\":\"" << traceIdToString(s.exemplarTrace)
           << "\",\"exemplar_value\":" << formatNumber(s.exemplarValue);
      }
    } else {
      os << ",\"value\":" << formatNumber(s.value);
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string MetricsRegistry::toPrometheus(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  refreshLocked();
  const auto [first, last] = rangeLocked(prefix);
  std::string& out = render_;
  out.clear();
  const std::string* family = nullptr;
  for (auto it = first; it != last; ++it) {
    const auto& [key, entry] = *it;
    if (family == nullptr || *family != key.first) {
      family = &key.first;
      out += "# TYPE ";
      out += key.first;
      out += ' ';
      out += entry.kind == MetricKind::kHistogram ? "summary" : kindName(entry.kind);
      out += '\n';
    }
    const std::vector<std::string>& heads = entry.heads;
    switch (entry.kind) {
      case MetricKind::kCounter:
        out += heads[0];
        appendNumber(out, static_cast<double>(entry.counter->value()));
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += heads[0];
        appendNumber(out, entry.gauge->value());
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += heads[0];
        appendUnsigned(out, h.count());
        out += '\n';
        out += heads[1];
        appendNumber(out, h.sum());
        out += '\n';
        const double quantiles[] = {h.quantile(0.50), h.quantile(0.90),
                                    h.quantile(0.99)};
        for (int q = 0; q < 3; ++q) {
          out += heads[2 + q];
          appendNumber(out, quantiles[q]);
          out += '\n';
        }
        break;
      }
    }
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::map<std::string, double> MetricsRegistry::flatten(const std::string& prefix) {
  return parsePrometheusText(toPrometheus(prefix));
}

SeriesTable::const_iterator::value_type SeriesTable::const_iterator::operator*()
    const noexcept {
  const Row& row = table_->rows_[row_];
  return {table_->series(row), row.value};
}

namespace {

/// strtod over exactly `field`, as if it were its own NUL-terminated
/// string; nullopt unless all of it is one finite number.
std::optional<double> parseValue(std::string_view field) {
  char small[64];
  std::string large;
  const char* begin = small;
  if (field.size() < sizeof(small)) {
    std::memcpy(small, field.data(), field.size());
    small[field.size()] = '\0';
  } else {
    large.assign(field);
    begin = large.c_str();
  }
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0') return std::nullopt;  // not a number
  if (!std::isfinite(parsed)) return std::nullopt;        // NaN / +-Inf
  return parsed;
}

}  // namespace

SeriesTable::SeriesTable(std::string text) : text_(std::move(text)) {
  rows_.reserve(
      static_cast<std::size_t>(std::count(text_.begin(), text_.end(), '\n')) + 1);
  const std::string_view all(text_);
  std::size_t pos = 0;
  while (pos <= all.size()) {
    const std::size_t eol = all.find('\n', pos);
    const std::size_t lineEnd = eol == std::string_view::npos ? all.size() : eol;
    const std::string_view line = all.substr(pos, lineEnd - pos);
    const std::size_t lineStart = pos;
    pos = lineEnd + 1;

    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0 || space + 1 >= line.size()) {
      continue;  // no value field
    }
    const std::string_view series = line.substr(0, space);
    // A series is a metric name with an optional complete {labels}
    // block; an unbalanced brace means a truncated line.
    const std::size_t open = series.find('{');
    if (open != std::string_view::npos &&
        (series.back() != '}' || series.find('}') != series.size() - 1)) {
      continue;
    }
    if (open == 0) continue;  // label block with no metric name
    const std::optional<double> value = parseValue(line.substr(space + 1));
    if (!value) continue;
    rows_.push_back(Row{lineStart, space, *value});
  }

  // Sort by series, earlier lines first among equals, then keep the
  // last line of each series.
  std::sort(rows_.begin(), rows_.end(), [this](const Row& a, const Row& b) {
    const int order = series(a).compare(series(b));
    return order < 0 || (order == 0 && a.offset < b.offset);
  });
  std::size_t kept = 0;
  for (const Row& row : rows_) {
    if (kept > 0 && series(rows_[kept - 1]) == series(row)) {
      rows_[kept - 1] = row;
    } else {
      rows_[kept++] = row;
    }
  }
  rows_.resize(kept);
}

std::optional<double> SeriesTable::find(std::string_view wanted) const {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), wanted,
      [this](const Row& row, std::string_view key) { return series(row) < key; });
  if (it == rows_.end() || series(*it) != wanted) return std::nullopt;
  return it->value;
}

std::map<std::string, double> parsePrometheusText(const std::string& text) {
  std::map<std::string, double> out;
  for (const auto& [series, value] : SeriesTable(text)) {
    out.emplace_hint(out.end(), series, value);
  }
  return out;
}

}  // namespace lidc::telemetry
