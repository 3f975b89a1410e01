// MetricsRegistry unit tests: instrument semantics (counter, gauge,
// log2 histogram quantiles), labeled families, bound series, exporter
// round-trips, and hot-path thread safety (the concurrent
// tests are what the ThreadSanitizer CI job exercises).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace lidc::telemetry {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("lidc_test_events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&registry.counter("lidc_test_events"), &c);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("lidc_test", {{"x", "1"}, {"y", "2"}});
  Counter& b = registry.counter("lidc_test", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("lidc_test", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("lidc_test_depth");
  g.set(10.0);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  // Bucket 0 = [0,1), bucket i = [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucketFor(0.0), 0);
  EXPECT_EQ(Histogram::bucketFor(0.99), 0);
  EXPECT_EQ(Histogram::bucketFor(1.0), 1);
  EXPECT_EQ(Histogram::bucketFor(2.0), 2);
  EXPECT_EQ(Histogram::bucketFor(1023.0), 10);
  EXPECT_EQ(Histogram::bucketFor(1024.0), 11);
  EXPECT_EQ(Histogram::bucketFor(-5.0), 0);  // clamped

  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 90 fast observations, 10 slow ones.
  for (int i = 0; i < 90; ++i) h.observe(10.0);
  for (int i = 0; i < 10; ++i) h.observe(5000.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 90 * 10.0 + 10 * 5000.0);
  // p50 lands in 10.0's bucket [8,16), p99 in 5000.0's [4096,8192).
  EXPECT_GE(h.quantile(0.5), 8.0);
  EXPECT_LT(h.quantile(0.5), 16.0);
  EXPECT_GE(h.quantile(0.99), 4096.0);
  EXPECT_LT(h.quantile(0.99), 8192.0);
  // Quantiles are monotone.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
}

TEST(MetricsTest, KindMismatchAsserts) {
  MetricsRegistry registry;
  registry.counter("lidc_test_thing");
#ifndef NDEBUG
  EXPECT_DEATH(registry.gauge("lidc_test_thing"), "");
#endif
}

TEST(MetricsTest, SnapshotFiltersByPrefixAndOrders) {
  MetricsRegistry registry;
  registry.counter("lidc_b").inc(2);
  registry.counter("lidc_a", {{"node", "n1"}}).inc(1);
  registry.gauge("other_metric").set(9);

  const auto all = registry.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "lidc_a");
  EXPECT_EQ(all[1].name, "lidc_b");
  EXPECT_EQ(all[2].name, "other_metric");

  const auto lidc = registry.snapshot("lidc_");
  ASSERT_EQ(lidc.size(), 2u);
  EXPECT_EQ(lidc[0].name, "lidc_a");
  ASSERT_EQ(lidc[0].labels.size(), 1u);
  EXPECT_EQ(lidc[0].labels[0].second, "n1");
  EXPECT_DOUBLE_EQ(lidc[1].value, 2.0);
}

TEST(MetricsTest, BoundSeriesReadOwnerAtEverySnapshot) {
  MetricsRegistry registry;
  std::uint64_t cell = 7;
  double level = 0.25;
  registry.bindCounter("lidc_bound_total", {}, cell);
  registry.bindGauge("lidc_bound_level", {{"node", "n1"}}, [&level] { return level; });
  auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].name, "lidc_bound_level");
  EXPECT_DOUBLE_EQ(snaps[0].value, 0.25);
  EXPECT_DOUBLE_EQ(snaps[1].value, 7.0);

  cell = 11;
  level = 0.5;
  // Between exports the series keeps the value it was last refreshed to.
  EXPECT_EQ(registry.counter("lidc_bound_total").value(), 7u);
  snaps = registry.snapshot();
  EXPECT_DOUBLE_EQ(snaps[0].value, 0.5);
  EXPECT_DOUBLE_EQ(snaps[1].value, 11.0);
  EXPECT_EQ(registry.counter("lidc_bound_total").value(), 11u);
}

TEST(MetricsTest, BindingAppearsAtFirstExportNotBefore) {
  MetricsRegistry registry;
  std::uint64_t cell = 3;
  registry.bindCounter("lidc_lazy_total", {{"cluster", "east"}}, cell);
  registry.bindCounter("lidc_lazy_computed_total", {}, [] { return std::uint64_t{5}; });
  EXPECT_EQ(registry.size(), 0u);

  const std::string text = registry.toPrometheus();
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_NE(text.find("lidc_lazy_total{cluster=\"east\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lidc_lazy_computed_total 5\n"), std::string::npos);
}

TEST(MetricsTest, BindingReusesSeriesCounterAlreadyCreated) {
  MetricsRegistry registry;
  Counter& existing = registry.counter("lidc_shared_total", {{"a", "1"}, {"b", "2"}});
  existing.inc(4);
  std::uint64_t cell = 9;
  // Label order does not matter: this is the same series.
  registry.bindCounter("lidc_shared_total", {{"b", "2"}, {"a", "1"}}, cell);
  (void)registry.snapshot();
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(&registry.counter("lidc_shared_total", {{"a", "1"}, {"b", "2"}}),
            &existing);
  EXPECT_EQ(existing.value(), 9u);
}

TEST(MetricsTest, SeriesBoundToSeveralCellsExportsTheirSum) {
  MetricsRegistry registry;
  std::uint64_t first = 3;
  std::uint64_t second = 4;
  registry.bindCounter("lidc_fleet_total", {}, first);
  registry.bindCounter("lidc_fleet_total", {}, second);
  EXPECT_EQ(registry.toPrometheus(),
            "# TYPE lidc_fleet_total counter\n"
            "lidc_fleet_total 7\n");

  second = 10;
  EXPECT_EQ(registry.flatten().at("lidc_fleet_total"), 13.0);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsTest, FamilyMemberBoundAfterExportAppearsAtNextExport) {
  MetricsRegistry registry;
  std::uint64_t first = 1;
  std::uint64_t second = 2;
  registry.bindCounter("lidc_member_total", {{"tenant", "a"}}, first);
  const std::string before = registry.toPrometheus();
  EXPECT_EQ(before,
            "# TYPE lidc_member_total counter\n"
            "lidc_member_total{tenant=\"a\"} 1\n");

  registry.bindCounter("lidc_member_total", {{"tenant", "b"}}, second);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.toPrometheus(),
            "# TYPE lidc_member_total counter\n"
            "lidc_member_total{tenant=\"a\"} 1\n"
            "lidc_member_total{tenant=\"b\"} 2\n");
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsTest, PrometheusRoundTrip) {
  MetricsRegistry registry;
  registry.counter("lidc_events", {{"node", "gw"}}).inc(5);
  registry.gauge("lidc_depth").set(3.5);
  Histogram& h = registry.histogram("lidc_latency_us");
  h.observe(100.0);
  h.observe(200.0);

  const std::string text = registry.toPrometheus();
  EXPECT_NE(text.find("# TYPE lidc_events counter"), std::string::npos);
  EXPECT_NE(text.find("lidc_events{node=\"gw\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lidc_latency_us summary"), std::string::npos);

  const auto values = parsePrometheusText(text);
  EXPECT_DOUBLE_EQ(values.at("lidc_events{node=\"gw\"}"), 5.0);
  EXPECT_DOUBLE_EQ(values.at("lidc_depth"), 3.5);
  EXPECT_DOUBLE_EQ(values.at("lidc_latency_us_count"), 2.0);
  EXPECT_DOUBLE_EQ(values.at("lidc_latency_us_sum"), 300.0);

  // flatten() is exactly the scraped-collector view of toPrometheus().
  EXPECT_EQ(registry.flatten(), values);
}

// Pins the exposition text byte for byte: it is the payload the
// monitoring plane ships, so any change to it moves every scrape.
TEST(MetricsTest, PrometheusExpositionIsByteStable) {
  MetricsRegistry registry;
  const double inf = std::numeric_limits<double>::infinity();
  // Labels given out of order; "app" sorts before "quantile" and
  // "zone" after it.
  registry.counter("lidc_golden_jobs_total", {{"zone", "west"}, {"app", "blast"}})
      .inc(7);
  registry.counter("lidc_golden_jobs_total", {{"app", "align"}, {"zone", "east"}})
      .inc(1000000000000000);
  registry.gauge("lidc_golden_x", {{"v", "tenth"}}).set(0.1);
  registry.gauge("lidc_golden_x", {{"v", "big"}}).set(1e15);
  registry.gauge("lidc_golden_x", {{"v", "below_big"}}).set(999999999999999.0);
  registry.gauge("lidc_golden_x", {{"v", "negative"}}).set(-42.0);
  registry.gauge("lidc_golden_x", {{"v", "fraction"}}).set(1234567.5);
  registry.gauge("lidc_golden_x", {{"v", "neg_zero"}}).set(-0.0);
  registry.gauge("lidc_golden_x", {{"v", "nan"}})
      .set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("lidc_golden_x", {{"v", "pos_inf"}}).set(inf);
  registry.gauge("lidc_golden_x", {{"v", "neg_inf"}}).set(-inf);
  // A family name that is a prefix of another family name.
  registry.counter("lidc_golden_x_total").inc(2);
  Histogram& wait =
      registry.histogram("lidc_golden_wait_us", {{"zone", "east"}, {"app", "blast"}});
  wait.observe(3.0);
  wait.observe(100.0, /*exemplarTrace=*/0xabc);
  wait.observe(5000.5);
  registry.gauge("other_golden_level").set(12.5);

  const std::string family =
      "# TYPE lidc_golden_x gauge\n"
      "lidc_golden_x{v=\"below_big\"} 999999999999999\n"
      "lidc_golden_x{v=\"big\"} 1e+15\n"
      "lidc_golden_x{v=\"fraction\"} 1.23457e+06\n"
      "lidc_golden_x{v=\"nan\"} nan\n"
      "lidc_golden_x{v=\"neg_inf\"} -inf\n"
      "lidc_golden_x{v=\"neg_zero\"} -0\n"
      "lidc_golden_x{v=\"negative\"} -42\n"
      "lidc_golden_x{v=\"pos_inf\"} inf\n"
      "lidc_golden_x{v=\"tenth\"} 0.1\n"
      "# TYPE lidc_golden_x_total counter\n"
      "lidc_golden_x_total 2\n";
  EXPECT_EQ(registry.toPrometheus(),
            "# TYPE lidc_golden_jobs_total counter\n"
            "lidc_golden_jobs_total{app=\"align\",zone=\"east\"} 1e+15\n"
            "lidc_golden_jobs_total{app=\"blast\",zone=\"west\"} 7\n"
            "# TYPE lidc_golden_wait_us summary\n"
            "lidc_golden_wait_us_count{app=\"blast\",zone=\"east\"} 3\n"
            "lidc_golden_wait_us_sum{app=\"blast\",zone=\"east\"} 5103.5\n"
            "lidc_golden_wait_us{app=\"blast\",quantile=\"0.5\",zone=\"east\"} 96\n"
            "lidc_golden_wait_us{app=\"blast\",quantile=\"0.9\",zone=\"east\"} 6144\n"
            "lidc_golden_wait_us{app=\"blast\",quantile=\"0.99\",zone=\"east\"} "
            "6144\n" +
                family +
                "# TYPE other_golden_level gauge\n"
                "other_golden_level 12.5\n");
  EXPECT_EQ(registry.toPrometheus("lidc_golden_x"), family);
  EXPECT_EQ(registry.toPrometheus("no_such_prefix"), "");
}

TEST(MetricsTest, JsonExportContainsHistogramSummary) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lidc_latency_us", {{"client", "c1"}});
  for (int i = 0; i < 10; ++i) h.observe(64.0);
  const std::string json = registry.toJson();
  EXPECT_NE(json.find("\"name\":\"lidc_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"client\":\"c1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsTest, HistogramExemplarTracksHighestBucketTracedSample) {
  Histogram h;
  h.observe(500.0);  // untraced samples never become exemplars
  EXPECT_EQ(h.exemplarTrace(), 0u);

  h.observe(100.0, 0xabcd);
  EXPECT_EQ(h.exemplarTrace(), 0xabcdu);
  EXPECT_DOUBLE_EQ(h.exemplarValue(), 100.0);

  // A traced sample in a lower bucket does not displace the exemplar...
  h.observe(10.0, 0x1111);
  EXPECT_EQ(h.exemplarTrace(), 0xabcdu);
  // ...but one in the same-or-higher bucket does: the exemplar follows
  // the tail (the max-bucket sample is by definition >= p99).
  h.observe(4000.0, 0x2222);
  EXPECT_EQ(h.exemplarTrace(), 0x2222u);
  EXPECT_DOUBLE_EQ(h.exemplarValue(), 4000.0);
}

TEST(MetricsTest, JsonExportCarriesExemplarOnlyWhenCaptured) {
  MetricsRegistry registry;
  registry.histogram("lidc_plain_us").observe(64.0);
  EXPECT_EQ(registry.toJson().find("exemplar_trace"), std::string::npos);

  registry.histogram("lidc_traced_us").observe(64.0, 0x00ff12ab34cd56efULL);
  const std::string json = registry.toJson();
  EXPECT_NE(json.find("\"exemplar_trace\":\"00ff12ab34cd56ef\""),
            std::string::npos);
  EXPECT_NE(json.find("\"exemplar_value\":64"), std::string::npos);
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& c = registry.counter("lidc_concurrent");
  Histogram& h = registry.histogram("lidc_concurrent_lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 1024));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, ConcurrentRegistrationAndSnapshot) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 500; ++i) {
        registry
            .counter("lidc_family_" + std::to_string(i % 16),
                     {{"thread", std::to_string(t)}})
            .inc();
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) (void)registry.snapshot();
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.size(), 16u * kThreads);
}

}  // namespace
}  // namespace lidc::telemetry
