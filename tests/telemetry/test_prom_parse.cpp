// parsePrometheusText() / SeriesTable hardening: collectors scrape
// exposition text off the wire, so the parser must never throw and must
// skip malformed lines deterministically — truncated lines, non-finite
// values, unbalanced label blocks, duplicates, and seeded random
// mutations of valid text all parse to the same result every time, and
// the flat table agrees with a plain std::map parser on all of them.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace lidc::telemetry {
namespace {

TEST(PromParseTest, ParsesWellFormedText) {
  const std::string text =
      "# HELP lidc_jobs_total jobs\n"
      "# TYPE lidc_jobs_total counter\n"
      "lidc_jobs_total 42\n"
      "lidc_free_cpu_m{cluster=\"east\"} 8000\n"
      "lidc_ratio 0.125\n";
  const auto values = parsePrometheusText(text);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values.at("lidc_jobs_total"), 42.0);
  EXPECT_DOUBLE_EQ(values.at("lidc_free_cpu_m{cluster=\"east\"}"), 8000.0);
  EXPECT_DOUBLE_EQ(values.at("lidc_ratio"), 0.125);
}

TEST(PromParseTest, SkipsMalformedLinesKeepsGoodOnes) {
  const std::string text =
      "good_before 1\n"
      "no_value_here\n"
      "   \n"
      "just spaces and words here\n"
      "trailing_space_no_value \n"
      "unbalanced{label=\"x\" 5\n"
      "{onlylabels=\"x\"} 5\n"
      "name{a=\"1\"}garbage 5\n"
      "not_a_number abc\n"
      "partial_number 12abc\n"
      "good_after 2\n";
  const auto values = parsePrometheusText(text);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values.at("good_before"), 1.0);
  EXPECT_DOUBLE_EQ(values.at("good_after"), 2.0);
}

TEST(PromParseTest, DropsNonFiniteValues) {
  const std::string text =
      "a NaN\n"
      "b nan\n"
      "c Inf\n"
      "d -Inf\n"
      "e +Inf\n"
      "f 3.5\n";
  const auto values = parsePrometheusText(text);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values.at("f"), 3.5);
}

TEST(PromParseTest, DuplicateSeriesLastWins) {
  const auto values = parsePrometheusText("x 1\nx 2\nx 3\n");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values.at("x"), 3.0);
}

TEST(PromParseTest, TruncatedFinalLineWithoutNewline) {
  const auto values = parsePrometheusText("a 1\nb 2");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values.at("b"), 2.0);
}

TEST(PromParseTest, EmptyAndCommentOnlyInputs) {
  EXPECT_TRUE(parsePrometheusText("").empty());
  EXPECT_TRUE(parsePrometheusText("\n\n\n").empty());
  EXPECT_TRUE(parsePrometheusText("# just a comment\n# another\n").empty());
}

TEST(PromParseTest, ScientificNotationAndSigns) {
  const auto values = parsePrometheusText("a 1e3\nb -2.5\nc +4\nd 1.5e-2\n");
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values.at("a"), 1000.0);
  EXPECT_DOUBLE_EQ(values.at("b"), -2.5);
  EXPECT_DOUBLE_EQ(values.at("c"), 4.0);
  EXPECT_DOUBLE_EQ(values.at("d"), 0.015);
}

// Property-style fuzz: random byte mutations of a valid exposition must
// never throw, and any given garbage must parse identically twice
// (deterministic skipping, no hidden state).
TEST(PromParseTest, SeededMutationFuzzNeverThrowsAndIsDeterministic) {
  MetricsRegistry registry;
  registry.counter("lidc_fuzz_total", {{"cluster", "east"}}).inc(7);
  registry.gauge("lidc_fuzz_gauge").set(123.5);
  registry.counter("lidc_fuzz_other").inc(1);
  const std::string valid = registry.toPrometheus();
  ASSERT_FALSE(parsePrometheusText(valid).empty());

  std::mt19937 rng(424242);
  std::uniform_int_distribution<std::size_t> pickPos(0, valid.size() - 1);
  std::uniform_int_distribution<int> pickByte(0, 255);
  std::uniform_int_distribution<int> pickMutations(1, 8);

  for (int round = 0; round < 500; ++round) {
    std::string mutated = valid;
    const int mutations = pickMutations(rng);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = pickPos(rng);
      switch (pickByte(rng) % 3) {
        case 0:  // overwrite
          mutated[pos] = static_cast<char>(pickByte(rng));
          break;
        case 1:  // delete
          mutated.erase(pos % mutated.size(), 1);
          break;
        default:  // insert
          mutated.insert(pos % mutated.size(), 1,
                         static_cast<char>(pickByte(rng)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    std::map<std::string, double> first;
    ASSERT_NO_THROW(first = parsePrometheusText(mutated)) << "round " << round;
    EXPECT_EQ(first, parsePrometheusText(mutated)) << "round " << round;
    for (const auto& [series, value] : first) {
      EXPECT_TRUE(std::isfinite(value)) << series;
    }
  }
}

/// The std::map parser SeriesTable replaced, kept as the reference the
/// table must agree with.
std::map<std::string, double> referenceParse(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line(
        text.data() + pos,
        (eol == std::string::npos ? text.size() : eol) - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;

    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      continue;
    }
    const std::string_view series = line.substr(0, space);
    const std::size_t open = series.find('{');
    if (open != std::string::npos &&
        (series.back() != '}' || series.find('}') != series.size() - 1)) {
      continue;
    }
    if (open == 0) continue;

    const std::string value(line.substr(space + 1));
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') continue;
    if (!std::isfinite(parsed)) continue;
    out[std::string(series)] = parsed;
  }
  return out;
}

/// The seeded mutations of the fuzz test above, plus random soups of
/// near-valid lines: shared names (so duplicates occur), label blocks
/// whole and broken, and values strtod reads in unusual ways.
std::vector<std::string> fuzzTexts() {
  std::vector<std::string> texts;
  MetricsRegistry registry;
  registry.counter("lidc_fuzz_total", {{"cluster", "east"}}).inc(7);
  registry.gauge("lidc_fuzz_gauge").set(123.5);
  registry.counter("lidc_fuzz_other").inc(1);
  const std::string valid = registry.toPrometheus();
  texts.push_back(valid);

  std::mt19937 rng(424242);
  std::uniform_int_distribution<std::size_t> pickPos(0, valid.size() - 1);
  std::uniform_int_distribution<int> pickByte(0, 255);
  std::uniform_int_distribution<int> pickMutations(1, 8);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = valid;
    const int mutations = pickMutations(rng);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = pickPos(rng);
      switch (pickByte(rng) % 3) {
        case 0:
          mutated[pos] = static_cast<char>(pickByte(rng));
          break;
        case 1:
          mutated.erase(pos % mutated.size(), 1);
          break;
        default:
          mutated.insert(pos % mutated.size(), 1, static_cast<char>(pickByte(rng)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    texts.push_back(std::move(mutated));
  }

  const std::vector<std::string> names = {
      "x",        "x_total",      "x{a=\"1\"}",         "x{a=\"2\"}",
      "x_total{a=\"1\"}",         "y{b=\"1\"",          "{a=\"1\"}",
      "x{a=\"1\"}z",              "z}",                 "# TYPE x gauge",
      "lidc_a_b", "lidc_a",       "lidc_a{l=\"v w\"}",  "\t",
      "",         "x y",          std::string("n\0ul", 4), "x{}",
      "\xff\xfe", "a{b=\"}\"}"};
  const std::vector<std::string> values = {
      "1",     "-0",   "+4",    "0x10", "1e-400", "1e400", "nan", "inf",
      "-Inf",  "\t7",  "\v8",   "12abc", "abc",   "",      "1.5e3", "2.",
      ".5",    "1e",   "3\r",   std::string("5\0x", 3),  "0.1",  "-1e-310",
      "123456789012345678901234567890"};
  std::uniform_int_distribution<std::size_t> pickName(0, names.size() - 1);
  std::uniform_int_distribution<std::size_t> pickValue(0, values.size() - 1);
  std::uniform_int_distribution<int> pickLines(0, 40);
  for (int round = 0; round < 500; ++round) {
    std::string text;
    const int lines = pickLines(rng);
    for (int l = 0; l < lines; ++l) {
      text += names[pickName(rng)];
      if (pickByte(rng) % 8 != 0) text += ' ';
      text += values[pickValue(rng)];
      if (pickByte(rng) % 16 != 0) text += '\n';
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

TEST(PromParseTest, SeriesTableMatchesReferenceParser) {
  for (const std::string& text : fuzzTexts()) {
    const std::map<std::string, double> expected = referenceParse(text);
    const SeriesTable table(text);
    EXPECT_EQ(table.text(), text);
    ASSERT_EQ(table.size(), expected.size()) << text;

    // Iteration yields the reference's keys, values and order.
    auto want = expected.begin();
    for (const auto& [series, value] : table) {
      EXPECT_EQ(series, want->first);
      EXPECT_EQ(value, want->second) << series;
      ++want;
    }

    // Every present key is found, and near misses are absent.
    for (const auto& [series, value] : expected) {
      EXPECT_EQ(table.find(series), value) << series;
      const std::string nearMisses[] = {series + "x", series + " ",
                                        series.substr(0, series.size() - 1), ""};
      for (const std::string& miss : nearMisses) {
        if (expected.count(miss) == 0) {
          EXPECT_FALSE(table.find(miss).has_value()) << miss;
        }
      }
    }
    EXPECT_EQ(parsePrometheusText(text), expected);
  }
}

TEST(PromParseTest, SeriesTableSurvivesMoves) {
  // A short text lives inside the string object itself; moving the
  // table must not leave its rows pointing at the old copy.
  SeriesTable current("a 1\nb 2\n");
  SeriesTable previous = std::move(current);
  current = SeriesTable("a 3\n");
  EXPECT_EQ(previous.find("a"), 1.0);
  EXPECT_EQ(previous.find("b"), 2.0);
  EXPECT_EQ(current.find("a"), 3.0);
  EXPECT_FALSE(current.find("b").has_value());
}

}  // namespace
}  // namespace lidc::telemetry
