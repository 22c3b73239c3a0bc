// Locale-independence regression suite.
//
// Every test runs under a hostile global locale whose numpunct facet
// uses ',' as the decimal point and '.' as a thousands separator with
// 3-digit grouping (the de_DE shape, built from a custom facet because
// the container ships no named locales). Machine-read output must stay
// byte-identical to the classic locale, and parsers must keep accepting
// '.'-decimal input.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "memx/core/explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/report/result_io.hpp"
#include "memx/search/front_io.hpp"
#include "memx/serve/json.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/trace.hpp"
#include "memx/util/numeric_io.hpp"

namespace memx {
namespace {

/// de_DE-shaped numeric punctuation: ',' decimal point, '.' grouping.
class GermanNumpunct : public std::numpunct<char> {
protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs the hostile locale globally for the duration of each test,
/// so any stream constructed inside the code under test inherits it.
class HostileLocaleTest : public ::testing::Test {
protected:
  void SetUp() override {
    previous_ = std::locale::global(
        std::locale(std::locale::classic(), new GermanNumpunct));
    // Sanity: an unguarded stream really does corrupt numeric output.
    std::ostringstream probe;
    probe << 1234.5;
    ASSERT_EQ(probe.str(), "1.234,5") << "hostile locale not in effect";
  }
  void TearDown() override { std::locale::global(previous_); }

private:
  std::locale previous_{};
};

TEST_F(HostileLocaleTest, FormatDouble17UsesDotDecimalPoint) {
  EXPECT_EQ(formatDouble17(0.5), "0.5");
  EXPECT_EQ(formatDouble17(1234567.25), "1234567.25");
  EXPECT_EQ(formatDouble17(1e300).find(','), std::string::npos);
  // Round-trip exactness survives the hostile locale.
  const double v = 0.1 + 0.2;
  const auto parsed = parseDoubleText(formatDouble17(v));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, v);
}

/// The "%.17g" reference the formatter is pinned to: a classic-imbued
/// stream at precision 17 (the formatter memx used before to_chars).
[[nodiscard]] std::string streamDouble17(double v) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(17);
  os << v;
  return os.str();
}

TEST_F(HostileLocaleTest, Double17MatchesClassicStreamByteForByte) {
  std::vector<double> values = {
      0.0,     -0.0,     5e-324,   DBL_MIN, DBL_MAX, -DBL_MAX,
      1e16,    1e17,     9007199254740993.0 /* 2^53 + 1, reads as 2^53 */,
      9007199254740994.0,          1e-5,     0.1,      25075.9, -DBL_MIN};
  // Seeded random finite bit patterns: every exponent, both signs,
  // subnormals included.
  std::mt19937_64 rng(20261019);
  while (values.size() < 120000) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  // Values shaped like the sweep columns: rates in [0, 1) and
  // cycle/energy totals with a fractional part.
  std::uniform_real_distribution<double> rate(0.0, 1.0);
  std::uniform_real_distribution<double> total(0.0, 1e7);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rate(rng));
    values.push_back(total(rng));
  }
  std::string appended = "x";
  std::string expectedAppended = "x";
  std::size_t longest = 0;
  for (const double v : values) {
    const std::string expected = streamDouble17(v);
    longest = std::max(longest, expected.size());
    ASSERT_EQ(formatDouble17(v), expected)
        << "bits " << std::bit_cast<std::uint64_t>(v);
    appendDouble17(appended, v);
    expectedAppended += expected;
  }
  EXPECT_EQ(appended, expectedAppended);
  // The formatter's buffer is sized for the longest output; DBL_MAX and
  // DBL_MIN with a sign reach it.
  EXPECT_EQ(longest, kDouble17Chars);
  EXPECT_EQ(formatDouble17(-DBL_MAX).size(), kDouble17Chars);
  EXPECT_EQ(formatDouble17(-DBL_MAX), "-1.7976931348623157e+308");
}

TEST_F(HostileLocaleTest, ParsersStayLocaleBlind) {
  // '.'-decimal input parses; ','-decimal and grouped input do not
  // (from_chars never honors the global locale).
  ASSERT_TRUE(parseDoubleText("3.14").has_value());
  EXPECT_DOUBLE_EQ(*parseDoubleText("3.14"), 3.14);
  EXPECT_FALSE(parseDoubleText("3,14").has_value());
  EXPECT_FALSE(parseDoubleText("1.234,5").has_value());
  EXPECT_FALSE(parseDoubleText("nan").has_value());
  EXPECT_FALSE(parseDoubleText("1e999").has_value());
  ASSERT_TRUE(parseUnsignedText("1234", 1u << 20).has_value());
  EXPECT_EQ(*parseUnsignedText("1234", 1u << 20), 1234u);
  EXPECT_FALSE(parseUnsignedText("1.234", 1u << 20).has_value());
  EXPECT_FALSE(parseUnsignedText("12345", 100).has_value());
}

TEST_F(HostileLocaleTest, ClassicLocaleGuardScopesAndRestores) {
  std::ostringstream os;
  os << 1234.5;
  EXPECT_EQ(os.str(), "1.234,5");
  os.str("");
  {
    ClassicLocaleGuard guard(os);
    os << 1234.5;
    EXPECT_EQ(os.str(), "1234.5");
  }
  os.str("");
  os << 1234.5;  // guard restored the hostile locale
  EXPECT_EQ(os.str(), "1.234,5");
}

[[nodiscard]] ExplorationResult smallResult() {
  ExploreOptions o;
  o.ranges.maxCacheBytes = 64;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxAssociativity = 2;
  o.ranges.maxTiling = 2;
  return Explorer(o).explore(matrixAddKernel(8, 1));
}

TEST_F(HostileLocaleTest, ResultCsvRoundTripsBitExactly) {
  const ExplorationResult result = smallResult();
  const std::string csv = toCsvString(result);
  // No grouped thousands and no ','-decimals: every comma in the CSV is
  // a field separator, so the round-trip reproduces every number.
  const ExplorationResult back = fromCsvString(csv);
  ASSERT_EQ(back.points.size(), result.points.size());
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    EXPECT_EQ(back.points[i].key, result.points[i].key);
    EXPECT_EQ(back.points[i].missRate, result.points[i].missRate);
    EXPECT_EQ(back.points[i].cycles, result.points[i].cycles);
    EXPECT_EQ(back.points[i].energyNj, result.points[i].energyNj);
  }
  EXPECT_EQ(toCsvString(back), csv);
}

TEST_F(HostileLocaleTest, ResultJsonStaysMachineParseable) {
  const ExplorationResult result = smallResult();
  std::ostringstream os;
  writeResultJson(os, result);
  // Strict RFC 8259 parse: a ','-decimal or '.'-grouped number anywhere
  // in the document would be a syntax error.
  EXPECT_NO_THROW((void)serve::JsonValue::parse(os.str())) << os.str();
}

TEST_F(HostileLocaleTest, FrontCsvRoundTripsBitExactly) {
  search::FrontRow row;
  row.workload = "w";
  row.cacheBytes = 4096;
  row.lineBytes = 16;
  row.associativity = 2;
  row.tiling = 4;
  row.replacement = "LRU";
  row.writePolicy = "write-back";
  row.layout = "opt";
  row.objectives = {123456.78125, 9876543.0, 40960.5};
  std::ostringstream os;
  search::writeFrontCsv(os, {row});
  EXPECT_EQ(os.str().find(",5"), std::string::npos)
      << "','-decimal leaked into front CSV: " << os.str();
  std::istringstream is(os.str());
  const std::vector<search::FrontRow> back = search::readFrontCsv(is);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].cacheBytes, 4096u);
  EXPECT_EQ(back[0].objectives, row.objectives);
}

TEST_F(HostileLocaleTest, DinOutputHasNoGroupSeparators) {
  Trace trace;
  for (std::uint64_t i = 0; i < 4; ++i) {
    trace.push(readRef(0x123456 + i * 4096));
  }
  std::ostringstream os;
  writeDin(os, trace);
  EXPECT_EQ(os.str().find('.'), std::string::npos) << os.str();
  // Round-trip through the strict din parser.
  std::istringstream is(os.str());
  std::string line;
  std::size_t lineNo = 0;
  std::size_t parsed = 0;
  while (std::getline(is, line)) {
    if (parseDinLine(line, ++lineNo).has_value()) ++parsed;
  }
  EXPECT_EQ(parsed, trace.size());
}

TEST_F(HostileLocaleTest, RunReportJsonAndChromeTraceStayParseable) {
  obs::Recorder recorder;
  {
    obs::ScopedSpan span(&recorder, "phase.locale");
    recorder.counter("items").add(1234567);
  }
  const obs::RunReport report = recorder.report();
  std::ostringstream json;
  report.writeJson(json);
  EXPECT_NO_THROW((void)serve::JsonValue::parse(json.str())) << json.str();
  std::ostringstream chrome;
  report.writeChromeTrace(chrome);
  EXPECT_NO_THROW((void)serve::JsonValue::parse(chrome.str()))
      << chrome.str();
}

TEST_F(HostileLocaleTest, JsonValueDumpAndParseIgnoreGlobalLocale) {
  serve::JsonValue::Object o;
  o.emplace("big", serve::JsonValue(1234567.5));
  o.emplace("int", serve::JsonValue(9876543));
  const std::string text = serve::JsonValue(std::move(o)).dump();
  EXPECT_EQ(text, R"({"big":1234567.5,"int":9876543})");
  const serve::JsonValue back = serve::JsonValue::parse(text);
  EXPECT_DOUBLE_EQ(back.asObject().at("big").asNumber(), 1234567.5);
}

}  // namespace
}  // namespace memx
