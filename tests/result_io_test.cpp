#include <gtest/gtest.h>

#include <fstream>
#include <locale>
#include <sstream>
#include <string>

#include "memx/core/explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/report/result_io.hpp"
#include "memx/serve/json.hpp"
#include "memx/util/assert.hpp"

#ifndef MEMX_GOLDEN_DIR
#error "MEMX_GOLDEN_DIR must point at tests/golden"
#endif

namespace memx {
namespace {

ExplorationResult sampleResult() {
  ExploreOptions o;
  o.ranges.maxCacheBytes = 64;
  o.ranges.maxLineBytes = 8;
  o.ranges.maxAssociativity = 2;
  o.ranges.maxTiling = 2;
  return Explorer(o).explore(matrixAddKernel(8, 1));
}

TEST(ResultIo, CsvRoundTripsEveryField) {
  const ExplorationResult original = sampleResult();
  const ExplorationResult parsed =
      fromCsvString(toCsvString(original));
  EXPECT_EQ(parsed.workload, original.workload);
  ASSERT_EQ(parsed.points.size(), original.points.size());
  for (std::size_t i = 0; i < parsed.points.size(); ++i) {
    EXPECT_EQ(parsed.points[i].key, original.points[i].key);
    EXPECT_EQ(parsed.points[i].accesses, original.points[i].accesses);
    EXPECT_NEAR(parsed.points[i].missRate, original.points[i].missRate,
                1e-9);
    EXPECT_NEAR(parsed.points[i].cycles, original.points[i].cycles,
                original.points[i].cycles * 1e-9 + 1e-9);
    EXPECT_NEAR(parsed.points[i].energyNj, original.points[i].energyNj,
                original.points[i].energyNj * 1e-9 + 1e-9);
  }
}

TEST(ResultIo, CsvHeaderChecked) {
  EXPECT_THROW(fromCsvString("bogus,header\n1,2\n"), ContractViolation);
  EXPECT_THROW(fromCsvString(""), ContractViolation);
}

TEST(ResultIo, CsvRowShapeChecked) {
  std::string text = toCsvString(sampleResult());
  text += "too,few,columns\n";
  EXPECT_THROW(fromCsvString(text), ContractViolation);
}

TEST(ResultIo, CsvBadFieldChecked) {
  const std::string good = toCsvString(sampleResult());
  const std::size_t firstRow = good.find('\n') + 1;
  std::string bad = good.substr(0, firstRow);
  bad += "matadd,notanumber,8,1,1,192,0.1,100,50\n";
  EXPECT_THROW(fromCsvString(bad), ContractViolation);
}

TEST(ResultIo, TruncatedFileRejected) {
  const std::string good = toCsvString(sampleResult());
  // Cut at the last comma: the final line loses a column and must be
  // rejected, not silently absorbed as a shorter sweep.
  const std::string truncated = good.substr(0, good.rfind(','));
  EXPECT_THROW(fromCsvString(truncated), ContractViolation);
  // Header-only is a valid empty result, half a header is not.
  EXPECT_THROW(fromCsvString(good.substr(0, 10)), ContractViolation);
}

TEST(ResultIo, NumericRangeViolationsRejected) {
  const std::string header = toCsvString(ExplorationResult{});
  auto row = [&](const std::string& r) { return header + r + "\n"; };
  // 2^32 does not fit the uint32 cache field: stoul would silently
  // truncate this to 0; the reader must refuse instead.
  EXPECT_THROW(fromCsvString(row("k,4294967296,8,1,1,10,0.1,100,50")),
               ContractViolation);
  // Negative values wrap under stoul; unsigned columns take digits only.
  EXPECT_THROW(fromCsvString(row("k,-64,8,1,1,10,0.1,100,50")),
               ContractViolation);
  // Trailing garbage after a number is corruption, not a number.
  EXPECT_THROW(fromCsvString(row("k,64x,8,1,1,10,0.1,100,50")),
               ContractViolation);
  EXPECT_THROW(fromCsvString(row("k,64,8,1,1,10,0.1junk,100,50")),
               ContractViolation);
  // Out-of-range and non-finite doubles.
  EXPECT_THROW(fromCsvString(row("k,64,8,1,1,10,0.1,1e999,50")),
               ContractViolation);
  EXPECT_THROW(fromCsvString(row("k,64,8,1,1,10,nan,100,50")),
               ContractViolation);
  EXPECT_THROW(fromCsvString(row("k,64,8,1,1,10,inf,100,50")),
               ContractViolation);
  // Empty numeric cell.
  EXPECT_THROW(fromCsvString(row("k,,8,1,1,10,0.1,100,50")),
               ContractViolation);
  // The same values in range parse fine (the guards are not overeager).
  const ExplorationResult ok =
      fromCsvString(row("k,4294967295,8,1,1,10,0.1,100,50"));
  ASSERT_EQ(ok.points.size(), 1u);
  EXPECT_EQ(ok.points[0].key.cacheBytes, 4294967295u);
}

TEST(ResultIo, RangeErrorsNameRowAndColumn) {
  const std::string header = toCsvString(ExplorationResult{});
  try {
    (void)fromCsvString(header + "k,64,8,1,1,10,0.1,100,50\n" +
                        "k,4294967296,8,1,1,10,0.1,100,50\n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 3"), std::string::npos) << what;
    EXPECT_NE(what.find("cache"), std::string::npos) << what;
  }
}

TEST(ResultIo, MixedWorkloadsRejectedWithRow) {
  const std::string header = toCsvString(ExplorationResult{});
  try {
    (void)fromCsvString(header + "a,64,8,1,1,10,0.1,100,50\n" +
                        "a,128,8,1,1,10,0.1,100,50\n" +
                        "b,256,8,1,1,10,0.1,100,50\n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 4"), std::string::npos) << what;
    EXPECT_NE(what.find("workload"), std::string::npos) << what;
  }
}

TEST(ResultIo, WorkloadWithCommaRoundTrips) {
  ExplorationResult r;
  r.workload = "mpeg, decode \"fast\"";
  DesignPoint p;
  p.key = ConfigKey{64, 8, 2, 1};
  p.accesses = 100;
  p.missRate = 0.25;
  p.cycles = 400.0;
  p.energyNj = 12.5;
  r.points.push_back(p);
  const std::string csv = toCsvString(r);
  // The free-text field is quoted; the numeric columns are untouched.
  EXPECT_NE(csv.find("\"mpeg, decode \"\"fast\"\"\""), std::string::npos);
  const ExplorationResult parsed = fromCsvString(csv);
  EXPECT_EQ(parsed.workload, r.workload);
  ASSERT_EQ(parsed.points.size(), 1u);
  EXPECT_EQ(parsed.points[0].key, p.key);
  EXPECT_EQ(parsed.points[0].accesses, 100u);
}

TEST(ResultIo, MalformedQuotingRejectedWithLineNumber) {
  const std::string header =
      "workload,cache,line,assoc,tiling,accesses,miss_rate,cycles,"
      "energy_nj\n";
  // Unterminated quote.
  try {
    (void)fromCsvString(header + "\"broken,64,8,1,1,10,0.1,100,50\n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos);
  }
  // Content after a closing quote.
  EXPECT_THROW(
      (void)fromCsvString(header + "\"a\"b,64,8,1,1,10,0.1,100,50\n"),
      ContractViolation);
  // Quote opening mid-field.
  EXPECT_THROW(
      (void)fromCsvString(header + "a\"b\",64,8,1,1,10,0.1,100,50\n"),
      ContractViolation);
}

TEST(ResultIo, EmptyResultRoundTrips) {
  ExplorationResult empty;
  empty.workload = "none";
  const ExplorationResult parsed = fromCsvString(toCsvString(empty));
  EXPECT_TRUE(parsed.points.empty());
}

TEST(ResultIo, JsonShapeIsSane) {
  const std::string json = toJsonString(sampleResult());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"workload\": \"matadd\""), std::string::npos);
  EXPECT_NE(json.find("\"points\": ["), std::string::npos);
  EXPECT_NE(json.find("\"miss_rate\": "), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ResultIo, JsonEscapesQuotes) {
  ExplorationResult r;
  r.workload = "we\"ird";
  const std::string json = toJsonString(r);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
}

TEST(ResultIo, JsonEscapesControlCharacters) {
  // A raw newline or tab inside a JSON string is invalid: the writer
  // must escape every control character, not only quotes and
  // backslashes, so any strict parser reads the name back unchanged.
  ExplorationResult r;
  r.workload = "line1\nline2\t";
  const std::string json = toJsonString(r);
  EXPECT_NE(json.find("line1\\nline2\\t"), std::string::npos) << json;
  const serve::JsonValue parsed = serve::JsonValue::parse(json);
  EXPECT_EQ(parsed.asObject().at("workload").asString(), r.workload);
}

/// de_DE-shaped numeric punctuation: ',' decimal point, '.' grouping.
class GermanNumpunct : public std::numpunct<char> {
protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(ResultIo, CsvBytesMatchGoldenCorpus) {
  // The golden sweeps pin the CSV bytes, not only the parsed values:
  // re-encoding a parsed file must reproduce it exactly, through the
  // string writer and through a stream whose locale groups digits and
  // uses ',' decimals.
  for (const char* name : {"compress", "dequant", "matadd", "transpose"}) {
    std::ifstream file(std::string(MEMX_GOLDEN_DIR) + "/" + name + ".csv",
                       std::ios::binary);
    ASSERT_TRUE(file) << name;
    std::ostringstream bytes;
    bytes << file.rdbuf();
    const std::string golden = bytes.str();
    const ExplorationResult parsed = fromCsvString(golden);
    ASSERT_FALSE(parsed.points.empty()) << name;
    EXPECT_EQ(toCsvString(parsed), golden) << name;
    std::ostringstream hostile;
    hostile.imbue(std::locale(std::locale::classic(), new GermanNumpunct));
    writeResultCsv(hostile, parsed);
    EXPECT_EQ(hostile.str(), golden) << name;
  }
}

}  // namespace
}  // namespace memx
