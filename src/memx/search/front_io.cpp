#include "memx/search/front_io.hpp"

#include <cinttypes>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "memx/cachesim/cache_config.hpp"
#include "memx/util/csv_field.hpp"
#include "memx/util/numeric_io.hpp"

namespace memx::search {

namespace {

const char* const kColumns[] = {
    "workload",    "cache_bytes", "line_bytes", "associativity",
    "tiling",      "replacement", "write",      "layout",
    "l2_bytes",    "energy_nj",   "cycles",     "size_rbe",
};
constexpr std::size_t kColumnCount = std::size(kColumns);

[[noreturn]] void fail(std::size_t lineNo, const std::string& what) {
  throw std::runtime_error("front CSV line " + std::to_string(lineNo) +
                           ": " + what);
}

std::uint32_t parseU32(const std::string& field, std::size_t lineNo,
                       const char* column) {
  const std::optional<std::uint64_t> value =
      parseUnsignedText(field, 0xffffffffull);
  if (!value) {
    fail(lineNo, std::string("column '") + column +
                     "' is not an unsigned integer: '" + field + "'");
  }
  return static_cast<std::uint32_t>(*value);
}

double parseF64(const std::string& field, std::size_t lineNo,
                const char* column) {
  // from_chars is locale-independent: a front written on one machine
  // parses on any other, and a hostile LC_NUMERIC cannot make the
  // reader accept "3,14" or reject "3.14".
  const std::optional<double> value = parseDoubleText(field);
  if (!value) {
    fail(lineNo, std::string("column '") + column +
                     "' is not a number: '" + field + "'");
  }
  return *value;
}

std::string f64(double v) { return formatDouble17(v); }

}  // namespace

const std::string& frontCsvHeader() {
  static const std::string header = [] {
    std::string h;
    for (std::size_t i = 0; i < kColumnCount; ++i) {
      if (i != 0) h += ',';
      h += kColumns[i];
    }
    return h;
  }();
  return header;
}

FrontRow toFrontRow(const std::string& workload, const SearchPoint& point) {
  FrontRow row;
  row.workload = workload;
  row.cacheBytes = point.decoded.key.cacheBytes;
  row.lineBytes = point.decoded.key.lineBytes;
  row.associativity = point.decoded.key.associativity;
  row.tiling = point.decoded.key.tiling;
  row.replacement = toString(point.decoded.replacement);
  row.writePolicy = toString(point.decoded.writePolicy);
  row.layout = point.decoded.optimizeLayout ? "opt" : "tight";
  row.l2Bytes = point.decoded.l2 ? point.decoded.l2->sizeBytes : 0;
  row.objectives = point.objectives;
  return row;
}

void writeFrontCsv(std::ostream& out, const std::vector<FrontRow>& rows) {
  // Integer columns stream through num_put: pin the classic locale so a
  // grouping-happy global locale cannot emit "1.024" cache sizes.
  const ClassicLocaleGuard locale(out);
  out << frontCsvHeader() << '\n';
  for (const FrontRow& r : rows) {
    out << csvEscape(r.workload) << ',' << r.cacheBytes << ','
        << r.lineBytes << ',' << r.associativity << ',' << r.tiling << ','
        << r.replacement << ',' << r.writePolicy << ',' << r.layout << ','
        << r.l2Bytes << ',' << f64(r.objectives[0]) << ','
        << f64(r.objectives[1]) << ',' << f64(r.objectives[2]) << '\n';
  }
}

std::vector<FrontRow> readFrontCsv(std::istream& in) {
  std::string line;
  std::size_t lineNo = 1;
  if (!std::getline(in, line)) fail(lineNo, "empty file (missing header)");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != frontCsvHeader()) {
    fail(lineNo, "bad header: expected '" + frontCsvHeader() + "', got '" +
                     line + "'");
  }
  std::vector<FrontRow> rows;
  while (std::getline(in, line)) {
    ++lineNo;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const CsvFields split = splitCsvLine(line);
    if (!split.error.empty()) fail(lineNo, split.error);
    const std::vector<std::string>& fields = split.fields;
    if (fields.size() != kColumnCount) {
      fail(lineNo, "expected " + std::to_string(kColumnCount) +
                       " fields, got " + std::to_string(fields.size()));
    }
    FrontRow row;
    row.workload = fields[0];
    row.cacheBytes = parseU32(fields[1], lineNo, kColumns[1]);
    row.lineBytes = parseU32(fields[2], lineNo, kColumns[2]);
    row.associativity = parseU32(fields[3], lineNo, kColumns[3]);
    row.tiling = parseU32(fields[4], lineNo, kColumns[4]);
    row.replacement = fields[5];
    row.writePolicy = fields[6];
    row.layout = fields[7];
    if (row.layout != "opt" && row.layout != "tight") {
      fail(lineNo, "column 'layout' must be 'opt' or 'tight', got '" +
                       row.layout + "'");
    }
    row.l2Bytes = parseU32(fields[8], lineNo, kColumns[8]);
    row.objectives[0] = parseF64(fields[9], lineNo, kColumns[9]);
    row.objectives[1] = parseF64(fields[10], lineNo, kColumns[10]);
    row.objectives[2] = parseF64(fields[11], lineNo, kColumns[11]);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace memx::search
