#include "memx/report/result_io.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "memx/util/assert.hpp"
#include "memx/util/json_escape.hpp"
#include "memx/util/numeric_io.hpp"

namespace memx {

namespace {

constexpr const char* kHeader =
    "workload,cache,line,assoc,tiling,accesses,miss_rate,cycles,"
    "energy_nj";

/// RFC-4180-style field escaping: fields containing a comma, quote or
/// newline are wrapped in quotes with inner quotes doubled. Used for the
/// workload name, the only free-text CSV column.
std::string csvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Append `v` in decimal. The buffer holds the longest std::uint64_t
/// (20 digits), so a failed conversion is a bug, not a truncation.
void appendUnsigned(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  MEMX_ENSURES(ec == std::errc(), "integer does not fit its buffer");
  out.append(buf, end);
}

/// Longest CSV row after the workload field: four uint32 and one
/// uint64 column, three doubles, eight commas and the newline.
constexpr std::size_t kMaxRowTail = 4 * 10 + 20 + 3 * kDouble17Chars + 9;

/// Split one CSV line honoring quoted fields ("" inside quotes is a
/// literal quote). Throws with the 1-based `lineNo` on unbalanced quotes
/// or garbage after a closing quote.
std::vector<std::string> splitCsvLine(const std::string& line,
                                      std::size_t lineNo) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  bool cellWasQuoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      MEMX_EXPECTS(cell.empty() && !cellWasQuoted,
                   "exploration-CSV row " + std::to_string(lineNo) +
                       ": quote inside an unquoted field");
      quoted = true;
      cellWasQuoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
      cellWasQuoted = false;
    } else {
      MEMX_EXPECTS(!cellWasQuoted,
                   "exploration-CSV row " + std::to_string(lineNo) +
                       ": content after a closing quote");
      cell += c;
    }
  }
  MEMX_EXPECTS(!quoted, "exploration-CSV row " + std::to_string(lineNo) +
                            ": unterminated quoted field");
  cells.push_back(std::move(cell));
  return cells;
}

/// Strict unsigned parse: digits only, fully consumed, within `max`.
/// stoul-style silent truncation (2^32 reading back as 0) and negative
/// wraparound are exactly the corruptions a result file can carry, so
/// they are hard errors with the row and column named.
std::uint64_t parseUnsigned(const std::string& cell, std::uint64_t max,
                            std::size_t lineNo, const char* column) {
  const std::optional<std::uint64_t> v = parseUnsignedText(cell, max);
  MEMX_EXPECTS(v.has_value(),
               "exploration-CSV row " + std::to_string(lineNo) +
                   " column " + column +
                   ": not an unsigned integer in range");
  return *v;
}

/// Strict double parse: fully consumed, finite, and locale-independent
/// ("1e999", "nan" and a de_DE-style "3,14" are rejected, not absorbed).
double parseDouble(const std::string& cell, std::size_t lineNo,
                   const char* column) {
  const std::optional<double> v = parseDoubleText(cell);
  MEMX_EXPECTS(v.has_value(), "exploration-CSV row " +
                                  std::to_string(lineNo) + " column " +
                                  column + ": not a finite number");
  return *v;
}

}  // namespace

std::string toCsvString(const ExplorationResult& result) {
  // One buffer sized for the longest rows; to_chars is locale-blind, so
  // no stream or locale guard is involved.
  const std::string workload = csvEscape(result.workload);
  std::string out;
  out.reserve(std::char_traits<char>::length(kHeader) + 1 +
              result.points.size() * (workload.size() + kMaxRowTail));
  out += kHeader;
  out += '\n';
  for (const DesignPoint& p : result.points) {
    out += workload;
    for (const std::uint64_t v :
         {std::uint64_t{p.key.cacheBytes}, std::uint64_t{p.key.lineBytes},
          std::uint64_t{p.key.associativity}, std::uint64_t{p.key.tiling},
          p.accesses}) {
      out += ',';
      appendUnsigned(out, v);
    }
    for (const double v : {p.missRate, p.cycles, p.energyNj}) {
      out += ',';
      appendDouble17(out, v);
    }
    out += '\n';
  }
  return out;
}

void writeResultCsv(std::ostream& os, const ExplorationResult& result) {
  const std::string csv = toCsvString(result);
  os.write(csv.data(), static_cast<std::streamsize>(csv.size()));
}

ExplorationResult readResultCsv(std::istream& is) {
  std::string line;
  MEMX_EXPECTS(std::getline(is, line) && line == kHeader,
               "missing or wrong exploration-CSV header");
  ExplorationResult result;
  std::size_t lineNo = 1;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty()) continue;
    const std::vector<std::string> cells = splitCsvLine(line, lineNo);
    MEMX_EXPECTS(cells.size() == 9, "exploration-CSV row " +
                                        std::to_string(lineNo) +
                                        " has wrong column count");
    if (result.points.empty()) result.workload = cells[0];
    MEMX_EXPECTS(cells[0] == result.workload,
                 "exploration-CSV row " + std::to_string(lineNo) +
                     " has workload \"" + cells[0] + "\", not \"" +
                     result.workload + "\" like the first row");
    DesignPoint p;
    constexpr std::uint64_t kU32 = 0xffffffffull;
    constexpr std::uint64_t kU64 = ~0ull;
    p.key.cacheBytes = static_cast<std::uint32_t>(
        parseUnsigned(cells[1], kU32, lineNo, "cache"));
    p.key.lineBytes = static_cast<std::uint32_t>(
        parseUnsigned(cells[2], kU32, lineNo, "line"));
    p.key.associativity = static_cast<std::uint32_t>(
        parseUnsigned(cells[3], kU32, lineNo, "assoc"));
    p.key.tiling = static_cast<std::uint32_t>(
        parseUnsigned(cells[4], kU32, lineNo, "tiling"));
    p.accesses = parseUnsigned(cells[5], kU64, lineNo, "accesses");
    p.missRate = parseDouble(cells[6], lineNo, "miss_rate");
    p.cycles = parseDouble(cells[7], lineNo, "cycles");
    p.energyNj = parseDouble(cells[8], lineNo, "energy_nj");
    result.points.push_back(p);
  }
  return result;
}

std::string toJsonString(const ExplorationResult& result) {
  std::string out = "{\"workload\": \"";
  appendJsonEscaped(out, result.workload);
  out += "\", \"points\": [";
  const auto u = [&](const char* name, std::uint64_t v) {
    out += name;
    appendUnsigned(out, v);
  };
  const auto d = [&](const char* name, double v) {
    out += name;
    appendDouble17(out, v);
  };
  bool first = true;
  for (const DesignPoint& p : result.points) {
    if (!first) out += ", ";
    first = false;
    u("{\"cache\": ", p.key.cacheBytes);
    u(", \"line\": ", p.key.lineBytes);
    u(", \"assoc\": ", p.key.associativity);
    u(", \"tiling\": ", p.key.tiling);
    u(", \"accesses\": ", p.accesses);
    d(", \"miss_rate\": ", p.missRate);
    d(", \"cycles\": ", p.cycles);
    d(", \"energy_nj\": ", p.energyNj);
    out += '}';
  }
  out += "]}";
  return out;
}

void writeResultJson(std::ostream& os, const ExplorationResult& result) {
  const std::string json = toJsonString(result);
  os.write(json.data(), static_cast<std::streamsize>(json.size()));
}

ExplorationResult fromCsvString(const std::string& text) {
  std::istringstream is(text);
  return readResultCsv(is);
}

}  // namespace memx
