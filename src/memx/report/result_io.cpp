#include "memx/report/result_io.hpp"

#include <cmath>
#include <iomanip>
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

void writeResultCsv(std::ostream& os, const ExplorationResult& result) {
  // Full round-trip fidelity for the floating-point fields; the classic
  // locale pins '.' decimals and no grouping under any global locale.
  const ClassicLocaleGuard locale(os);
  os << std::setprecision(17);
  os << kHeader << '\n';
  for (const DesignPoint& p : result.points) {
    os << csvEscape(result.workload) << ',' << p.key.cacheBytes << ','
       << p.key.lineBytes << ',' << p.key.associativity << ','
       << p.key.tiling << ',' << p.accesses << ',' << p.missRate << ','
       << p.cycles << ',' << p.energyNj << '\n';
  }
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

void writeResultJson(std::ostream& os, const ExplorationResult& result) {
  const ClassicLocaleGuard locale(os);
  os << std::setprecision(17);
  os << "{\"workload\": \"" << jsonEscape(result.workload)
     << "\", \"points\": [";
  bool first = true;
  for (const DesignPoint& p : result.points) {
    if (!first) os << ", ";
    first = false;
    os << "{\"cache\": " << p.key.cacheBytes
       << ", \"line\": " << p.key.lineBytes
       << ", \"assoc\": " << p.key.associativity
       << ", \"tiling\": " << p.key.tiling
       << ", \"accesses\": " << p.accesses
       << ", \"miss_rate\": " << p.missRate
       << ", \"cycles\": " << p.cycles
       << ", \"energy_nj\": " << p.energyNj << "}";
  }
  os << "]}";
}

std::string toCsvString(const ExplorationResult& result) {
  std::ostringstream os;
  writeResultCsv(os, result);
  return os.str();
}

ExplorationResult fromCsvString(const std::string& text) {
  std::istringstream is(text);
  return readResultCsv(is);
}

std::string toJsonString(const ExplorationResult& result) {
  std::ostringstream os;
  writeResultJson(os, result);
  return os.str();
}

}  // namespace memx
