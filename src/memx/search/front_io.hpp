// CSV serialization for Pareto fronts.
//
// The golden-front corpus under tests/golden/ stores fronts in this
// format, and `memx_cli --search --csv` emits it. Doubles round-trip
// exactly (printed with %.17g), so a re-read front compares bit for
// bit against the in-memory one — which is what the golden tests rely
// on for their per-point delta reporting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "memx/search/nsga.hpp"

namespace memx::search {

/// One parsed front row. Mirrors SearchPoint but carries only what the
/// CSV stores (no genome indices: those are space-relative).
struct FrontRow {
  std::string workload;
  std::uint32_t cacheBytes = 0;
  std::uint32_t lineBytes = 0;
  std::uint32_t associativity = 0;
  std::uint32_t tiling = 0;
  std::string replacement;
  std::string writePolicy;
  std::string layout;       ///< "opt" or "tight"
  std::uint32_t l2Bytes = 0;  ///< 0 = single-level
  Objectives objectives{};    ///< {energy nJ, cycles, size RBE}
};

/// The exact header line written by writeFrontCsv.
[[nodiscard]] const std::string& frontCsvHeader();

/// Convert a search point to its CSV row form.
[[nodiscard]] FrontRow toFrontRow(const std::string& workload,
                                  const SearchPoint& point);

/// Write `rows` as CSV (header + one line per row, doubles as %.17g).
/// A workload containing a comma, quote or newline is quoted RFC-4180
/// style, as in the exploration CSV, so a kernel file's path round-trips.
void writeFrontCsv(std::ostream& out, const std::vector<FrontRow>& rows);

/// Parse a front CSV produced by writeFrontCsv. Throws
/// std::runtime_error naming the offending line and column on any
/// malformed input (wrong header, bad quoting, field count, or
/// unparsable number).
[[nodiscard]] std::vector<FrontRow> readFrontCsv(std::istream& in);

}  // namespace memx::search
