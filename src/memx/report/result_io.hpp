// Exploration-result serialization: CSV and a minimal JSON emitter.
//
// CSV round-trips (write + parse) so sweeps can be archived and diffed;
// JSON is write-only, for plotting pipelines.
#pragma once

#include <iosfwd>
#include <string>

#include "memx/core/explorer.hpp"

namespace memx {

/// Write `result` as CSV with the header
/// `workload,cache,line,assoc,tiling,accesses,miss_rate,cycles,energy_nj`.
/// Workload names containing commas, quotes or newlines are quoted
/// RFC-4180 style (inner quotes doubled) so the file round-trips.
void writeResultCsv(std::ostream& os, const ExplorationResult& result);

/// Parse the CSV produced by writeResultCsv, honoring quoted fields.
/// Throws memx::ContractViolation naming the offending line number on
/// malformed input (wrong header, bad quoting, wrong column count, a
/// workload differing from the first row's).
[[nodiscard]] ExplorationResult readResultCsv(std::istream& is);

/// Write `result` as a JSON object
/// `{"workload": ..., "points": [{...}, ...]}`.
void writeResultJson(std::ostream& os, const ExplorationResult& result);

/// String convenience wrappers.
[[nodiscard]] std::string toCsvString(const ExplorationResult& result);
[[nodiscard]] ExplorationResult fromCsvString(const std::string& text);
[[nodiscard]] std::string toJsonString(const ExplorationResult& result);

}  // namespace memx
