// The CSV field codec for every CSV memx writes and reads (sweep results
// and search fronts): one quoting rule for free-text fields and one
// splitter that honors it, so a workload name that is a file path with a
// comma in it round-trips through either format.
#pragma once

#include <string>
#include <vector>

namespace memx {

/// `field` as one CSV field: RFC-4180-style, a field containing a comma,
/// quote or newline is wrapped in quotes with inner quotes doubled; any
/// other field is returned unchanged.
[[nodiscard]] std::string csvEscape(const std::string& field);

/// One CSV line split into fields, or what is wrong with its quoting.
struct CsvFields {
  std::vector<std::string> fields;
  std::string error;  ///< empty when the line split cleanly
};

/// Split one CSV line honoring quoted fields ("" inside quotes is a
/// literal quote). A quote opening mid-field, content after a closing
/// quote or an unterminated quoted field sets `error`; each reader
/// reports it with its own exception type and line number.
[[nodiscard]] CsvFields splitCsvLine(const std::string& line);

}  // namespace memx
