#include "memx/util/csv_field.hpp"

#include <utility>

namespace memx {

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

CsvFields splitCsvLine(const std::string& line) {
  CsvFields split;
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
      if (!cell.empty() || cellWasQuoted) {
        split.error = "quote inside an unquoted field";
        return split;
      }
      quoted = true;
      cellWasQuoted = true;
    } else if (c == ',') {
      split.fields.push_back(std::move(cell));
      cell.clear();
      cellWasQuoted = false;
    } else {
      if (cellWasQuoted) {
        split.error = "content after a closing quote";
        return split;
      }
      cell += c;
    }
  }
  if (quoted) {
    split.error = "unterminated quoted field";
    return split;
  }
  split.fields.push_back(std::move(cell));
  return split;
}

}  // namespace memx
