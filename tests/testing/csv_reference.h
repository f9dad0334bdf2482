// From-definition CSV reader for the differential CSV tests: a record
// is split character by character into owned strings, every field is
// trimmed and NA-mapped, and each column is typed by trying strtoll on
// every value, then strtod, then falling back to text. The library's
// ReadCsvString must return the same Status (code and message) or an
// equal DataFrame on every input.
#ifndef DIVEXP_TESTS_TESTING_CSV_REFERENCE_H_
#define DIVEXP_TESTS_TESTING_CSV_REFERENCE_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/csv.h"
#include "data/dataframe.h"
#include "util/status.h"
#include "util/string_util.h"

namespace divexp {
namespace testing {
namespace csv_reference_internal {

// Splits one CSV record honoring double-quote escaping. `pos` is
// advanced past the record's trailing newline. `record` is the 1-based
// record number, used in error messages. Rejects malformed input
// (embedded NUL bytes, unterminated quoted fields) instead of silently
// producing garbage rows.
inline Result<std::vector<std::string>> ParseRecord(const std::string& text,
                                                    size_t* pos, char delim,
                                                    size_t record) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    const char ch = text[i];
    if (ch == '\0') {
      return Status::InvalidArgument(
          "CSV record " + std::to_string(record) +
          " contains a NUL byte (binary or corrupt input?)");
    }
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == delim) {
      fields.push_back(std::move(field));
      field.clear();
    } else if (ch == '\n') {
      ++i;
      break;
    } else if (ch == '\r') {
      // swallow; \r\n handled by the \n branch
    } else {
      field += ch;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        "unterminated quoted field in CSV record " +
        std::to_string(record));
  }
  fields.push_back(std::move(field));
  *pos = i;
  return fields;
}

inline bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

inline bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace csv_reference_internal

/// The reference reader; same contract as ReadCsvString.
inline Result<DataFrame> ReferenceReadCsvString(
    const std::string& text, const CsvOptions& options = {}) {
  using csv_reference_internal::ParseDouble;
  using csv_reference_internal::ParseInt;
  using csv_reference_internal::ParseRecord;
  size_t pos = 0;
  if (text.empty()) return Status::InvalidArgument("empty CSV input");
  size_t record = 1;
  DIVEXP_ASSIGN_OR_RETURN(
      const std::vector<std::string> header,
      ParseRecord(text, &pos, options.delimiter, record));
  const size_t ncols = header.size();

  std::vector<std::vector<std::string>> raw(ncols);
  while (pos < text.size()) {
    // Skip blank lines (e.g. trailing newline).
    if (text[pos] == '\n') {
      ++pos;
      continue;
    }
    ++record;
    DIVEXP_ASSIGN_OR_RETURN(
        std::vector<std::string> rec,
        ParseRecord(text, &pos, options.delimiter, record));
    if (rec.size() == 1 && Trim(rec[0]).empty()) continue;
    if (rec.size() != ncols) {
      return Status::InvalidArgument(
          "CSV record " + std::to_string(record) + " has " +
          std::to_string(rec.size()) + " fields, expected " +
          std::to_string(ncols));
    }
    for (size_t c = 0; c < ncols; ++c) {
      std::string v = Trim(rec[c]);
      for (const std::string& na : options.na_values) {
        if (v == na) {
          v.clear();
          break;
        }
      }
      raw[c].push_back(std::move(v));
    }
  }

  DataFrame df;
  for (size_t c = 0; c < ncols; ++c) {
    const std::string name = Trim(header[c]);
    bool all_int = true;
    bool all_double = true;
    for (const std::string& v : raw[c]) {
      if (v.empty()) continue;
      int64_t iv;
      double dv;
      if (!ParseInt(v, &iv)) all_int = false;
      if (!ParseDouble(v, &dv)) {
        all_double = false;
        break;
      }
    }
    const bool has_missing =
        std::any_of(raw[c].begin(), raw[c].end(),
                    [](const std::string& v) { return v.empty(); });
    if (all_int && !has_missing) {
      std::vector<int64_t> vals;
      vals.reserve(raw[c].size());
      for (const std::string& v : raw[c]) {
        int64_t iv = 0;
        ParseInt(v, &iv);
        vals.push_back(iv);
      }
      DIVEXP_RETURN_NOT_OK(df.AddColumn(Column::MakeInt(name, vals)));
    } else if (all_double) {
      std::vector<double> vals;
      vals.reserve(raw[c].size());
      for (const std::string& v : raw[c]) {
        double dv = std::nan("");
        if (!v.empty()) ParseDouble(v, &dv);
        vals.push_back(dv);
      }
      DIVEXP_RETURN_NOT_OK(df.AddColumn(Column::MakeDouble(name, vals)));
    } else if (options.strings_as_categorical) {
      // Dictionary-encodes in first-appearance order ("" is missing).
      std::vector<int32_t> codes;
      std::vector<std::string> categories;
      std::unordered_map<std::string, int32_t> index;
      for (const std::string& v : raw[c]) {
        if (v.empty()) {
          codes.push_back(-1);
          continue;
        }
        auto [it, inserted] =
            index.emplace(v, static_cast<int32_t>(categories.size()));
        if (inserted) categories.push_back(v);
        codes.push_back(it->second);
      }
      DIVEXP_RETURN_NOT_OK(df.AddColumn(Column::MakeCategorical(
          name, std::move(codes), std::move(categories))));
    } else {
      DIVEXP_RETURN_NOT_OK(df.AddColumn(Column::MakeString(name, raw[c])));
    }
  }
  return df;
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_CSV_REFERENCE_H_
