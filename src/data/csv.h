// CSV reader/writer with per-column type inference, used to load
// audited tables and to persist synthetic datasets.
//
// The grammar the reader accepts:
//
// - Records end at '\n'; a bare '\r' outside quotes is dropped anywhere
//   in a record, so "\r\n" line endings work. Fields are split at the
//   delimiter. The first record is the header.
// - A '"' outside quotes starts a quoted section and the next lone '"'
//   ends it; it may begin or end mid-field. Inside one, the delimiter,
//   '\n' and '\r' are literal and '""' is one '"'. A quote still open
//   at the end of input, or a NUL byte anywhere, is an InvalidArgument
//   error naming the 1-based record.
// - Every field, quoted parts included, is trimmed of leading and
//   trailing ASCII whitespace (' ', \t, \n, \v, \f, \r). A trimmed
//   field equal to one of `na_values` (quoted or not), or empty, is
//   missing. Header names are trimmed too; an empty or repeated name
//   fails the read.
// - Lines that are empty, or whose only field is blank, are skipped.
//   Every other record must have as many fields as the header, or the
//   read fails naming the record.
// - Column types: int64 when every value parses fully with strtoll
//   (base 10, so "+5" counts; no ERANGE) and none is missing; else
//   double when every present value parses fully with strtod (so hex
//   floats, "inf" and "NaN" count, and ERANGE, e.g. "1e400" or
//   "1e-310", does not), with missing values as NaN; else categorical,
//   dictionary-encoded in first-appearance order, or a string column
//   when `strings_as_categorical` is false. Integers with a missing
//   value thus make a double column.
#ifndef DIVEXP_DATA_CSV_H_
#define DIVEXP_DATA_CSV_H_

#include <string>

#include "data/dataframe.h"
#include "util/status.h"

namespace divexp {

struct CsvOptions {
  char delimiter = ',';
  /// Field values treated as missing (besides the empty string).
  std::vector<std::string> na_values = {"?", "NA", "nan"};
  /// If true, non-numeric columns become dictionary-encoded categorical
  /// columns instead of raw string columns.
  bool strings_as_categorical = true;
};

/// Parses CSV text (with a header row) into a DataFrame; see the
/// grammar above.
Result<DataFrame> ReadCsvString(const std::string& text,
                                const CsvOptions& options = {});

/// Reads a CSV file (or a pipe) from disk. IOError when it cannot be
/// opened; a file that yields no bytes, a directory included, is an
/// empty input.
Result<DataFrame> ReadCsvFile(const std::string& path,
                              const CsvOptions& options = {});

/// Serializes a DataFrame to CSV text (header included; values quoted
/// when they contain the delimiter, a quote, '\n' or '\r').
std::string WriteCsvString(const DataFrame& df,
                           const CsvOptions& options = {});

/// Writes a DataFrame to a CSV file.
Status WriteCsvFile(const DataFrame& df, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace divexp

#endif  // DIVEXP_DATA_CSV_H_
