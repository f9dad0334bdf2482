#include "data/csv.h"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/stage.h"
#include "obs/trace.h"
#include "recovery/atomic_file.h"
#include "util/failpoint.h"

namespace divexp {
namespace {

// The bytes Trim strips: isspace in the "C" locale.
bool IsSpace(char ch) { return ch == ' ' || (ch >= '\t' && ch <= '\r'); }

bool IsDigit(char ch) { return ch >= '0' && ch <= '9'; }

std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

// Splits a CSV buffer the reader owns into records in one pass. Quoted
// fields are unescaped in place: dropping a quote or a bare '\r' only
// ever shrinks a field, so the write cursor never overtakes the read
// cursor and every field is a view into the buffer.
class RecordScanner {
 public:
  RecordScanner(char* data, size_t size, char delim)
      : p_(data), n_(size), delim_(delim) {}

  bool at_end() const { return pos_ == n_; }

  /// Consumes a '\n' at the cursor (a blank line between records).
  bool SkipBlankLine() {
    if (p_[pos_] != '\n') return false;
    ++pos_;
    return true;
  }

  /// Scans the record at the cursor, calling `on_field` with each
  /// trimmed field, and moves the cursor past the record's '\n'.
  /// `record` is the 1-based record number, used in error messages.
  /// Rejects embedded NUL bytes and unterminated quoted fields.
  template <typename OnField>
  Status Scan(size_t record, OnField&& on_field) {
    char* const p = p_;
    const size_t n = n_;
    size_t r = pos_;
    size_t start = r;  // the current field's first byte
    size_t w = r;      // write cursor; w < r once a byte was dropped
    for (;;) {
      const size_t run = PlainRun(r);
      if (w != r) std::memmove(p + w, p + r, run);
      r += run;
      w += run;
      if (r == n) break;
      const char ch = p[r++];
      if (ch == '\0') return NulByte(record);
      if (ch == '"') {
        for (;;) {
          while (r < n && p[r] != '"' && p[r] != '\0') p[w++] = p[r++];
          if (r == n) {
            return Status::InvalidArgument(
                "unterminated quoted field in CSV record " +
                std::to_string(record));
          }
          if (p[r] == '\0') return NulByte(record);
          if (r + 1 < n && p[r + 1] == '"') {
            p[w++] = '"';
            r += 2;
          } else {
            ++r;
            break;
          }
        }
      } else if (ch == delim_) {
        on_field(TrimView(std::string_view(p + start, w - start)));
        start = w = r;
      } else if (ch == '\n') {
        break;
      }
      // A bare '\r' is dropped; "\r\n" ends the record at the '\n'.
    }
    on_field(TrimView(std::string_view(p + start, w - start)));
    pos_ = r;
    return Status::OK();
  }

 private:
  static Status NulByte(size_t record) {
    return Status::InvalidArgument(
        "CSV record " + std::to_string(record) +
        " contains a NUL byte (binary or corrupt input?)");
  }

  // The number of bytes from `r` before the next delimiter, '\n',
  // '\r', '"' or NUL.
  size_t PlainRun(size_t r) const {
    size_t i = r;
    for (; i < n_; ++i) {
      const char ch = p_[i];
      if (ch == delim_ || ch == '\n' || ch == '\r' || ch == '"' ||
          ch == '\0') {
        break;
      }
    }
    return i - r;
  }

  char* p_;
  size_t n_;
  size_t pos_ = 0;
  char delim_;
};

// A plain decimal token `-?digits[.digits]`.
struct Decimal {
  bool negative = false;
  uint64_t mantissa = 0;  // the digits as one integer; wraps past 19
  size_t digits = 0;      // integer and fraction digits
  size_t fraction = 0;    // fraction digits
};

bool ReadDecimal(std::string_view v, Decimal* d) {
  size_t i = 0;
  d->negative = !v.empty() && v[0] == '-';
  if (d->negative) ++i;
  const size_t int_begin = i;
  for (; i < v.size() && IsDigit(v[i]); ++i) {
    d->mantissa = d->mantissa * 10 + static_cast<uint64_t>(v[i] - '0');
  }
  if (i == int_begin) return false;
  if (i < v.size()) {
    if (v[i] != '.') return false;
    const size_t frac_begin = ++i;
    for (; i < v.size() && IsDigit(v[i]); ++i) {
      d->mantissa = d->mantissa * 10 + static_cast<uint64_t>(v[i] - '0');
    }
    if (i == frac_begin || i < v.size()) return false;
    d->fraction = i - frac_begin;
  }
  d->digits = i - int_begin - (d->fraction > 0 ? 1 : 0);
  return true;
}

// An integer of at most 18 digits cannot overflow an int64.
constexpr size_t kMaxExactIntDigits = 18;
// A decimal of at most 15 digits is an exact double mantissa (< 2^53)
// over an exact power of ten, so one correctly rounded division gives
// the correctly rounded value, which is what strtod returns.
constexpr size_t kMaxExactDoubleDigits = 15;
constexpr double kPow10[kMaxExactDoubleDigits + 1] = {
    1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
    1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
static_assert(FLT_EVAL_METHOD == 0,
              "the exact decimal path needs double-precision arithmetic");

// Both parsers take a non-empty `v`. Plain decimals short enough to be
// exact are read directly; every other token goes through strtoll or
// strtod, so the accepted grammar and every value are theirs.
bool ParseInt(std::string_view v, int64_t* out) {
  Decimal d;
  if (ReadDecimal(v, &d)) {
    if (d.fraction > 0) return false;  // strtoll would stop at the '.'
    if (d.digits <= kMaxExactIntDigits) {
      const auto m = static_cast<int64_t>(d.mantissa);
      *out = d.negative ? -m : m;
      return true;
    }
  }
  const std::string s(v);
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = x;
  return true;
}

bool ParseDouble(std::string_view v, double* out) {
  Decimal d;
  if (ReadDecimal(v, &d) && d.digits <= kMaxExactDoubleDigits) {
    const double x = static_cast<double>(d.mantissa) / kPow10[d.fraction];
    *out = d.negative ? -x : x;
    return true;
  }
  const std::string s(v);
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = x;
  return true;
}

// Types a column from its trimmed, NA-mapped values ("" is missing):
// int64 if every value is an integer and none is missing, double if
// every present value is a number, text otherwise.
Column MakeTypedColumn(std::string name,
                       std::span<const std::string_view> values,
                       bool as_categorical) {
  bool numeric = true;
  bool has_missing = false;
  {
    std::vector<int64_t> ints;
    ints.reserve(values.size());
    for (size_t i = 0; i < values.size() && numeric; ++i) {
      int64_t x = 0;
      if (values[i].empty()) {
        has_missing = true;
      } else {
        numeric = ParseInt(values[i], &x);
      }
      ints.push_back(x);
    }
    if (numeric && !has_missing) {
      return Column::MakeInt(std::move(name), std::move(ints));
    }
  }
  {
    std::vector<double> doubles;
    doubles.reserve(values.size());
    numeric = true;
    for (size_t i = 0; i < values.size() && numeric; ++i) {
      double x = std::numeric_limits<double>::quiet_NaN();
      if (!values[i].empty()) numeric = ParseDouble(values[i], &x);
      doubles.push_back(x);
    }
    if (numeric) {
      return Column::MakeDouble(std::move(name), std::move(doubles));
    }
  }

  if (!as_categorical) {
    return Column::MakeString(
        std::move(name),
        std::vector<std::string>(values.begin(), values.end()));
  }
  return Column::CategoricalFromStrings(std::move(name), values);
}

// Parses the CSV text in [data, data + size), which it unescapes in
// place.
Result<DataFrame> ParseCsv(char* data, size_t size,
                           const CsvOptions& options) {
  if (size == 0) return Status::InvalidArgument("empty CSV input");
  RecordScanner scanner(data, size, options.delimiter);
  std::vector<std::string> names;
  DIVEXP_RETURN_NOT_OK(scanner.Scan(
      1, [&](std::string_view field) { names.emplace_back(field); }));
  const size_t ncols = names.size();

  // Every record but the last ends at a '\n', and a kept record holds
  // ncols - 1 delimiter bytes, so both counts bound the rows. The views
  // take one block, at most about two per input byte; column c holds
  // [c * max_rows, c * max_rows + rows).
  size_t max_rows = 1;
  const std::string_view text(data, size);
  for (size_t i = text.find('\n'); i != std::string_view::npos;
       i = text.find('\n', i + 1)) {
    ++max_rows;
  }
  if (ncols > 1) max_rows = std::min(max_rows, size / (ncols - 1));
  std::vector<std::string_view> views(ncols * max_rows);
  size_t rows = 0;
  size_t na_max = 0;
  for (const std::string& na : options.na_values) {
    na_max = std::max(na_max, na.size());
  }

  size_t record = 1;
  while (!scanner.at_end()) {
    if (scanner.SkipBlankLine()) continue;
    ++record;
    size_t fields = 0;
    bool blank = false;
    DIVEXP_RETURN_NOT_OK(scanner.Scan(record, [&](std::string_view v) {
      if (fields == 0) blank = v.empty();
      if (fields < ncols) {
        // Only a field no longer than the longest NA token can be one.
        if (v.size() <= na_max &&
            std::find(options.na_values.begin(), options.na_values.end(),
                      v) != options.na_values.end()) {
          v = {};
        }
        views[fields * max_rows + rows] = v;
      }
      ++fields;
    }));
    // A line of only whitespace is skipped, not read as a record.
    if (fields == 1 && blank) continue;
    if (fields != ncols) {
      return Status::InvalidArgument(
          "CSV record " + std::to_string(record) + " has " +
          std::to_string(fields) + " fields, expected " +
          std::to_string(ncols));
    }
    ++rows;
  }

  DataFrame df;
  for (size_t c = 0; c < ncols; ++c) {
    DIVEXP_RETURN_NOT_OK(df.AddColumn(MakeTypedColumn(
        std::move(names[c]),
        std::span<const std::string_view>(views.data() + c * max_rows, rows),
        options.strings_as_categorical)));
  }
  return df;
}

bool NeedsQuoting(const std::string& s, char delim) {
  // The reader drops an unquoted '\r', so a value holding one is quoted.
  return s.find(delim) != std::string::npos ||
         s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos ||
         s.find('\r') != std::string::npos;
}

std::string QuoteField(const std::string& s, char delim) {
  if (!NeedsQuoting(s, delim)) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

Result<DataFrame> ReadCsvString(const std::string& text,
                                const CsvOptions& options) {
  std::string buf = text;
  return ParseCsv(buf.data(), buf.size(), options);
}

Result<DataFrame> ReadCsvFile(const std::string& path,
                              const CsvOptions& options) {
  obs::ScopedSpan span(obs::kStageCsvLoad);
  Result<std::string> bytes = recovery::ReadFileToString(path);
  // A file that cannot be opened is an IOError to CSV callers.
  if (bytes.status().code() == StatusCode::kNotFound) {
    return Status::IOError(bytes.status().message());
  }
  DIVEXP_RETURN_NOT_OK(bytes.status());
  return ParseCsv(bytes->data(), bytes->size(), options);
}

std::string WriteCsvString(const DataFrame& df, const CsvOptions& options) {
  std::ostringstream os;
  for (size_t c = 0; c < df.num_columns(); ++c) {
    if (c) os << options.delimiter;
    os << QuoteField(df.GetAt(c).name(), options.delimiter);
  }
  os << "\n";
  for (size_t r = 0; r < df.num_rows(); ++r) {
    for (size_t c = 0; c < df.num_columns(); ++c) {
      if (c) os << options.delimiter;
      os << QuoteField(df.GetAt(c).ValueString(r), options.delimiter);
    }
    os << "\n";
  }
  return os.str();
}

Status WriteCsvFile(const DataFrame& df, const std::string& path,
                    const CsvOptions& options) {
  DIVEXP_FAILPOINT_STATUS("io.csv.write");
  // Atomic replace: a crash mid-write never leaves a torn CSV.
  return recovery::WriteFileAtomic(path, WriteCsvString(df, options));
}

}  // namespace divexp
