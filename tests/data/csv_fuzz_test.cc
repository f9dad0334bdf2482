// Robustness and differential fuzzing for the CSV parser. Random byte
// soup and structured-but-hostile inputs must never crash, and every
// input must give the same Status (code and message) or an equal
// DataFrame from ReadCsvString and the from-definition reference
// reader in testing/csv_reference.h. Grammar-pinning cases fix the
// accepted number grammar, trimming and line handling; the round-trip
// property covers the writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "data/csv.h"
#include "testing/csv_reference.h"
#include "util/random.h"

namespace divexp {
namespace {

void ExpectSameColumn(const Column& a, const Column& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.type(), b.type()) << "column '" << a.name() << "'";
  ASSERT_EQ(a.size(), b.size());
  switch (a.type()) {
    case ColumnType::kInt:
      EXPECT_EQ(a.ints(), b.ints());
      break;
    case ColumnType::kDouble:
      // Bit patterns, so -0.0 and NaN payloads count too.
      for (size_t i = 0; i < a.size(); ++i) {
        uint64_t x;
        uint64_t y;
        std::memcpy(&x, &a.doubles()[i], sizeof x);
        std::memcpy(&y, &b.doubles()[i], sizeof y);
        EXPECT_EQ(x, y) << "row " << i << " of '" << a.name() << "'";
      }
      break;
    case ColumnType::kString:
      EXPECT_EQ(a.strings(), b.strings());
      break;
    case ColumnType::kCategorical:
      EXPECT_EQ(a.categories(), b.categories());
      EXPECT_EQ(a.codes(), b.codes());
      break;
  }
}

// Both readers must agree on `text`: the same error, or the same table.
void ExpectMatchesReference(const std::string& text,
                            const CsvOptions& options = {}) {
  SCOPED_TRACE(::testing::Message() << "input: \"" << text << "\"");
  const Result<DataFrame> got = ReadCsvString(text, options);
  const Result<DataFrame> want =
      testing::ReferenceReadCsvString(text, options);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got->num_columns(), want->num_columns());
  ASSERT_EQ(got->num_rows(), want->num_rows());
  for (size_t c = 0; c < got->num_columns(); ++c) {
    ExpectSameColumn(got->GetAt(c), want->GetAt(c));
  }
}

std::vector<CsvOptions> OptionVariants() {
  std::vector<CsvOptions> variants(4);
  variants[1].strings_as_categorical = false;
  variants[2].delimiter = ';';
  variants[2].na_values = {"", "n/a", " ?"};
  variants[3].delimiter = '\t';
  variants[3].na_values.clear();
  return variants;
}

TEST(CsvFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(2024);
  const std::string alphabet = "abcXYZ019 ,\"\n\r\t.;|?-+eExpinfNA";
  const std::vector<CsvOptions> variants = OptionVariants();
  for (int trial = 0; trial < 1200; ++trial) {
    std::string text;
    const size_t len = rng.Below(400);
    for (size_t i = 0; i < len; ++i) {
      text += rng.Below(200) == 0 ? '\0'
                                  : alphabet[rng.Below(alphabet.size())];
    }
    const CsvOptions& options = variants[trial % variants.size()];
    ExpectMatchesReference(text, options);
    auto result = ReadCsvString(text, options);
    if (result.ok()) {
      // Parsed tables must be internally consistent.
      for (size_t c = 0; c < result->num_columns(); ++c) {
        EXPECT_EQ(result->GetAt(c).size(), result->num_rows());
      }
    }
  }
}

// `-?digits[.digits]` with 1 to 20 digits, leading zeros included:
// both sides of the reader's exact-decimal limits.
std::string RandomDecimal(Rng* rng) {
  std::string s = rng->Below(2) ? "-" : "";
  const size_t digits = 1 + rng->Below(20);
  const size_t point = rng->Below(digits + 1);  // == digits: no fraction
  for (size_t i = 0; i < digits; ++i) {
    if (i == point && i > 0) s += '.';
    s += static_cast<char>('0' + rng->Below(10));
  }
  return s;
}

// Tables of well-formed records built from tokens that probe the type
// rules: every number form strtoll/strtod accept or reject, NA tokens,
// quoting, padding and stray '\r'. Most of these parse, so the typed
// columns are compared, not just the errors.
TEST(CsvFuzzTest, RandomTokenTablesMatchReference) {
  const std::vector<std::string> tokens = {
      "0", "-0", "+5", "007", "42", "-17", "  42  ", "\" 7 \"",
      "123456789012345678", "1234567890123456789", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "1.5", "-0.0", ".5", "5.", "-.5", "1e5",
      "1E-5", "0x1p3", "0x10", "1e-310", "1e400", "inf", "-inf", "INF",
      "infinity", "NaN", "nan", "nan(12)", "NA", "?", "\"NA\"", "", " ",
      "abc", "\"q\"\"x\"", "\"a;b,c\"", "\"\"", "1\r2", "4 2", "1_000",
      "0.000000000000000001", "0.0000000000000000001",
      "123456789.123456789", "3.14159265358979323846", "1.",
      "0.1234567", "99999999999999999.9", "-", "--1", "1-", "1.2.3"};
  const std::vector<CsvOptions> variants = OptionVariants();
  Rng rng(77);
  for (int trial = 0; trial < 600; ++trial) {
    const CsvOptions& options = variants[trial % variants.size()];
    const size_t ncols = 1 + rng.Below(4);
    const size_t nrows = rng.Below(12);
    // Each column draws from a few tokens, so many columns stay typed.
    std::vector<std::vector<std::string>> pools(ncols);
    for (auto& pool : pools) {
      const size_t k = 1 + rng.Below(3);
      for (size_t i = 0; i < k; ++i) {
        pool.push_back(rng.Below(3) == 0 ? RandomDecimal(&rng)
                                         : tokens[rng.Below(tokens.size())]);
      }
    }
    std::string text;
    for (size_t c = 0; c < ncols; ++c) {
      if (c) text += options.delimiter;
      text += 'c';
      text += std::to_string(c);
    }
    text += rng.Below(2) ? "\r\n" : "\n";
    for (size_t r = 0; r < nrows; ++r) {
      for (size_t c = 0; c < ncols; ++c) {
        if (c) text += options.delimiter;
        text += pools[c][rng.Below(pools[c].size())];
      }
      text += rng.Below(4) ? "\n" : "\r\n";
      if (rng.Below(8) == 0) text += "\n";
    }
    ExpectMatchesReference(text, options);
  }
}

TEST(CsvFuzzTest, HostileStructuredInputs) {
  const char* inputs[] = {
      "\n",
      "\n\n\n",
      ",",
      ",,,\n,,,\n",
      "\"",
      "a,b\n\"unterminated,1\n",
      "a,b\n\"\"\"\",2\n",
      "a\n" "999999999999999999999999999\n",
      "a\n-\n",
      "a\n1e400\n",      // double overflow
      "a\nnan\n",        // NA token
      "x,y\r\n\"a\r\nb\",2\r\n",  // newline inside quotes
      "a,a\n1,2\n",      // duplicate column name
      " a , b \n1,2\n",
      "a\n\"x\"y\"z\"\n",  // quotes toggle mid-field
      "a,b\n1,2\n3,4,\n",
      "a,b\n1,2\r\n\r\n \t\n3,4",
      "\"a\nb\",c\n1,2\n",
      "a\n\r\n\r\n",
      "a\n?\n",
      "a\n \"\" \n",
  };
  for (const char* text : inputs) {
    for (const CsvOptions& options : OptionVariants()) {
      ExpectMatchesReference(text, options);
    }
  }
  ExpectMatchesReference(std::string("a,b\n1,\"x\0y\"\n", 12));
  ExpectMatchesReference(std::string("a\n\"x\n", 5));

  // A wide header over many blank lines: rows are bounded by the
  // delimiters too, not by columns x lines.
  std::string wide_over_blank = "c0";
  for (int c = 1; c < 30000; ++c) {
    wide_over_blank += ",c";
    wide_over_blank += std::to_string(c);
  }
  wide_over_blank += std::string(30000, '\n');
  ExpectMatchesReference(wide_over_blank);
}

// The accepted grammar, value by value. Every case holds for both the
// reference and the library reader.

Result<DataFrame> ReadPinned(const std::string& text) {
  ExpectMatchesReference(text);
  return ReadCsvString(text);
}

TEST(CsvGrammarTest, NumberForms) {
  auto plus = ReadPinned("a\n+5\n");
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ(plus->Get("a").ints(), std::vector<int64_t>{5});

  auto hex = ReadPinned("a\n0x1p3\n");
  ASSERT_TRUE(hex.ok());
  ASSERT_EQ(hex->Get("a").type(), ColumnType::kDouble);
  EXPECT_EQ(hex->Get("a").doubles()[0], 8.0);

  auto inf = ReadPinned("a\ninf\n1.5\n");
  ASSERT_TRUE(inf.ok());
  ASSERT_EQ(inf->Get("a").type(), ColumnType::kDouble);
  EXPECT_EQ(inf->Get("a").doubles()[0],
            std::numeric_limits<double>::infinity());
}

TEST(CsvGrammarTest, OutOfRangeDoublesAreText) {
  // strtod reports ERANGE for a subnormal result and for an overflow.
  for (const char* value : {"1e-310", "1e400"}) {
    auto df = ReadPinned(std::string("a\n") + value + "\n");
    ASSERT_TRUE(df.ok());
    EXPECT_EQ(df->Get("a").type(), ColumnType::kCategorical) << value;
    EXPECT_EQ(df->Get("a").ValueString(0), value);
  }
}

TEST(CsvGrammarTest, Int64OverflowMakesADoubleColumn) {
  auto df = ReadPinned("a\n1\n9223372036854775808\n");
  ASSERT_TRUE(df.ok());
  ASSERT_EQ(df->Get("a").type(), ColumnType::kDouble);
  EXPECT_EQ(df->Get("a").doubles()[1], 9223372036854775808.0);

  auto min = ReadPinned("a\n-9223372036854775808\n");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->Get("a").ints()[0], std::numeric_limits<int64_t>::min());
}

TEST(CsvGrammarTest, IntsWithAMissingValueMakeADoubleColumn) {
  auto df = ReadPinned("a\n1\n?\n-0\n");
  ASSERT_TRUE(df.ok());
  const Column& a = df->Get("a");
  ASSERT_EQ(a.type(), ColumnType::kDouble);
  EXPECT_EQ(a.doubles()[0], 1.0);
  EXPECT_TRUE(std::isnan(a.doubles()[1]));
  EXPECT_TRUE(std::signbit(a.doubles()[2]));  // "-0" read by strtod
}

TEST(CsvGrammarTest, WhitespaceInsideQuotesIsTrimmed) {
  auto df = ReadPinned("a,b\n\"  x \",\" 3\t\"\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->Get("a").ValueString(0), "x");
  EXPECT_EQ(df->Get("b").ints(), std::vector<int64_t>{3});
}

TEST(CsvGrammarTest, BareCarriageReturnMidFieldIsDropped) {
  auto df = ReadPinned("a\nx\ry\n1\r2\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->Get("a").ValueString(0), "xy");
  EXPECT_EQ(df->Get("a").ValueString(1), "12");
}

TEST(CsvGrammarTest, NaTokenInsideQuotesIsMissing) {
  auto df = ReadPinned("a,b\n\"NA\",1\n\" ? \",2\nz,3\n");
  ASSERT_TRUE(df.ok());
  EXPECT_TRUE(df->Get("a").IsMissing(0));
  EXPECT_TRUE(df->Get("a").IsMissing(1));
  EXPECT_EQ(df->Get("a").ValueString(2), "z");
}

TEST(CsvGrammarTest, LineEndingsAndBlankLines) {
  auto crlf = ReadPinned("a,b\r\n1,x\r\n2,y\r\n");
  ASSERT_TRUE(crlf.ok());
  EXPECT_EQ(crlf->num_rows(), 2u);
  EXPECT_EQ(crlf->Get("b").ValueString(1), "y");

  // Empty and whitespace-only lines are skipped, not read as records.
  auto blank = ReadPinned("a,b\n1,2\n\n   \n\t\r\n3,4\n");
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(blank->num_rows(), 2u);
  EXPECT_EQ(blank->Get("b").ints(), (std::vector<int64_t>{2, 4}));
}

TEST(CsvGrammarTest, TrailingDelimiterAddsAnEmptyField) {
  // In the header the extra field is a column without a name.
  auto header = ReadPinned("a,b,\n1,2,\n");
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().message(), "column must have a name");
  // In a record it is one field too many.
  auto record = ReadPinned("a,b\n1,2\n3,4,\n");
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().message(),
            "CSV record 3 has 3 fields, expected 2");
}

// Seeded random DataFrames for the writer round trip: int columns,
// double columns with NaN cells, and categorical columns whose values
// hold quotes, delimiters, newlines and '\r'. Categorical values never
// look numeric, never equal an NA token and never start or end with
// whitespace, and each double column holds a non-integral value, so
// a read gives back the written column types.
DataFrame RandomWritableFrame(Rng* rng) {
  const std::string alphabet = "ab,\"\n\r q;";
  DataFrame df;
  const size_t ncols = 2 + rng->Below(4);
  const size_t nrows = 1 + rng->Below(30);
  for (size_t c = 0; c < ncols; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    switch (rng->Below(3)) {
      case 0: {
        std::vector<int64_t> v(nrows);
        for (int64_t& x : v) {
          x = rng->Below(20) == 0 ? std::numeric_limits<int64_t>::min()
                                  : rng->Int(-100000, 100000);
        }
        EXPECT_TRUE(df.AddColumn(Column::MakeInt(name, v)).ok());
        break;
      }
      case 1: {
        std::vector<double> v(nrows);
        for (size_t r = 0; r < nrows; ++r) {
          v[r] = rng->Below(5) == 0 ? std::nan("")
                                    : std::round(rng->Uniform(-1e4, 1e4) *
                                                 1000) / 1000;
        }
        v[0] = static_cast<double>(rng->Int(-50, 50)) + 0.25;
        EXPECT_TRUE(df.AddColumn(Column::MakeDouble(name, v)).ok());
        break;
      }
      default: {
        std::vector<std::string> categories;
        const size_t k = 1 + rng->Below(4);
        while (categories.size() < k) {
          std::string s(1, "abq"[rng->Below(3)]);
          const size_t len = rng->Below(6);
          for (size_t i = 0; i < len; ++i) {
            s += alphabet[rng->Below(alphabet.size())];
          }
          if (s.back() == ' ' || s.back() == '\n' || s.back() == '\r') {
            s += 'b';
          }
          if (std::find(categories.begin(), categories.end(), s) ==
              categories.end()) {
            categories.push_back(s);
          }
        }
        std::vector<int32_t> codes(nrows);
        for (size_t r = 0; r < nrows; ++r) {
          codes[r] = rng->Below(6) == 0 && r > 0
                         ? -1
                         : static_cast<int32_t>(rng->Below(k));
        }
        EXPECT_TRUE(df.AddColumn(Column::MakeCategorical(name, codes,
                                                         categories))
                        .ok());
        break;
      }
    }
  }
  return df;
}

TEST(CsvRoundTripPropertyTest, WriteReadWriteIsStable) {
  Rng rng(4180);
  for (int trial = 0; trial < 300; ++trial) {
    const DataFrame df = RandomWritableFrame(&rng);
    CsvOptions options;
    if (trial % 3 == 1) options.delimiter = ';';
    const std::string text = WriteCsvString(df, options);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": " << text);
    auto back = ReadCsvString(text, options);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->num_columns(), df.num_columns());
    ASSERT_EQ(back->num_rows(), df.num_rows());
    for (size_t c = 0; c < df.num_columns(); ++c) {
      EXPECT_EQ(back->GetAt(c).type(), df.GetAt(c).type())
          << "column " << c;
    }
    EXPECT_EQ(WriteCsvString(*back, options), text);
  }
}

TEST(CsvRoundTripPropertyTest, CarriageReturnInValueRoundTrips) {
  DataFrame df;
  ASSERT_TRUE(df.AddColumn(Column::MakeCategorical(
                               "c", {0, 1}, {"a\rb", "plain"}))
                  .ok());
  auto back = ReadCsvString(WriteCsvString(df));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Get("c").ValueString(0), "a\rb");
}

TEST(CsvFuzzTest, EmbeddedNewlineInQuotesRoundTrips) {
  DataFrame df;
  ASSERT_TRUE(df.AddColumn(Column::MakeCategorical(
                               "c", {0, 1}, {"line1\nline2", "plain"}))
                  .ok());
  auto back = ReadCsvString(WriteCsvString(df));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->Get("c").ValueString(0), "line1\nline2");
}

TEST(CsvFuzzTest, VeryWideAndVeryTallTables) {
  // 200 columns.
  std::string wide = "c0";
  for (int c = 1; c < 200; ++c) wide += ",c" + std::to_string(c);
  wide += "\n";
  for (int r = 0; r < 3; ++r) {
    wide += "1";
    for (int c = 1; c < 200; ++c) wide += ",2";
    wide += "\n";
  }
  auto wide_result = ReadCsvString(wide);
  ASSERT_TRUE(wide_result.ok());
  EXPECT_EQ(wide_result->num_columns(), 200u);

  // 20000 rows.
  std::string tall = "v\n";
  for (int r = 0; r < 20000; ++r) tall += std::to_string(r % 7) + "\n";
  auto tall_result = ReadCsvString(tall);
  ASSERT_TRUE(tall_result.ok());
  EXPECT_EQ(tall_result->num_rows(), 20000u);
}

}  // namespace
}  // namespace divexp
