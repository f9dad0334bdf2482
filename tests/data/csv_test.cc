#include "data/csv.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "recovery/atomic_file.h"

namespace divexp {
namespace {

TEST(CsvReadTest, InfersIntDoubleCategorical) {
  const std::string text =
      "id,score,label\n"
      "1,0.5,yes\n"
      "2,1.5,no\n"
      "3,2.0,yes\n";
  auto df = ReadCsvString(text);
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 3u);
  EXPECT_EQ(df->Get("id").type(), ColumnType::kInt);
  EXPECT_EQ(df->Get("score").type(), ColumnType::kDouble);
  EXPECT_EQ(df->Get("label").type(), ColumnType::kCategorical);
  EXPECT_EQ(df->Get("label").ValueString(1), "no");
}

TEST(CsvReadTest, NaValuesBecomeMissing) {
  const std::string text = "a,b\n1.5,x\n?,y\n2.5,NA\n";
  auto df = ReadCsvString(text);
  ASSERT_TRUE(df.ok());
  EXPECT_TRUE(df->Get("a").IsMissing(1));
  EXPECT_TRUE(df->Get("b").IsMissing(2));
}

TEST(CsvReadTest, IntColumnWithMissingBecomesDouble) {
  const std::string text = "n\n1\n?\n3\n";
  auto df = ReadCsvString(text);
  ASSERT_TRUE(df.ok());
  // Ints cannot represent missing, so the column is promoted.
  EXPECT_EQ(df->Get("n").type(), ColumnType::kDouble);
  EXPECT_TRUE(df->Get("n").IsMissing(1));
}

TEST(CsvReadTest, QuotedFieldsWithDelimitersAndQuotes) {
  const std::string text =
      "name,notes\n"
      "\"Smith, John\",\"said \"\"hi\"\"\"\n";
  CsvOptions opts;
  opts.strings_as_categorical = false;
  auto df = ReadCsvString(text, opts);
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->Get("name").strings()[0], "Smith, John");
  EXPECT_EQ(df->Get("notes").strings()[0], "said \"hi\"");
}

TEST(CsvReadTest, CrLfLineEndings) {
  const std::string text = "a,b\r\n1,2\r\n3,4\r\n";
  auto df = ReadCsvString(text);
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->Get("b").ints()[1], 4);
}

TEST(CsvReadTest, FieldCountMismatchIsError) {
  auto df = ReadCsvString("a,b\n1,2,3\n");
  EXPECT_FALSE(df.ok());
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvReadTest, EmptyInputIsError) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvReadTest, HeaderOnlyGivesEmptyColumns) {
  auto df = ReadCsvString("x,y\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_columns(), 2u);
  EXPECT_EQ(df->num_rows(), 0u);
}

TEST(CsvRoundTripTest, WriteThenReadPreservesValues) {
  DataFrame df;
  ASSERT_TRUE(df.AddColumn(Column::MakeInt("n", {1, 2})).ok());
  ASSERT_TRUE(df.AddColumn(Column::MakeCategorical(
                               "c", {0, 1}, {"alpha", "beta,comma"}))
                  .ok());
  const std::string text = WriteCsvString(df);
  auto back = ReadCsvString(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->Get("n").ints()[1], 2);
  EXPECT_EQ(back->Get("c").ValueString(1), "beta,comma");
}

TEST(CsvFileTest, WriteAndReadFile) {
  DataFrame df;
  ASSERT_TRUE(df.AddColumn(Column::MakeDouble("v", {0.25, 0.75})).ok());
  const std::string path = "/tmp/divexp_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(df, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->Get("v").doubles()[1], 0.75);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  auto r = ReadCsvFile("/tmp/definitely_missing_divexp_file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

std::string TempPath(const std::string& stem) {
  return "/tmp/divexp_csv_test_" + stem + "_" + std::to_string(::getpid());
}

TEST(CsvFileTest, EmptyFileIsInvalidArgument) {
  const std::string path = TempPath("empty");
  ASSERT_TRUE(recovery::WriteFileAtomic(path, "").ok());
  auto r = ReadCsvFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(), "empty CSV input");
  std::remove(path.c_str());
}

TEST(CsvFileTest, DirectoryReadsAsEmptyInput) {
  // A directory opens but yields no bytes, so it fails as empty input.
  const std::string path = TempPath("dir");
  ASSERT_EQ(::mkdir(path.c_str(), 0700), 0);
  auto r = ReadCsvFile(path);
  ::rmdir(path.c_str());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(), "empty CSV input");
}

TEST(CsvFileTest, ReadsFromAPipe) {
  // A FIFO has no size up front; the text spans many pipe buffers.
  const std::string path = TempPath("fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::string text = "n,c\n";
  for (int i = 0; i < 20000; ++i) {
    text += std::to_string(i) + (i % 2 ? ",odd\n" : ",even\n");
  }
  // A FIFO cannot be replaced atomically: the writer must stream into it.
  std::thread writer([&] {
    std::FILE* f = std::fopen(path.c_str(), "wb");  // lint:allow(no-raw-file-output): writes into a FIFO
    if (f == nullptr) return;
    std::fwrite(text.data(), 1, text.size(), f);  // lint:allow(no-raw-file-output): writes into a FIFO
    std::fclose(f);
  });
  auto r = ReadCsvFile(path);
  writer.join();
  ::unlink(path.c_str());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 20000u);
  EXPECT_EQ(r->Get("n").ints()[19999], 19999);
  EXPECT_EQ(r->Get("c").ValueString(1), "odd");
}

// Hostile inputs: a malformed file must produce a diagnosable error,
// never a silently garbled DataFrame.

TEST(CsvHostileTest, EmptyInputIsInvalidArgument) {
  auto r = ReadCsvString("");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvHostileTest, UnterminatedQuoteInHeader) {
  auto r = ReadCsvString("a,\"b\n1,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unterminated"), std::string::npos);
}

TEST(CsvHostileTest, UnterminatedQuoteInRecordNamesTheRecord) {
  auto r = ReadCsvString("a,b\n1,2\n3,\"oops\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Header is record 1, so the bad row is record 3.
  EXPECT_NE(r.status().message().find("record 3"), std::string::npos);
}

TEST(CsvHostileTest, EmbeddedNulByteIsRejected) {
  std::string text = "a,b\n1,2\n";
  text[6] = '\0';
  auto r = ReadCsvString(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("NUL"), std::string::npos);
}

TEST(CsvHostileTest, NulInsideQuotedFieldIsRejected) {
  std::string text = "a\n\"x_y\"\n";
  text[4] = '\0';
  auto r = ReadCsvString(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvHostileTest, RaggedRowsNameTheRecord) {
  auto too_few = ReadCsvString("a,b,c\n1,2,3\n4,5\n");
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_few.status().message().find("record 3"),
            std::string::npos);
  auto too_many = ReadCsvString("a,b\n1,2,3\n");
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvHostileTest, WellFormedQuotingStillWorks) {
  // Regression guard for the hardening: legitimate quoted fields with
  // escaped quotes, delimiters and newlines keep parsing.
  auto df = ReadCsvString("a,b\n\"x,\"\"y\"\"\nz\",2\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 1u);
  EXPECT_EQ(df->Get("a").ValueString(0), "x,\"y\"\nz");
}

TEST(CsvHostileTest, BinaryGarbageFileFailsCleanly) {
  const std::string path = "/tmp/divexp_csv_hostile_test.bin";
  const char bytes[] = {'a', ',', 'b', '\n', 0x00, 0x01, 0x02, '\n'};
  ASSERT_TRUE(
      recovery::WriteFileAtomic(path, std::string(bytes, sizeof(bytes)))
          .ok());
  auto r = ReadCsvFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace divexp
