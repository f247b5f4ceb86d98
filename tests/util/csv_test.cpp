#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace optiplet::util {
namespace {

std::string path_helper() {
  return ::testing::TempDir() + "optiplet_csv_roundtrip.csv";
}

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "optiplet_csv_test.csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"model", "latency_ms"});
    ASSERT_TRUE(w.ok());
    w.add_row({"ResNet50", "1.21"});
  }
  EXPECT_EQ(read_all(path_), "model,latency_ms\nResNet50,1.21\n");
}

TEST_F(CsvTest, QuotesCellsWithCommas) {
  {
    CsvWriter w(path_, {"a"});
    w.add_row({"x,y"});
  }
  EXPECT_EQ(read_all(path_), "a\n\"x,y\"\n");
}

TEST_F(CsvTest, EscapesEmbeddedQuotes) {
  {
    CsvWriter w(path_, {"a"});
    w.add_row({"say \"hi\""});
  }
  EXPECT_EQ(read_all(path_), "a\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, QuotesNewlines) {
  {
    CsvWriter w(path_, {"a"});
    w.add_row({"line1\nline2"});
  }
  EXPECT_EQ(read_all(path_), "a\n\"line1\nline2\"\n");
}

TEST(CsvWriterBadPath, ReportsNotOk) {
  CsvWriter w("/nonexistent-dir-xyz/file.csv", {"a"});
  EXPECT_FALSE(w.ok());
  w.add_row({"ignored"});  // must not crash
}

// ---------------------------------------------------------------- parser

TEST(ParseCsv, PlainFieldsAndRecords) {
  const auto records = parse_csv("a,b,c\n1,2,3\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(records[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ParseCsv, MissingTrailingNewline) {
  const auto records = parse_csv("a,b\n1,2");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (std::vector<std::string>{"1", "2"}));
}

TEST(ParseCsv, CrlfLineEndings) {
  const auto records = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(records[1], (std::vector<std::string>{"1", "2"}));
}

TEST(ParseCsv, QuotedFieldWithEmbeddedComma) {
  const auto records = parse_csv("a\n\"x,y\"\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (std::vector<std::string>{"x,y"}));
}

TEST(ParseCsv, QuotedFieldWithEscapedQuotes) {
  const auto records = parse_csv("a\n\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (std::vector<std::string>{"say \"hi\""}));
}

TEST(ParseCsv, QuotedFieldWithEmbeddedNewline) {
  const auto records = parse_csv("a\n\"line1\nline2\",x\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (std::vector<std::string>{"line1\nline2", "x"}));
}

TEST(ParseCsv, EmptyFieldsSurvive) {
  const auto records = parse_csv("a,,c\n,,\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(records[1], (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsv, EmptyInputAndLoneNewline) {
  EXPECT_TRUE(parse_csv("").empty());
  // A lone newline terminates no content: no record.
  EXPECT_TRUE(parse_csv("\n").empty());
  // But an explicitly quoted empty field is a record.
  const auto records = parse_csv("\"\"\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (std::vector<std::string>{""}));
}

TEST(ParseCsv, UnterminatedQuoteIsRejected) {
  // A quote left open at EOF must not end the field silently, nor may a
  // quote opened mid-file swallow the rest of the file into one cell.
  const auto message = [](std::string_view text) {
    try {
      (void)parse_csv(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("arrival_s,tenant\n0.002,\"LeNet5"),
            "unterminated quoted field opened on line 2");
  EXPECT_EQ(message("a,b\n\"x\n1,2\n3,4\n"),
            "unterminated quoted field opened on line 2");
  EXPECT_EQ(message("\"a"), "unterminated quoted field opened on line 1");
  // A closed quote spanning lines is still fine.
  EXPECT_EQ(parse_csv("a\n\"x\ny\"\n").size(), 2u);
}

TEST(ParseCsv, WriterOutputRoundTrips) {
  // Every writer escape case must come back verbatim through the parser.
  const std::vector<std::string> nasty = {"plain", "x,y", "say \"hi\"",
                                          "line1\nline2", ""};
  {
    CsvWriter w(path_helper(), {"a", "b", "c", "d", "e"});
    w.add_row(nasty);
  }
  const auto doc = read_csv_file(path_helper());
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], nasty);
  std::remove(path_helper().c_str());
}

TEST(ReadCsvFile, MissingFileIsNullopt) {
  EXPECT_FALSE(read_csv_file("/nonexistent-dir-xyz/file.csv").has_value());
}

TEST(CsvDocument, ColumnLookup) {
  CsvDocument doc;
  doc.header = {"arrival_s", "tenant"};
  EXPECT_EQ(doc.column("tenant"), std::optional<std::size_t>{1});
  EXPECT_FALSE(doc.column("missing").has_value());
}

}  // namespace
}  // namespace optiplet::util
