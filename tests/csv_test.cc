#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>

#include "storage/csv.h"
#include "storage/database.h"

namespace lsens {
namespace {

TEST(CsvTest, LoadsIntegersAndStrings) {
  Database db;
  Status s = LoadCsvText(db, "Flights",
                         "src,dst,count\n"
                         "NYC,LHR,3\n"
                         "NYC,CDG,2\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Relation* rel = db.Find("Flights");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->NumRows(), 2u);
  EXPECT_EQ(rel->column_names(),
            (std::vector<std::string>{"src", "dst", "count"}));
  // Strings interned; integers verbatim.
  EXPECT_EQ(rel->At(0, 0), db.dict().Lookup("NYC"));
  EXPECT_EQ(rel->At(0, 1), db.dict().Lookup("LHR"));
  EXPECT_EQ(rel->At(0, 2), 3);
  EXPECT_EQ(rel->At(1, 2), 2);
}

TEST(CsvTest, TrimsWhitespaceAndSkipsBlankLines) {
  Database db;
  Status s = LoadCsvText(db, "R",
                         " a , b \n"
                         " 1 ,  2 \n"
                         "\n"
                         "3,4\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Relation* rel = db.Find("R");
  EXPECT_EQ(rel->NumRows(), 2u);
  EXPECT_EQ(rel->column_names()[0], "a");
  EXPECT_EQ(rel->At(0, 0), 1);
  EXPECT_EQ(rel->At(1, 1), 4);
}

TEST(CsvTest, NegativeIntegersParse) {
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R", "a\n-17\n+4\n").ok());
  EXPECT_EQ(db.Find("R")->At(0, 0), -17);
  EXPECT_EQ(db.Find("R")->At(1, 0), 4);
}

TEST(CsvTest, RejectsInt64OverflowWithLineNumber) {
  Database db;
  // IsInteger accepts these literals; they must fail cleanly instead of
  // throwing std::out_of_range through the Status API.
  Status s = LoadCsvText(db, "R",
                         "a\n"
                         "1\n"
                         "99999999999999999999\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.ToString();
  Status neg = LoadCsvText(db, "S", "a\n-99999999999999999999\n");
  ASSERT_FALSE(neg.ok());
  EXPECT_NE(neg.message().find("line 2"), std::string::npos);
  // The int64 boundary itself still parses.
  Database ok_db;
  ASSERT_TRUE(LoadCsvText(ok_db, "T",
                          "a\n9223372036854775807\n-9223372036854775808\n")
                  .ok());
  EXPECT_EQ(ok_db.Find("T")->At(0, 0), INT64_MAX);
  EXPECT_EQ(ok_db.Find("T")->At(1, 0), INT64_MIN);
}

TEST(CsvTest, OverflowErrorNamesOffendingColumn) {
  Database db;
  // The loader parses per column; a bad cell reports which column broke,
  // by index and header name, so wide files are debuggable.
  Status s = LoadCsvText(db, "R",
                         "id,amount,tag\n"
                         "1,2,x\n"
                         "2,99999999999999999999,y\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("column 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("'amount'"), std::string::npos) << s.ToString();
}

TEST(CsvTest, MarksDictionaryColumns) {
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R",
                          "city,pop,mixed\n"
                          "NYC,8000000,1\n"
                          "SF,800000,abc\n")
                  .ok());
  const Relation* rel = db.Find("R");
  // Any column that interned at least one cell carries the dictionary
  // handle; pure-integer columns stay flat.
  EXPECT_TRUE(rel->column_dictionary(0));
  EXPECT_FALSE(rel->column_dictionary(1));
  EXPECT_TRUE(rel->column_dictionary(2));
  // Codes decode back through the shared dictionary.
  EXPECT_EQ(db.dict().String(rel->At(0, 0)), "NYC");
  EXPECT_EQ(db.dict().String(rel->At(1, 2)), "abc");
}

TEST(CsvTest, QuotedCellsFollowRfc4180) {
  Database db;
  Status s = LoadCsvText(db, "R",
                         "name,note,n\n"
                         "\"a,b\",plain,1\n"
                         "\"say \"\"hi\"\"\",\"x\",2\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Relation* rel = db.Find("R");
  ASSERT_EQ(rel->NumRows(), 2u);
  // The quoted comma stays inside one cell — later columns do not shift.
  EXPECT_EQ(rel->At(0, 0), db.dict().Lookup("a,b"));
  EXPECT_EQ(rel->At(0, 2), 1);
  EXPECT_EQ(rel->At(1, 0), db.dict().Lookup("say \"hi\""));
  EXPECT_EQ(rel->At(1, 2), 2);
  // Quoting affects only splitting; integer-looking content still parses.
  Database db2;
  ASSERT_TRUE(LoadCsvText(db2, "R", "a\n\"42\"\n").ok());
  EXPECT_EQ(db2.Find("R")->At(0, 0), 42);
}

TEST(CsvTest, RejectsMalformedQuotes) {
  Database db;
  Status unterminated = LoadCsvText(db, "R", "a\n\"oops\n");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.message().find("line 2"), std::string::npos);
  Status trailing = LoadCsvText(db, "S", "a,b\n\"x\"y,1\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.message().find("closing quote"), std::string::npos);
}

TEST(CsvTest, CrlfAndTrailingBlankLines) {
  Database db;
  Status s = LoadCsvText(db, "R",
                         "a,b\r\n"
                         "1,\"x,y\"\r\n"
                         "2,z\r\n"
                         "\r\n"
                         "\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Relation* rel = db.Find("R");
  ASSERT_EQ(rel->NumRows(), 2u);
  EXPECT_EQ(rel->At(0, 0), 1);
  EXPECT_EQ(rel->At(0, 1), db.dict().Lookup("x,y"));
  EXPECT_EQ(rel->At(1, 1), db.dict().Lookup("z"));
}

TEST(CsvTest, RejectsBadInput) {
  Database db;
  EXPECT_FALSE(LoadCsvText(db, "R", "").ok());           // no header
  EXPECT_FALSE(LoadCsvText(db, "S", "a,,b\n").ok());     // empty column
  EXPECT_FALSE(LoadCsvText(db, "T", "a,b\n1\n").ok());   // arity mismatch
  ASSERT_TRUE(LoadCsvText(db, "U", "a\n1\n").ok());
  EXPECT_FALSE(LoadCsvText(db, "U", "a\n1\n").ok());     // duplicate name
}

TEST(CsvTest, RoundTripsThroughText) {
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R", "a,b\nx,1\ny,2\n").ok());
  auto text = SaveCsvText(db, "R", /*render_dictionary=*/true);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "a,b\nx,1\ny,2\n");
  // Numeric rendering shows the interned codes instead (offset by the
  // dictionary base so they never collide with real integers).
  auto numeric = SaveCsvText(db, "R", /*render_dictionary=*/false);
  ASSERT_TRUE(numeric.ok());
  EXPECT_EQ(*numeric, "a,b\n" + std::to_string(Dictionary::kBase) + ",1\n" +
                          std::to_string(Dictionary::kBase + 1) + ",2\n");
  // Strings and header names the loader would split, unescape or trim are
  // written quoted, and read back unchanged.
  const std::string quoted =
      "k,\"c,d\"\n"
      "\"\"\"q\"\"\",1\n"
      "\" pad \",2\n"
      "\"a,b\",3\n";
  Database src;
  ASSERT_TRUE(LoadCsvText(src, "Q", quoted).ok());
  auto saved = SaveCsvText(src, "Q", /*render_dictionary=*/true);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(*saved, quoted);
  Database back;
  ASSERT_TRUE(LoadCsvText(back, "Q", *saved).ok());
  const Relation* rel = back.Find("Q");
  EXPECT_EQ(rel->column_names()[1], "c,d");
  EXPECT_EQ(back.dict().String(rel->At(0, 0)), "\"q\"");
  EXPECT_EQ(back.dict().String(rel->At(1, 0)), " pad ");
  EXPECT_EQ(back.dict().String(rel->At(2, 0)), "a,b");
  // An empty string alone on its line would read back as a blank line.
  Relation* empty = src.AddRelation("E", {"s"});
  empty->AppendRow({src.dict().Intern("")});
  auto empty_text = SaveCsvText(src, "E", /*render_dictionary=*/true);
  ASSERT_TRUE(empty_text.ok());
  EXPECT_EQ(*empty_text, "s\n\"\"\n");
  ASSERT_TRUE(LoadCsvText(back, "E", *empty_text).ok());
  ASSERT_EQ(back.Find("E")->NumRows(), 1u);
  EXPECT_EQ(back.dict().String(back.Find("E")->At(0, 0)), "");
  // A line break cannot be read back by the line-based loader.
  Relation* broken = src.AddRelation("B", {"s"});
  broken->AppendRow({src.dict().Intern("two\nlines")});
  EXPECT_FALSE(SaveCsvText(src, "B", /*render_dictionary=*/true).ok());
}

TEST(CsvTest, FailedLoadLeavesNoRelation) {
  Database db;
  Status s = LoadCsvText(db, "R", "a,b\n1,2\n3\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.ToString();
  EXPECT_EQ(db.Find("R"), nullptr);
  // Nor does it intern the strings of the lines before the failing one.
  const size_t dict_size = db.dict().size();
  EXPECT_FALSE(LoadCsvText(db, "S", "a,b\nhello,2\n3\n").ok());
  EXPECT_EQ(db.Find("S"), nullptr);
  EXPECT_EQ(db.dict().size(), dict_size);
  // The corrected retry under the same name succeeds.
  ASSERT_TRUE(LoadCsvText(db, "R", "a,b\n1,2\n3,4\n").ok());
  EXPECT_EQ(db.Find("R")->NumRows(), 2u);
}

TEST(CsvTest, SaveRefusesIntegerShapedDictionaryStrings) {
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R", "k,v\n1,\"x\"\n").ok());
  Relation* rel = db.Find("R");
  rel->AppendRow({2, db.dict().Intern("42")});
  auto saved = SaveCsvText(db, "R", /*render_dictionary=*/true);
  EXPECT_EQ(saved.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(saved.status().message().find("42"), std::string::npos)
      << saved.status().ToString();
  // Unrendered, the code itself is written and nothing is refused.
  EXPECT_TRUE(SaveCsvText(db, "R", /*render_dictionary=*/false).ok());
}

TEST(CsvTest, SaveUnknownRelationFails) {
  Database db;
  EXPECT_EQ(SaveCsvText(db, "nope").status().code(),
            Status::Code::kNotFound);
}

TEST(CsvTest, FileRoundTrip) {
  // TempDir() honors TEST_TMPDIR; the random suffix keeps concurrent ctest
  // invocations of this binary from clobbering each other's file.
  const std::string path_str = ::testing::TempDir() + "lsens_csv_test_" +
                               std::to_string(std::random_device{}()) + ".csv";
  const char* path = path_str.c_str();
  {
    Database db;
    ASSERT_TRUE(LoadCsvText(db, "R", "k,v\n1,one\n2,two\n").ok());
    ASSERT_TRUE(SaveCsv(db, "R", path, /*render_dictionary=*/true).ok());
  }
  {
    Database db;
    Status s = LoadCsv(db, "R", path);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const Relation* rel = db.Find("R");
    ASSERT_EQ(rel->NumRows(), 2u);
    EXPECT_EQ(rel->At(0, 0), 1);
    EXPECT_EQ(rel->At(1, 1), db.dict().Lookup("two"));
  }
  std::remove(path);
  Database db;
  EXPECT_EQ(LoadCsv(db, "R", "/nonexistent/nope.csv").code(),
            Status::Code::kNotFound);
}

}  // namespace
}  // namespace lsens
