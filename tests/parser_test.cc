#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "query/parser.h"
#include "sensitivity/tsens.h"
#include "test_util.h"

namespace lsens {
namespace {

Database FigureOneDb() {
  auto ex = testing::MakeFigure1Example();
  return std::move(ex.db);
}

TEST(ParserTest, ParsesBodyOnlyRule) {
  Database db = FigureOneDb();
  auto q = ParseQuery("  :- R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)", db);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_atoms(), 4);
  EXPECT_EQ(q->atom(0).relation, "R1");
  EXPECT_EQ(q->atom(3).vars.size(), 2u);
  EXPECT_TRUE(q->Validate(db).ok());
}

TEST(ParserTest, ParsesHeadAndChecksFullCq) {
  Database db = FigureOneDb();
  auto ok = ParseQuery("Q(A,B,C,D,E,F) :- R1(A,B,C), R2(A,B,D), R3(A,E), "
                       "R4(B,F)",
                       db);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  // Projection in the head is rejected (full CQs only).
  auto projected =
      ParseQuery("Q(A,B) :- R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)", db);
  EXPECT_EQ(projected.status().code(), Status::Code::kUnsupported);
  // Head variable not in the body.
  auto unknown = ParseQuery("Q(Z) :- R3(A,E)", db);
  EXPECT_FALSE(unknown.ok());
}

TEST(ParserTest, ParsesPredicates) {
  Database db = FigureOneDb();
  auto q = ParseQuery(":- R3(A,E), R4(B,F), A = 3, F != -2, E <= 10", db);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->atom(0).predicates.size(), 2u);  // A=3, E<=10 bind to R3
  ASSERT_EQ(q->atom(1).predicates.size(), 1u);  // F!=-2 binds to R4
  EXPECT_EQ(q->atom(0).predicates[0].op, Predicate::Op::kEq);
  EXPECT_EQ(q->atom(0).predicates[0].rhs, 3);
  EXPECT_EQ(q->atom(1).predicates[0].op, Predicate::Op::kNe);
  EXPECT_EQ(q->atom(1).predicates[0].rhs, -2);
  EXPECT_EQ(q->atom(0).predicates[1].op, Predicate::Op::kLe);
}

TEST(ParserTest, AllComparisonOperators) {
  Database db = FigureOneDb();
  auto q = ParseQuery(
      ":- R1(A,B,C), A = 1, A != 2, A < 9, A <= 9, A > 0, A >= 0", db);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->atom(0).predicates.size(), 6u);
}

TEST(ParserTest, RejectsMalformedInput) {
  Database db = FigureOneDb();
  EXPECT_FALSE(ParseQuery("R1(A,B,C)", db).ok());          // no ':-'
  EXPECT_FALSE(ParseQuery(":- ", db).ok());                // no atoms
  EXPECT_FALSE(ParseQuery(":- R1(A,B", db).ok());          // unclosed paren
  EXPECT_FALSE(ParseQuery(":- R1(A,,B)", db).ok());        // empty var
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C) R2(A,B,D)", db).ok());  // no comma
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C), A == 3", db).ok());    // bad op:
  // '==' parses '=' then fails on '= 3' -> error either way.
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C), Z = 3", db).ok());  // unbound var
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C), A = x", db).ok());  // non-integer
}

// Integer literals cover exactly int64: both ends parse, and anything past
// them is an InvalidArgument naming the position, never an exception.
TEST(ParserTest, IntegerLiteralsCoverInt64AndRejectOverflow) {
  Database db = FigureOneDb();
  auto lo = ParseQuery(":- R3(A,E), A >= -9223372036854775808", db);
  ASSERT_TRUE(lo.ok()) << lo.status().ToString();
  EXPECT_EQ(lo->atom(0).predicates[0].rhs, INT64_MIN);
  auto hi = ParseQuery(":- R3(A,E), A <= +9223372036854775807", db);
  ASSERT_TRUE(hi.ok()) << hi.status().ToString();
  EXPECT_EQ(hi->atom(0).predicates[0].rhs, INT64_MAX);
  for (const char* literal : {"9223372036854775808", "-9223372036854775809",
                              "99999999999999999999"}) {
    auto q = ParseQuery(std::string(":- R3(A,E), A < ") + literal, db);
    ASSERT_FALSE(q.ok()) << literal;
    EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument) << literal;
    // Positions are offsets into the caller's text: the literal starts
    // at offset 16.
    EXPECT_NE(q.status().message().find("position 16"), std::string::npos)
        << q.status().ToString();
  }
  // A head before ":-" shifts the body; the position still points at the
  // literal in the caller's text.
  const std::string ruled = "Q(A,E) :- R3(A,E), A < 99999999999999999999";
  auto q = ParseQuery(ruled, db);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find(
                "position " + std::to_string(ruled.find("999"))),
            std::string::npos)
      << q.status().ToString();
  EXPECT_EQ(ruled.find("999"), 23u);
}

TEST(ParserTest, ParsedQueryComputesSensitivity) {
  auto ex = testing::MakeFigure1Example();
  auto q = ParseQuery(":- R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)", ex.db);
  ASSERT_TRUE(q.ok());
  auto result = ComputeLocalSensitivity(*q, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count(4));
}

TEST(ExplainTest, AcyclicReportMentionsTreeAndAlgorithm) {
  auto ex = testing::MakeFigure1Example();
  std::string report = ExplainQuery(ex.query, ex.db.attrs());
  EXPECT_NE(report.find("acyclic (GYO)"), std::string::npos);
  EXPECT_NE(report.find("TSensOverGhd"), std::string::npos);
  EXPECT_NE(report.find("R1"), std::string::npos);
  EXPECT_NE(report.find("link"), std::string::npos);
}

TEST(ExplainTest, PathQueryPicksAlgorithm1) {
  auto ex = testing::MakeFigure3Example();
  std::string report = ExplainQuery(ex.query, ex.db.attrs());
  EXPECT_NE(report.find("path query"), std::string::npos);
  // Algorithm 2 over a path's join tree is Algorithm 1.
  EXPECT_NE(report.find("TSensOverGhd (Algorithm 2 over the GYO tree)"),
            std::string::npos);
}

TEST(ExplainTest, CyclicReportShowsDecomposition) {
  Database db;
  db.AddRelation("E0", {"A", "B"});
  db.AddRelation("E1", {"B", "C"});
  db.AddRelation("E2", {"C", "A"});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  std::string searched = ExplainQuery(q, db.attrs());
  EXPECT_NE(searched.find("cyclic"), std::string::npos);
  EXPECT_NE(searched.find("searched (width 2)"), std::string::npos);

  auto ghd = BuildGhd(q, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok());
  TSensComputeOptions options;
  options.ghd = &*ghd;
  std::string supplied = ExplainQuery(q, db.attrs(), options);
  EXPECT_NE(supplied.find("user-supplied (width 2)"), std::string::npos);
  EXPECT_NE(supplied.find("E0+E1"), std::string::npos);
}

// The engine line of a report.
std::string ExplainedEngine(const std::string& report) {
  size_t at = report.find("algorithm: ");
  if (at == std::string::npos) return "";
  at += 11;
  return report.substr(at, report.find(' ', at) - at);
}

TEST(ExplainTest, ReportsTheEngineTheFacadeRuns) {
  // Every query shape runs TSensOverGhd.
  Database db;
  db.AddRelation("R", {"A", "B"});
  ConjunctiveQuery single;
  single.AddAtom(db, "R", {"A", "B"});
  EXPECT_EQ(ExplainedEngine(ExplainQuery(single, db.attrs())),
            "TSensOverGhd");

  auto ex = testing::MakeFigure3Example();  // a path query
  EXPECT_EQ(ExplainedEngine(ExplainQuery(ex.query, ex.db.attrs())),
            "TSensOverGhd");
}

TEST(ExplainTest, AcyclicQueryWithUserGhdIsExplainedAsSupplied) {
  auto ex = testing::MakeFigure3Example();
  std::vector<std::vector<int>> bags;
  for (int a = 0; a < ex.query.num_atoms(); ++a) bags.push_back({a});
  auto ghd = BuildGhd(ex.query, bags);
  ASSERT_TRUE(ghd.ok()) << ghd.status().ToString();
  TSensComputeOptions options;
  options.ghd = &*ghd;
  std::string report = ExplainQuery(ex.query, ex.db.attrs(), options);
  EXPECT_NE(report.find("acyclic (GYO)"), std::string::npos) << report;
  EXPECT_NE(report.find("decomposition: user-supplied (width 1)"),
            std::string::npos)
      << report;
  EXPECT_EQ(ExplainedEngine(report), "TSensOverGhd") << report;
}

TEST(ExplainTest, DisconnectedQueryRendersComponents) {
  Database db;
  db.AddRelation("R", {"A"});
  db.AddRelation("T", {"X"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  std::string report = ExplainQuery(q, db.attrs());
  EXPECT_NE(report.find("component 0"), std::string::npos);
  EXPECT_NE(report.find("component 1"), std::string::npos);
}

}  // namespace
}  // namespace lsens
