// Pins every lsens-lint rule against the fixture corpus under
// tools/lint_fixtures/: each rule has a must-fire tree (the rule reports
// the planted violation) and a must-pass tree (the sanctioned idiom stays
// silent), so the lint itself is tested — a rule that silently stops
// firing breaks these, not just the code it was guarding. The suite ends
// with the whole-repo clean run (the same gate CI applies) and a
// determinism pin on the report format.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "lsens_lint.h"

namespace {

using lsens_lint::Allow;
using lsens_lint::Finding;
using lsens_lint::FormatReport;
using lsens_lint::Report;
using lsens_lint::RunLint;

std::filesystem::path Fixture(const std::string& name) {
  return std::filesystem::path(LSENS_LINT_FIXTURE_DIR) / name;
}

int CountRule(const Report& report, const std::string& rule) {
  return static_cast<int>(
      std::count_if(report.findings.begin(), report.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(LintHashFold, FiresOnCompetingFold) {
  const Report report = RunLint(Fixture("hash_fold_bad"));
  // Magic constant + direct Mix64 reference + HashValueFold redefinition.
  EXPECT_EQ(CountRule(report, "hash-fold"), 3) << FormatReport(report);
  EXPECT_EQ(static_cast<int>(report.findings.size()),
            CountRule(report, "hash-fold"))
      << FormatReport(report);
}

TEST(LintHashFold, SilentOnSharedFoldCallers) {
  const Report report = RunLint(Fixture("hash_fold_good"));
  EXPECT_TRUE(report.findings.empty()) << FormatReport(report);
}

TEST(LintUnorderedIter, FiresOnRangeForAndIteratorLoop) {
  const Report report = RunLint(Fixture("unordered_iter_bad"));
  EXPECT_EQ(CountRule(report, "unordered-iter"), 2) << FormatReport(report);
}

TEST(LintUnorderedIter, SilentOnAllowedAndFindOnlyUses) {
  const Report report = RunLint(Fixture("unordered_iter_good"));
  EXPECT_TRUE(report.findings.empty()) << FormatReport(report);
  // Both the declaration-site allow and the loop-site allow must surface
  // in the audit — silence there would make the allow list unreviewable.
  ASSERT_EQ(report.allows.size(), 2u) << FormatReport(report);
  for (const Allow& a : report.allows) {
    EXPECT_EQ(a.rule, "unordered-iter");
    EXPECT_FALSE(a.reason.empty());
  }
}

TEST(LintLayering, FiresOnUpwardIncludes) {
  const Report report = RunLint(Fixture("layering_bad"));
  // storage -> exec and storage -> query.
  EXPECT_EQ(CountRule(report, "layering"), 2) << FormatReport(report);
}

TEST(LintLayering, SilentOnDownwardIncludes) {
  const Report report = RunLint(Fixture("layering_good"));
  EXPECT_TRUE(report.findings.empty()) << FormatReport(report);
}

TEST(LintEntropy, FiresOnRandRandomDeviceAndClock) {
  const Report report = RunLint(Fixture("entropy_bad"));
  // random_device + rand() + steady_clock + getenv().
  EXPECT_EQ(CountRule(report, "entropy"), 4) << FormatReport(report);
}

TEST(LintEntropy, SilentInEntropyHomesAndSeededConsumers) {
  const Report report = RunLint(Fixture("entropy_good"));
  EXPECT_TRUE(report.findings.empty()) << FormatReport(report);
}

TEST(LintRowMaterialize, FiresOnRelationRowInsideLoops) {
  const Report report = RunLint(Fixture("row_materialize_bad"));
  // The range-for body call and the while-body call on Relation-typed
  // receivers; the CountedRelation call (span-returning Row) stays silent.
  EXPECT_EQ(CountRule(report, "row-materialize"), 2) << FormatReport(report);
  EXPECT_EQ(static_cast<int>(report.findings.size()),
            CountRule(report, "row-materialize"))
      << FormatReport(report);
}

TEST(LintRowMaterialize, SilentOnColumnSpansBuffersAndAllowedColdLoops) {
  const Report report = RunLint(Fixture("row_materialize_good"));
  EXPECT_TRUE(report.findings.empty()) << FormatReport(report);
  // The cold-loop allow must surface in the audit.
  ASSERT_EQ(report.allows.size(), 1u) << FormatReport(report);
  EXPECT_EQ(report.allows[0].rule, "row-materialize");
  EXPECT_FALSE(report.allows[0].reason.empty());
}

TEST(LintAllowReason, FiresOnBareAndNonAllowlistableAllows) {
  const Report report = RunLint(Fixture("allow_reason_bad"));
  EXPECT_EQ(CountRule(report, "allow-reason"), 2) << FormatReport(report);
  // The reasonless allow grants nothing: the loop under it still fires.
  EXPECT_EQ(CountRule(report, "unordered-iter"), 1) << FormatReport(report);
}

// The gate itself: the real tree must be clean, and the seeded audit
// entries (lookup-only interning tables, the plan-cache store walks) must
// be present so reviewers see every sanctioned unordered iteration.
TEST(LintTree, WholeTreeIsClean) {
  const Report report = RunLint(LSENS_LINT_TREE_ROOT);
  EXPECT_GE(report.files_scanned, 80) << "src/ went missing?";
  EXPECT_TRUE(report.findings.empty()) << FormatReport(report);
  EXPECT_GE(report.allows.size(), 7u) << FormatReport(report);
}

TEST(LintTree, ReportIsDeterministic) {
  const std::string a = FormatReport(RunLint(LSENS_LINT_TREE_ROOT));
  const std::string b = FormatReport(RunLint(LSENS_LINT_TREE_ROOT));
  EXPECT_EQ(a, b);
}

}  // namespace
