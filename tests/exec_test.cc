#include <gtest/gtest.h>

#include <algorithm>

#include "exec/counted_relation.h"
#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "exec/join.h"
#include "query/atom_scan.h"
#include "query/eval.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;

CountedRelation MakeCounted(AttributeSet attrs,
                            std::vector<std::pair<std::vector<Value>, uint64_t>>
                                rows) {
  CountedRelation r(std::move(attrs));
  for (auto& [row, cnt] : rows) r.AppendRow(row, Count(cnt));
  r.Normalize();
  return r;
}

TEST(CountedRelationTest, NormalizeMergesDuplicates) {
  CountedRelation r({1, 2});
  r.AppendRow({5, 6}, Count(2));
  r.AppendRow({1, 2}, Count(1));
  r.AppendRow({5, 6}, Count(3));
  r.Normalize();
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.Row(0)[0], 1);
  EXPECT_EQ(r.CountAt(1), Count(5));
  EXPECT_EQ(r.TotalCount(), Count(6));
  EXPECT_EQ(r.MaxCount(), Count(5));
  EXPECT_EQ(r.ArgMaxRow(), 1u);
}

TEST(CountedRelationTest, LookupFindsRowsAndDefault) {
  CountedRelation r = MakeCounted({1}, {{{7}, 3}, {{9}, 5}});
  Value v7[] = {7};
  Value v8[] = {8};
  EXPECT_EQ(r.Lookup(v7), Count(3));
  EXPECT_EQ(r.Lookup(v8), Count::Zero());
  r.set_default_count(Count(2));
  EXPECT_EQ(r.Lookup(v8), Count(2));
}

TEST(CountedRelationTest, UnitBehaves) {
  CountedRelation unit = CountedRelation::Unit();
  EXPECT_EQ(unit.arity(), 0u);
  EXPECT_EQ(unit.NumRows(), 1u);
  EXPECT_EQ(unit.TotalCount(), Count::One());
}

TEST(ScanAtomTest, ProjectsAndCounts) {
  auto ex = MakeFigure1Example();
  const Relation& r1 = *ex.db.Find("R1");
  AttrId a = ex.db.attrs().Lookup("A");
  // Project R1(A,B,C) onto {A}: a1 x2, a2 x1.
  CountedRelation s =
      ScanAtom(r1, ex.query.atom(0), {a});
  ASSERT_EQ(s.NumRows(), 2u);
  EXPECT_EQ(s.TotalCount(), Count(3));
  EXPECT_EQ(s.MaxCount(), Count(2));
}

TEST(ScanAtomTest, AppliesPredicates) {
  auto ex = MakeFigure1Example();
  ConjunctiveQuery q;
  int atom = q.AddAtom(ex.db, "R1", {"A", "B", "C"});
  Predicate p;
  p.var = ex.db.attrs().Lookup("A");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("a1");
  q.AddPredicate(atom, p);
  AttrId a = ex.db.attrs().Lookup("A");
  CountedRelation s =
      ScanAtom(*ex.db.Find("R1"), q.atom(0), {a});
  ASSERT_EQ(s.NumRows(), 1u);
  EXPECT_EQ(s.CountAt(0), Count(2));  // two a1 rows
}

TEST(CountedRelationTest, GroupBySum) {
  CountedRelation r = MakeCounted(
      {1, 2}, {{{0, 0}, 1}, {{0, 1}, 2}, {{1, 0}, 4}});
  CountedRelation g = GroupBySum(r, {1});
  ASSERT_EQ(g.NumRows(), 2u);
  Value v0[] = {0};
  Value v1[] = {1};
  EXPECT_EQ(g.Lookup(v0), Count(3));
  EXPECT_EQ(g.Lookup(v1), Count(4));
  // Group by nothing = total.
  CountedRelation total = GroupBySum(r, {});
  ASSERT_EQ(total.NumRows(), 1u);
  EXPECT_EQ(total.CountAt(0), Count(7));
}

TEST(CountedRelationTest, TruncateTopK) {
  CountedRelation r = MakeCounted(
      {1}, {{{1}, 10}, {{2}, 7}, {{3}, 5}, {{4}, 2}});
  r.TruncateTopK(2);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.default_count(), Count(7));
  Value v1[] = {1};
  Value v3[] = {3};
  EXPECT_EQ(r.Lookup(v1), Count(10));
  EXPECT_EQ(r.Lookup(v3), Count(7));  // raised to the k-th largest
}

TEST(CountedRelationTest, TruncateTopKNoOpWhenSmall) {
  CountedRelation r = MakeCounted({1}, {{{1}, 10}, {{2}, 7}});
  r.TruncateTopK(5);
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_FALSE(r.has_default());
}

TEST(CountedRelationTest, FilterAndScale) {
  CountedRelation r = MakeCounted({1}, {{{1}, 2}, {{2}, 3}, {{3}, 4}});
  r.Filter([](std::span<const Value> row) { return row[0] != 2; });
  EXPECT_EQ(r.NumRows(), 2u);
  // A zero factor drops its row.
  const std::vector<Count> factors{Count(10), Count::Zero()};
  CountedRelation scaled = r.FilterScale(factors);
  EXPECT_EQ(scaled.NumRows(), 1u);
  EXPECT_EQ(scaled.TotalCount(), Count(20));
}

class JoinAlgoTest : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(JoinAlgoTest, SharedKeyJoinMultipliesCounts) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1, 2}, {{{0, 5}, 2}, {{1, 6}, 3}});
  CountedRelation b = MakeCounted({2, 3}, {{{5, 8}, 5}, {{5, 9}, 1}});
  CountedRelation j = NaturalJoin(a, b, opts);
  // key = attr 2; only value 5 matches.
  ASSERT_EQ(j.NumRows(), 2u);
  EXPECT_EQ(j.attrs(), (AttributeSet{1, 2, 3}));
  Value r1[] = {0, 5, 8};
  Value r2[] = {0, 5, 9};
  EXPECT_EQ(j.Lookup(r1), Count(10));
  EXPECT_EQ(j.Lookup(r2), Count(2));
}

TEST_P(JoinAlgoTest, CrossProductWhenNoSharedAttr) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1}, {{{0}, 2}, {{1}, 3}});
  CountedRelation b = MakeCounted({2}, {{{7}, 5}});
  CountedRelation j = NaturalJoin(a, b, opts);
  ASSERT_EQ(j.NumRows(), 2u);
  EXPECT_EQ(j.TotalCount(), Count(25));
}

TEST_P(JoinAlgoTest, JoinWithUnitIsIdentity) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1}, {{{0}, 2}, {{1}, 3}});
  CountedRelation j = NaturalJoin(a, CountedRelation::Unit(), opts);
  EXPECT_EQ(j.NumRows(), 2u);
  EXPECT_EQ(j.TotalCount(), Count(5));
}

TEST_P(JoinAlgoTest, EmptyInputYieldsEmpty) {
  JoinOptions opts{GetParam()};
  CountedRelation a = MakeCounted({1}, {});
  CountedRelation b = MakeCounted({1, 2}, {{{0, 1}, 1}});
  EXPECT_EQ(NaturalJoin(a, b, opts).NumRows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, JoinAlgoTest,
                         ::testing::Values(JoinAlgorithm::kHash,
                                           JoinAlgorithm::kSortMerge));

TEST(JoinTest, HashAndSortMergeAgreeOnRandomInputs) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    CountedRelation a({1, 2});
    CountedRelation b({2, 3});
    int na = static_cast<int>(rng.NextBounded(20));
    int nb = static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < na; ++i) {
      a.AppendRow({static_cast<Value>(rng.NextBounded(4)),
                   static_cast<Value>(rng.NextBounded(4))},
                  Count(1 + rng.NextBounded(3)));
    }
    for (int i = 0; i < nb; ++i) {
      b.AppendRow({static_cast<Value>(rng.NextBounded(4)),
                   static_cast<Value>(rng.NextBounded(4))},
                  Count(1 + rng.NextBounded(3)));
    }
    a.Normalize();
    b.Normalize();
    CountedRelation h = NaturalJoin(a, b, {JoinAlgorithm::kHash});
    CountedRelation s = NaturalJoin(a, b, {JoinAlgorithm::kSortMerge});
    ASSERT_EQ(h.NumRows(), s.NumRows());
    for (size_t i = 0; i < h.NumRows(); ++i) {
      EXPECT_EQ(CompareRows(h.Row(i), s.Row(i)), 0);
      EXPECT_EQ(h.CountAt(i), s.CountAt(i));
    }
  }
}

TEST(JoinTest, DefaultedSideActsAsTotalFunction) {
  CountedRelation a = MakeCounted({1, 2}, {{{0, 5}, 2}, {{1, 6}, 3}});
  CountedRelation b = MakeCounted({2}, {{{5}, 4}});
  b.set_default_count(Count(10));
  CountedRelation j = NaturalJoin(a, b);
  ASSERT_EQ(j.NumRows(), 2u);
  Value r1[] = {0, 5};
  Value r2[] = {1, 6};
  EXPECT_EQ(j.Lookup(r1), Count(8));    // matched: 2*4
  EXPECT_EQ(j.Lookup(r2), Count(30));   // default: 3*10
  EXPECT_FALSE(j.has_default());
}

TEST(JoinTest, EstimateJoinRowsIsExact) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    CountedRelation a({1, 2});
    CountedRelation b({2, 3});
    for (uint64_t i = 0; i < rng.NextBounded(15); ++i) {
      a.AppendRow({static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3))},
                  Count::One());
    }
    for (uint64_t i = 0; i < rng.NextBounded(15); ++i) {
      b.AppendRow({static_cast<Value>(rng.NextBounded(3)),
                   static_cast<Value>(rng.NextBounded(3))},
                  Count::One());
    }
    a.Normalize();
    b.Normalize();
    // NaturalJoin normalizes (merging duplicate output rows), so compare
    // against the pre-merge pair count.
    size_t expected = 0;
    for (size_t i = 0; i < a.NumRows(); ++i) {
      for (size_t j = 0; j < b.NumRows(); ++j) {
        expected += (a.Row(i)[1] == b.Row(j)[0]);
      }
    }
    EXPECT_EQ(EstimateJoinRows(a, b), expected);
  }
}

TEST(JoinTest, DefaultedLeftSideAlsoWorks) {
  // Symmetric case: `a` carries the default, `b` covers its attributes.
  CountedRelation a = MakeCounted({2}, {{{5}, 4}});
  a.set_default_count(Count(10));
  CountedRelation b = MakeCounted({1, 2}, {{{0, 5}, 2}, {{1, 6}, 3}});
  CountedRelation j = NaturalJoin(a, b);
  ASSERT_EQ(j.NumRows(), 2u);
  Value r1[] = {0, 5};
  Value r2[] = {1, 6};
  EXPECT_EQ(j.Lookup(r1), Count(8));
  EXPECT_EQ(j.Lookup(r2), Count(30));
}

TEST(CountedRelationTest, ArgMaxRowUnknownWhenDefaultWins) {
  CountedRelation r = MakeCounted({1}, {{{1}, 3}, {{2}, 5}});
  EXPECT_EQ(r.ArgMaxRow(), 1u);
  r.set_default_count(Count(9));
  EXPECT_EQ(r.MaxCount(), Count(9));
  EXPECT_EQ(r.ArgMaxRow(), SIZE_MAX);  // attained by an unlisted row
}

TEST(CountedRelationTest, EmptyRelationBehaviors) {
  CountedRelation r({1, 2});
  EXPECT_EQ(r.NumRows(), 0u);
  EXPECT_EQ(r.TotalCount(), Count::Zero());
  EXPECT_EQ(r.MaxCount(), Count::Zero());
  EXPECT_EQ(r.ArgMaxRow(), SIZE_MAX);
  Value probe[] = {1, 2};
  r.Normalize();
  EXPECT_EQ(r.Lookup(probe), Count::Zero());
}

TEST(FoldJoinTest, PrefersSharedAttributesOverCrossProducts) {
  // Pieces: A(x), B(y), C(x,y). Starting from the smallest, the greedy
  // fold must join the attribute-sharing piece before any cross product —
  // observable through the exact result (which is order-independent) and,
  // more importantly, through not tripping the defaulted-piece guard when
  // C is defaulted and only covered after A ⋈ B ... here simply verify the
  // result is correct with all orders of sizes.
  CountedRelation a = MakeCounted({1}, {{{0}, 2}, {{1}, 5}});
  CountedRelation b = MakeCounted({2}, {{{7}, 3}});
  CountedRelation c = MakeCounted({1, 2}, {{{0, 7}, 1}, {{1, 7}, 10}});
  CountedRelation r = FoldJoin({&a, &b, &c});
  ASSERT_EQ(r.NumRows(), 2u);
  Value r1[] = {0, 7};
  Value r2[] = {1, 7};
  EXPECT_EQ(r.Lookup(r1), Count(6));    // 2*3*1
  EXPECT_EQ(r.Lookup(r2), Count(150));  // 5*3*10
}

TEST(FoldJoinTest, EmptyPiecesYieldUnit) {
  CountedRelation r = FoldJoin({});
  EXPECT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.arity(), 0u);
}

TEST(FoldJoinTest, ChainFold) {
  CountedRelation a = MakeCounted({1}, {{{0}, 2}});
  CountedRelation b = MakeCounted({1, 2}, {{{0, 5}, 3}});
  CountedRelation c = MakeCounted({2}, {{{5}, 7}});
  ExecContext ctx;
  JoinOptions opts;
  opts.ctx = &ctx;
  CountedRelation r = FoldJoin({&a, &b, &c}, opts);
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.CountAt(0), Count(42));
  // Each step has one attribute-sharing candidate, which wins whatever its
  // size, so the greedy order counts no join.
  EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr);
}

TEST(FoldJoinTest, CountedOrderMatchesForcedKernels) {
  // A(x,y) B(y,z) C(x,w) and a defaulted D(y): from A, B, C and the
  // covered D all share an attribute, so the greedy order counts B and C
  // and hands the winner's count to its join. Every kernel choice must
  // give the same fold.
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    auto make = [&](AttributeSet attrs, size_t rows, uint64_t domain) {
      CountedRelation r(std::move(attrs));
      std::vector<Value> row(r.arity());
      for (size_t i = 0; i < rows; ++i) {
        for (Value& v : row) v = static_cast<Value>(rng.NextBounded(domain));
        r.AppendRow(row, Count(1 + rng.NextBounded(3)));
      }
      r.Normalize();
      return r;
    };
    CountedRelation a = make({1, 2}, 3 + rng.NextBounded(10), 6);
    CountedRelation b = make({2, 3}, 30 + rng.NextBounded(60), 6);
    CountedRelation c = make({1, 4}, 30 + rng.NextBounded(60), 6);
    CountedRelation d = make({2}, rng.NextBounded(4), 6);
    d.set_default_count(Count(1 + rng.NextBounded(4)));
    const std::vector<const CountedRelation*> pieces = {&a, &b, &c, &d};

    ExecContext ctx;
    JoinOptions opts;
    opts.ctx = &ctx;
    const CountedRelation automatic = FoldJoin(pieces, opts);
    EXPECT_NE(ctx.FindStats("estimate_join_rows"), nullptr);
    for (JoinAlgorithm forced :
         {JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
      const CountedRelation r = FoldJoin(pieces, {forced});
      ASSERT_EQ(r.attrs(), automatic.attrs());
      ASSERT_EQ(r.NumRows(), automatic.NumRows()) << "trial " << trial;
      for (size_t i = 0; i < r.NumRows(); ++i) {
        ASSERT_EQ(CompareRows(r.Row(i), automatic.Row(i)), 0);
        ASSERT_EQ(r.CountAt(i), automatic.CountAt(i));
      }
    }
  }
}

TEST(EvalTest, Figure1CountIsOne) {
  auto ex = MakeFigure1Example();
  auto count = CountQuery(ex.query, ex.db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count::One());
  auto brute = BruteForceCount(ex.query, ex.db);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(*brute, Count::One());
}

TEST(EvalTest, Figure3CountIsFour) {
  auto ex = MakeFigure3Example();
  auto count = CountQuery(ex.query, ex.db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(4));
}

// A caller's private context sees the whole evaluation, atom scans
// included: every relation row passes through one scan's normalize.
TEST(EvalTest, CountQueryRecordsScansOnTheCallersContext) {
  auto ex = MakeFigure3Example();
  ExecContext ctx;
  JoinOptions opts;
  opts.ctx = &ctx;
  auto count = CountQuery(ex.query, ex.db, opts);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(4));
  uint64_t scanned = 0;
  for (const Atom& atom : ex.query.atoms()) {
    scanned += ex.db.Find(atom.relation)->NumRows();
  }
  const OperatorStats* normalize = ctx.FindStats("normalize");
  ASSERT_NE(normalize, nullptr);
  EXPECT_GE(normalize->rows_in, scanned);
}

TEST(EvalTest, BruteForceJoinMaterializesOutput) {
  auto ex = MakeFigure1Example();
  auto join = BruteForceJoin(ex.query, ex.db);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->NumRows(), 1u);
  EXPECT_EQ(join->arity(), 6u);
}

TEST(EvalTest, DisconnectedComponentsMultiply) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* t = db.AddRelation("T", {"X"});
  r->AppendRow({1});
  r->AppendRow({2});
  t->AppendRow({7});
  t->AppendRow({8});
  t->AppendRow({9});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  auto count = CountQuery(q, db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(6));
}

TEST(EvalTest, EmptyRelationZeroesCount) {
  auto ex = MakeFigure1Example();
  ex.db.Find("R3")->Clear();
  auto count = CountQuery(ex.query, ex.db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count::Zero());
}

TEST(EvalTest, CyclicTriangleViaGhd) {
  Database db;
  auto* e0 = db.AddRelation("E0", {"A", "B"});
  auto* e1 = db.AddRelation("E1", {"B", "C"});
  auto* e2 = db.AddRelation("E2", {"C", "A"});
  // Two triangles sharing an edge: (1,2,3) and (1,2,4).
  e0->AppendRow({1, 2});
  e1->AppendRow({2, 3});
  e1->AppendRow({2, 4});
  e2->AppendRow({3, 1});
  e2->AppendRow({4, 1});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  auto count = CountQuery(q, db);  // falls back to SearchGhd
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(2));
  auto brute = BruteForceCount(q, db);
  EXPECT_EQ(*count, *brute);
}

TEST(EvalTest, BagSemanticsCountDuplicates) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* s = db.AddRelation("S", {"A"});
  r->AppendRow({1});
  r->AppendRow({1});  // duplicate
  s->AppendRow({1});
  s->AppendRow({1});
  s->AppendRow({1});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "S", {"A"});
  auto count = CountQuery(q, db);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, Count(6));
}

}  // namespace
}  // namespace lsens
