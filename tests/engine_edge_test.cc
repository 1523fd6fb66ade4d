// Edge cases and failure injection for the execution and sensitivity
// engines: degenerate shapes (empty relations, unit relations, saturating
// counts), contract violations (death tests), and option interactions.

#include <gtest/gtest.h>

#include "query/enumerate.h"
#include "query/eval.h"
#include "query/ghd.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure3Example;
using testing::MakeRandomAcyclicInstance;

TEST(EngineEdgeTest, PredicateEmptiesARelation) {
  auto ex = MakeFigure3Example();
  // No R3 row has C = <fresh value>; the predicate empties R3.
  Predicate p;
  p.var = ex.db.attrs().Lookup("C");
  p.op = Predicate::Op::kEq;
  p.rhs = 999999;
  ex.query.AddPredicate(2, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Inserting a satisfying R3 tuple could still connect paths: (c,d) with
  // c = 999999 never joins R2 (no such C value), so everything is zero.
  EXPECT_EQ(result->local_sensitivity, Count::Zero());
}

TEST(EngineEdgeTest, PredicateOnSharedValueKeepsInsertionAlive) {
  auto ex = MakeFigure3Example();
  // R3 restricted to C = c1 (which exists): inserting more (c1, d) tuples
  // still joins; LS must stay positive.
  Predicate p;
  p.var = ex.db.attrs().Lookup("C");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("c1");
  ex.query.AddPredicate(2, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->local_sensitivity, Count::Zero());
  // Matches the oracle.
  auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(result->local_sensitivity, naive->local_sensitivity);
}

TEST(EngineEdgeTest, AllRelationsEmpty) {
  Database db;
  db.AddRelation("R", {"A", "B"});
  db.AddRelation("S", {"B", "C"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "S", {"B", "C"});
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  // Adding one tuple anywhere cannot produce output (the other relation is
  // empty), so LS = 0 and there is no witness.
  EXPECT_EQ(result->local_sensitivity, Count::Zero());
  EXPECT_EQ(result->MostSensitive(), nullptr);
  EXPECT_FALSE(MaterializeMostSensitiveTuple(*result, q).ok());
}

TEST(EngineEdgeTest, LargeCrossProductCountsStayExact) {
  // Five disconnected unary relations, each one distinct tuple duplicated
  // 4096 times: LS = 4096^4 (inserting a fresh tuple into one component
  // multiplies the other four components' totals) — 2^48, well past what a
  // 32-bit counter would hold, exercising the wide-count path end to end.
  Database db;
  ConjunctiveQuery q;
  for (int i = 0; i < 5; ++i) {
    std::string name = "R" + std::to_string(i);
    std::string var = "x" + std::to_string(i);
    auto* rel = db.AddRelation(name, {var});
    for (int r = 0; r < 4096; ++r) rel->AppendRow({7});
    q.AddAtom(db, name, {var});
  }
  auto count = CountQuery(q, db);
  ASSERT_TRUE(count.ok());
  Count expected_total = Count::One();
  for (int i = 0; i < 5; ++i) expected_total *= Count(4096);
  EXPECT_EQ(*count, expected_total);

  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  Count expected_ls = Count::One();
  for (int i = 0; i < 4; ++i) expected_ls *= Count(4096);
  EXPECT_EQ(result->local_sensitivity, expected_ls);
}

TEST(EngineEdgeTest, KeepTablesOnMultiAtomBags) {
  // Per-tuple sensitivities through a GHD whose bag holds two atoms must
  // match the oracle (the multiplicity table folds the co-atom in).
  Database db;
  auto* e0 = db.AddRelation("E0", {"A", "B"});
  auto* e1 = db.AddRelation("E1", {"B", "C"});
  auto* e2 = db.AddRelation("E2", {"C", "A"});
  e0->AppendRow({1, 2});
  e0->AppendRow({1, 3});
  e1->AppendRow({2, 5});
  e1->AppendRow({3, 5});
  e2->AppendRow({5, 1});
  e2->AppendRow({5, 1});  // duplicate
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  auto ghd = BuildGhd(q, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok());
  TSensComputeOptions opts;
  opts.ghd = &*ghd;
  auto sens = TupleSensitivities(q, db, opts);
  ASSERT_TRUE(sens.ok()) << sens.status().ToString();
  for (int atom = 0; atom < 3; ++atom) {
    const Relation* rel = db.Find(q.atom(atom).relation);
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < rel->NumRows(); ++r) {
      rows.push_back(rel->Row(r));
    }
    NaiveOptions nopts;
    nopts.ghd = &*ghd;
    for (size_t r = 0; r < rows.size(); ++r) {
      auto naive = NaiveTupleSensitivity(q, db, atom, rows[r], nopts);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ((*sens)[static_cast<size_t>(atom)][r], *naive)
          << "atom " << atom << " row " << r;
    }
  }
}

// The §5.4 scale: a tuple of one tree joins every result of the other.
TEST(EngineEdgeTest, DisconnectedKeepTablesScalesTables) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* t = db.AddRelation("T", {"X"});
  r->AppendRow({1});
  r->AppendRow({1});
  t->AppendRow({5});
  t->AppendRow({6});
  t->AppendRow({7});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  auto sens = TupleSensitivities(q, db);
  ASSERT_TRUE(sens.ok());
  // Every R tuple participates in |T| = 3 outputs; every T tuple in 2.
  EXPECT_EQ((*sens)[0], std::vector<Count>(2, Count(3)));
  EXPECT_EQ((*sens)[1], std::vector<Count>(3, Count(2)));
}

TEST(EngineEdgeTest, SkipAtomsNeverRaisesLs) {
  Rng rng(31007);
  testing::RandomQuerySpec spec;
  for (int trial = 0; trial < 10; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto full = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(full.ok());
    auto full_sens = TupleSensitivities(ex.query, ex.db);
    ASSERT_TRUE(full_sens.ok());
    for (int skip = 0; skip < ex.query.num_atoms(); ++skip) {
      TSensComputeOptions opts;
      opts.skip_atoms = {skip};
      auto partial = ComputeLocalSensitivity(ex.query, ex.db, opts);
      ASSERT_TRUE(partial.ok());
      EXPECT_LE(partial->local_sensitivity, full->local_sensitivity);
      EXPECT_TRUE(partial->atoms[static_cast<size_t>(skip)].skipped);
      // And it equals the max over non-skipped atoms of the full run.
      Count expected = Count::Zero();
      for (int a = 0; a < ex.query.num_atoms(); ++a) {
        if (a == skip) continue;
        expected = std::max(expected,
                            full->atoms[static_cast<size_t>(a)]
                                .max_sensitivity);
      }
      EXPECT_EQ(partial->local_sensitivity, expected);
      // A skipped atom gets no tuple sensitivities; the others keep theirs.
      auto partial_sens = TupleSensitivities(ex.query, ex.db, opts);
      ASSERT_TRUE(partial_sens.ok());
      for (int a = 0; a < ex.query.num_atoms(); ++a) {
        const size_t i = static_cast<size_t>(a);
        if (a == skip) {
          EXPECT_TRUE((*partial_sens)[i].empty());
        } else {
          EXPECT_EQ((*partial_sens)[i], (*full_sens)[i]);
        }
      }
    }
  }
}

TEST(EngineEdgeTest, SearchGhdRefusesHugeQueries) {
  Database db;
  ConjunctiveQuery q;
  for (int i = 0; i < 14; ++i) {
    std::string name = "R" + std::to_string(i);
    db.AddRelation(name, {"a" + std::to_string(i),
                          "a" + std::to_string(i + 1)});
    q.AddAtom(db, name,
              {"a" + std::to_string(i), "a" + std::to_string(i + 1)});
  }
  EXPECT_EQ(SearchGhd(q, 2, /*max_atoms=*/12).status().code(),
            Status::Code::kUnsupported);
}

TEST(EngineEdgeTest, TupleSensitivitiesValidatesInputs) {
  Database db;
  db.AddRelation("R", {"A", "B"})->AppendRow({1, 2});
  db.AddRelation("S", {"B", "C"})->AppendRow({2, 3});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "S", {"B", "C"});
  ASSERT_TRUE(TupleSensitivities(q, db).ok());
  // A database the query does not fit: S has arity 1 there.
  Database other;
  other.AddRelation("R", {"A", "B"})->AppendRow({1, 2});
  other.AddRelation("S", {"B"})->AppendRow({2});
  EXPECT_EQ(TupleSensitivities(q, other).status().code(),
            Status::Code::kInvalidArgument);
  // A GHD naming an atom outside the query.
  Ghd ghd = *BuildGhd(q, {{0}, {1}});
  ghd.bags[1].atom_indices = {7};
  TSensComputeOptions options;
  options.ghd = &ghd;
  EXPECT_EQ(TupleSensitivities(q, db, options).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(EngineEdgeDeathTest, DoubleDefaultedJoinIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CountedRelation a({1});
  a.AppendRow({0}, Count::One());
  a.Normalize();
  a.set_default_count(Count(2));
  CountedRelation b({1});
  b.AppendRow({0}, Count::One());
  b.Normalize();
  b.set_default_count(Count(3));
  EXPECT_DEATH(NaturalJoin(a, b), "at most one defaulted side");
}

TEST(EngineEdgeDeathTest, UncoveredDefaultedJoinIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CountedRelation a({1});
  a.AppendRow({0}, Count::One());
  a.Normalize();
  CountedRelation b({1, 2});  // attrs not covered by a's
  b.AppendRow({0, 7}, Count::One());
  b.Normalize();
  b.set_default_count(Count(3));
  EXPECT_DEATH(NaturalJoin(a, b), "covered");
}

TEST(EngineEdgeDeathTest, GroupByOnDefaultedRelationIsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CountedRelation r({1, 2});
  r.AppendRow({0, 1}, Count::One());
  r.Normalize();
  r.set_default_count(Count(5));
  EXPECT_DEATH(GroupBySum(r, {1}), "defaulted");
}

}  // namespace
}  // namespace lsens
