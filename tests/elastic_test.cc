#include <gtest/gtest.h>

#include <vector>

#include "query/ghd.h"
#include "query/join_tree.h"
#include "sensitivity/elastic.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;
using testing::MakeRandomAcyclicInstance;

TEST(MaxFreqProviderTest, ComputesFrequencies) {
  auto ex = MakeFigure1Example();
  DataMaxFreqProvider mf(ex.query, ex.db);
  AttrId a = ex.db.attrs().Lookup("A");
  AttrId b = ex.db.attrs().Lookup("B");
  // R1 has 3 rows; a1 appears twice.
  EXPECT_EQ(mf.MaxFreq(0, {}), Count(3));
  EXPECT_EQ(mf.MaxFreq(0, {a}), Count(2));
  EXPECT_EQ(mf.MaxFreq(0, {a, b}), Count(1));
  // R3: a2 appears twice.
  EXPECT_EQ(mf.MaxFreq(2, {a}), Count(2));
}

TEST(MaxFreqProviderTest, IgnoresPredicates) {
  auto ex = MakeFigure1Example();
  Predicate p;
  p.var = ex.db.attrs().Lookup("A");
  p.op = Predicate::Op::kEq;
  p.rhs = -12345;  // matches nothing
  ex.query.AddPredicate(0, p);
  DataMaxFreqProvider mf(ex.query, ex.db);
  EXPECT_EQ(mf.MaxFreq(0, {}), Count(3));  // static analysis: still 3
}

TEST(ClampedMaxFreqProviderTest, CapsKeysetsContainingTheKey) {
  auto ex = MakeFigure1Example();
  DataMaxFreqProvider inner(ex.query, ex.db);
  AttrId a = ex.db.attrs().Lookup("A");
  AttrId e = ex.db.attrs().Lookup("E");
  // Cap atom 2 (R3) on key {A} at 1.
  ClampedMaxFreqProvider clamped(inner, {{2, {{a}, Count(1)}}});
  EXPECT_EQ(clamped.MaxFreq(2, {a}), Count(1));     // was 2
  EXPECT_EQ(clamped.MaxFreq(2, {a, e}), Count(1));  // superset: capped
  EXPECT_EQ(clamped.MaxFreq(2, {e}), Count(2));     // key not covered: raw
  EXPECT_EQ(clamped.MaxFreq(2, {}), Count(3));      // row count untouched
  EXPECT_EQ(clamped.MaxFreq(0, {a}), Count(2));     // other atoms untouched
}

TEST(ElasticTest, UpperBoundsTSensOnPaperExamples) {
  for (auto make : {MakeFigure1Example, MakeFigure3Example}) {
    auto ex = make();
    auto elastic = ElasticSensitivity(ex.query, ex.db);
    ASSERT_TRUE(elastic.ok());
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(tsens.ok());
    EXPECT_GE(elastic->local_sensitivity_bound, tsens->local_sensitivity);
  }
}

TEST(ElasticTest, Figure3ExactValues) {
  auto ex = MakeFigure3Example();
  auto elastic = ElasticSensitivity(ex.query, ex.db);
  ASSERT_TRUE(elastic.ok());
  // Per-relation stability bounds are products of downstream max
  // frequencies; each must dominate TSens' exact per-relation maxima.
  auto tsens = ComputeLocalSensitivity(ex.query, ex.db);
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(elastic->per_atom_bound[static_cast<size_t>(i)],
              tsens->atoms[static_cast<size_t>(i)].max_sensitivity)
        << "atom " << i;
  }
}

TEST(ElasticTest, CrossProductUsesTableSizes) {
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
  auto elastic = ElasticSensitivity(q, db);
  ASSERT_TRUE(elastic.ok());
  // Adding a tuple to R multiplies with all |T| = 3 rows and vice versa.
  EXPECT_EQ(elastic->per_atom_bound[0], Count(3));
  EXPECT_EQ(elastic->per_atom_bound[1], Count(2));
  EXPECT_EQ(elastic->local_sensitivity_bound, Count(3));
}

TEST(ElasticTest, RejectsBadJoinOrder) {
  auto ex = MakeFigure1Example();
  DataMaxFreqProvider mf(ex.query, ex.db);
  EXPECT_FALSE(ElasticSensitivity(ex.query, {0, 1}, mf).ok());
}

TEST(ElasticTest, TightenedNeverExceedsFaithful) {
  Rng rng(515);
  testing::RandomQuerySpec spec;
  spec.predicate_probability = 0.0;
  for (int trial = 0; trial < 25; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto faithful = ElasticSensitivity(ex.query, ex.db, nullptr,
                                       ElasticMode::kFlexFaithful);
    auto tightened = ElasticSensitivity(ex.query, ex.db, nullptr,
                                        ElasticMode::kTightened);
    ASSERT_TRUE(faithful.ok());
    ASSERT_TRUE(tightened.ok());
    for (int a = 0; a < ex.query.num_atoms(); ++a) {
      EXPECT_LE(tightened->per_atom_bound[static_cast<size_t>(a)],
                faithful->per_atom_bound[static_cast<size_t>(a)])
          << ex.query.ToString(ex.db.attrs()) << " atom " << a;
    }
  }
}

TEST(ElasticTest, FaithfulModeAlsoUpperBoundsExactLS) {
  Rng rng(616);
  testing::RandomQuerySpec spec;
  spec.max_atoms = 4;
  spec.max_rows = 5;
  spec.predicate_probability = 0.0;
  for (int trial = 0; trial < 25; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto faithful = ElasticSensitivity(ex.query, ex.db, nullptr,
                                       ElasticMode::kFlexFaithful);
    ASSERT_TRUE(faithful.ok());
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok());
    EXPECT_GE(faithful->local_sensitivity_bound, naive->local_sensitivity)
        << ex.query.ToString(ex.db.attrs());
  }
}

TEST(ElasticDistanceTest, BoundsGrowWithDistance) {
  auto ex = MakeFigure3Example();
  DataMaxFreqProvider mf(ex.query, ex.db);
  std::vector<int> order =
      PlanOrderFromGhd(ResolveDecomposition(ex.query)->ghd());
  Count prev = Count::Zero();
  for (uint64_t k : {0, 1, 2, 5, 10}) {
    auto at_k = ElasticSensitivityAtDistance(ex.query, order, mf, k);
    ASSERT_TRUE(at_k.ok());
    EXPECT_GE(at_k->local_sensitivity_bound, prev) << "k=" << k;
    prev = at_k->local_sensitivity_bound;
  }
}

TEST(ElasticDistanceTest, DistanceZeroMatchesPlain) {
  auto ex = MakeFigure1Example();
  DataMaxFreqProvider mf(ex.query, ex.db);
  std::vector<int> order =
      PlanOrderFromGhd(ResolveDecomposition(ex.query)->ghd());
  auto plain = ElasticSensitivity(ex.query, order, mf);
  auto at_zero = ElasticSensitivityAtDistance(ex.query, order, mf, 0);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(at_zero.ok());
  EXPECT_EQ(plain->local_sensitivity_bound,
            at_zero->local_sensitivity_bound);
}

TEST(SmoothElasticTest, DominatesDistanceZeroAndShrinksWithBeta) {
  auto ex = MakeFigure3Example();
  DataMaxFreqProvider mf(ex.query, ex.db);
  std::vector<int> order =
      PlanOrderFromGhd(ResolveDecomposition(ex.query)->ghd());
  auto base = ElasticSensitivity(ex.query, order, mf);
  ASSERT_TRUE(base.ok());
  double prev = 1e300;
  for (double beta : {0.05, 0.2, 1.0, 5.0}) {
    auto smooth =
        SmoothElasticSensitivity(ex.query, order, mf, beta, /*atom=*/1);
    ASSERT_TRUE(smooth.ok()) << smooth.status().ToString();
    // k = 0 term alone is S^(0), so the smooth max dominates it.
    EXPECT_GE(smooth->smooth_bound,
              base->per_atom_bound[1].ToDouble() - 1e-9);
    // Larger beta discounts far distances harder: bound non-increasing.
    EXPECT_LE(smooth->smooth_bound, prev + 1e-9);
    prev = smooth->smooth_bound;
  }
  // With strong damping the max is attained at distance 0.
  auto strong =
      SmoothElasticSensitivity(ex.query, order, mf, 50.0, /*atom=*/1);
  ASSERT_TRUE(strong.ok());
  EXPECT_EQ(strong->argmax_distance, 0u);
}

TEST(SmoothElasticTest, ValidatesArguments) {
  auto ex = MakeFigure3Example();
  DataMaxFreqProvider mf(ex.query, ex.db);
  std::vector<int> order =
      PlanOrderFromGhd(ResolveDecomposition(ex.query)->ghd());
  EXPECT_FALSE(
      SmoothElasticSensitivity(ex.query, order, mf, -1.0, 0).ok());
  EXPECT_FALSE(
      SmoothElasticSensitivity(ex.query, order, mf, 0.5, 99).ok());
}

TEST(ElasticTest, RandomInstancesUpperBoundExactLS) {
  Rng rng(2024);
  testing::RandomQuerySpec spec;
  spec.max_atoms = 4;
  spec.max_rows = 5;
  spec.predicate_probability = 0.0;  // elastic ignores predicates
  for (int trial = 0; trial < 40; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto elastic = ElasticSensitivity(ex.query, ex.db);
    ASSERT_TRUE(elastic.ok()) << elastic.status().ToString();
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    EXPECT_GE(elastic->local_sensitivity_bound, naive->local_sensitivity)
        << "trial " << trial << ": "
        << ex.query.ToString(ex.db.attrs());
  }
}

}  // namespace
}  // namespace lsens
