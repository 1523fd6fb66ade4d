// Random GHD shapes against the oracles: the cold engine against the naive
// Theorem 3.1 baseline (sensitivity/naive.h), and SensitivityCache against
// from-scratch recomputation under random delta streams. The shapes are
// the ones the bag-fold kernels work hardest on: random multi-atom-bag
// forests, 4- and 5-cycles split into two bags, and TPC-H q3's Figure 5a
// decomposition on random data.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/exec_context.h"
#include "query/eval.h"
#include "query/ghd.h"
#include "sensitivity/incremental.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::BagInstance;
using testing::MakeRandomBagInstance;
using testing::MakeRandomCycleInstance;
using testing::MakeRandomQ3Instance;
using testing::MakeRandomScrambledPath;

// The shape families, each drawn from one rng.
struct Shape {
  std::string name;
  std::function<BagInstance(Rng&)> make;
};

std::vector<Shape> Shapes() {
  return {
      {"bags", [](Rng& rng) {
         return MakeRandomBagInstance(rng, rng.NextDouble() < 0.3 ? 2 : 1);
       }},
      {"4-cycle", [](Rng& rng) {
         return MakeRandomCycleInstance(rng, 4, /*max_rows=*/7,
                                        /*domain_size=*/3,
                                        /*predicates=*/true);
       }},
      {"5-cycle", [](Rng& rng) {
         return MakeRandomCycleInstance(rng, 5, /*max_rows=*/6,
                                        /*domain_size=*/3,
                                        /*predicates=*/true);
       }},
      {"q3", [](Rng& rng) {
         return MakeRandomQ3Instance(rng, /*max_rows=*/6, /*domain_size=*/3);
       }},
  };
}

// Every field a repairing cache must reproduce.
void ExpectSameResult(const SensitivityResult& a, const SensitivityResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.local_sensitivity, b.local_sensitivity) << context;
  EXPECT_EQ(a.argmax_atom, b.argmax_atom) << context;
  ASSERT_EQ(a.atoms.size(), b.atoms.size()) << context;
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    const std::string at = context + " atom " + std::to_string(i);
    EXPECT_EQ(a.atoms[i].max_sensitivity, b.atoms[i].max_sensitivity) << at;
    EXPECT_EQ(a.atoms[i].argmax, b.atoms[i].argmax) << at;
    EXPECT_EQ(a.atoms[i].skipped, b.atoms[i].skipped) << at;
    EXPECT_EQ(a.atoms[i].approximate, b.atoms[i].approximate) << at;
  }
}

class GhdOracleTest : public ::testing::TestWithParam<uint64_t> {};

// |Q(D)| over the instance's own GHD equals the brute-force join's size, and
// LS over that GHD and over the facade's choice (GYO or searched) both
// equal the naive oracle's.
TEST_P(GhdOracleTest, EngineMatchesNaive) {
  Rng rng(GetParam() * 7919 + 3);
  for (const Shape& shape : Shapes()) {
    for (int trial = 0; trial < 8; ++trial) {
      BagInstance inst = shape.make(rng);
      const std::string context = shape.name + " trial " +
                                  std::to_string(trial) + ": " +
                                  inst.query.ToString(inst.db.attrs());
      auto ghd = BuildGhd(inst.query, inst.bags);
      ASSERT_TRUE(ghd.ok()) << context << ghd.status().ToString();
      auto count = CountGhd(inst.query, *ghd, inst.db);
      auto brute = BruteForceCount(inst.query, inst.db);
      ASSERT_TRUE(count.ok()) << context << count.status().ToString();
      ASSERT_TRUE(brute.ok()) << context << brute.status().ToString();
      EXPECT_EQ(*count, *brute) << context;
      NaiveOptions naive_options;
      naive_options.ghd = &*ghd;
      auto naive = NaiveLocalSensitivity(inst.query, inst.db, naive_options);
      ASSERT_TRUE(naive.ok()) << context << naive.status().ToString();
      for (const Ghd* plan_ghd : std::vector<const Ghd*>{&*ghd, nullptr}) {
        TSensComputeOptions options;
        options.ghd = plan_ghd;
        auto tsens = ComputeLocalSensitivity(inst.query, inst.db, options);
        ASSERT_TRUE(tsens.ok()) << context << tsens.status().ToString();
        EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity)
            << context << (plan_ghd != nullptr ? " (own GHD)" : " (facade)");
      }
    }
  }
}

// After every prefix of a random delta stream, the cache's answer (repaired
// where it can) equals a from-scratch compute, for the instance's own GHD.
TEST_P(GhdOracleTest, CacheMatchesScratchUnderRandomDeltas) {
  Rng rng(GetParam() * 6151 + 29);
  for (const Shape& shape : Shapes()) {
    for (int trial = 0; trial < 3; ++trial) {
      BagInstance inst = shape.make(rng);
      const std::string context = shape.name + " trial " +
                                  std::to_string(trial) + ": " +
                                  inst.query.ToString(inst.db.attrs());
      auto ghd = BuildGhd(inst.query, inst.bags);
      ASSERT_TRUE(ghd.ok()) << context << ghd.status().ToString();
      TSensComputeOptions options;
      options.ghd = &*ghd;
      SensitivityCacheConfig config;
      config.max_delta_fraction = 1.0;  // repair whenever the log allows
      SensitivityCache cache(config);
      const std::vector<std::string> relations =
          testing::QueryRelationNames(inst.query);
      for (int step = 0; step < 10; ++step) {
        const std::string at = context + " step " + std::to_string(step);
        auto cached = cache.Compute(inst.query, inst.db, options);
        ASSERT_TRUE(cached.ok()) << at << cached.status().ToString();
        auto fresh = ComputeLocalSensitivity(inst.query, inst.db, options);
        ASSERT_TRUE(fresh.ok()) << at << fresh.status().ToString();
        ExpectSameResult(*cached, *fresh, at);
        testing::ApplyRandomMutation(rng, inst.db, relations,
                                     /*domain=*/3);
      }
      EXPECT_EQ(cache.stats().fallback_unsupported, 0u) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GhdOracleTest,
                         ::testing::Values(1, 2, 3, 4));

// A connected query consumes no cross-tree scale factor, so a cold compute
// folds no root bag just to total it. The 4-cycle over bags {C0,C1} (root)
// and {C2,C3} folds exactly six times: ⊥ of the child bag, ⊤ from the
// root's two atoms, and one component fold per atom (each atom's
// multiplicity table is one attribute-sharing component, reduced to its
// max row).
TEST(GhdDataflowTest, ConnectedComputeFoldsNoRootBag) {
  Rng rng(17);
  BagInstance inst = MakeRandomCycleInstance(rng, 4, /*max_rows=*/6,
                                             /*domain_size=*/3,
                                             /*predicates=*/false);
  auto ghd = BuildGhd(inst.query, {{0, 1}, {2, 3}});
  ASSERT_TRUE(ghd.ok()) << ghd.status().ToString();
  ASSERT_EQ(ghd->forest.trees.size(), 1u);
  ExecContext ctx;
  TSensComputeOptions options;
  options.ghd = &*ghd;
  options.join.ctx = &ctx;
  ASSERT_TRUE(ComputeLocalSensitivity(inst.query, inst.db, options).ok());
  const OperatorStats* folds = ctx.FindStats("fold_join");
  ASSERT_NE(folds, nullptr);
  EXPECT_EQ(folds->calls, 6u);
}

// On a path under top-k (Algorithm 1 on the join tree), the ⊥/⊤
// recursions fold the truncated copies of their tables, and each atom's
// maximum reads the untruncated tables. Here R2's predicate filters out
// the only ⊤ row top-k keeps, so reading the truncated ⊤ would report its
// default (2) instead of the exact 1.
TEST(GhdDataflowTest, PathTopKMatchesTreeTopK) {
  Database db;
  Relation* r1 = db.AddRelation("R1", {"a", "b"});
  r1->AppendRow({10, 1});
  r1->AppendRow({11, 1});
  r1->AppendRow({12, 2});
  Relation* r2 = db.AddRelation("R2", {"b", "c"});
  r2->AppendRow({1, 5});
  r2->AppendRow({2, 5});
  r2->AppendRow({2, 6});
  Relation* r3 = db.AddRelation("R3", {"c", "d"});
  r3->AppendRow({5, 7});
  r3->AppendRow({6, 7});
  r3->AppendRow({6, 8});
  ConjunctiveQuery q;
  q.AddAtom(db, "R1", {"A", "B"});
  const int r2_atom = q.AddAtom(db, "R2", {"B", "C"});
  q.AddAtom(db, "R3", {"C", "D"});
  Predicate p;
  p.var = db.attrs().Lookup("B");
  p.op = Predicate::Op::kEq;
  p.rhs = 2;
  q.AddPredicate(r2_atom, p);

  TSensComputeOptions top_k;
  top_k.top_k = 1;
  auto r = ComputeLocalSensitivity(q, db, top_k);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->atoms[static_cast<size_t>(r2_atom)].max_sensitivity,
            Count(2));  // ⊤ = 1 row with B = 2, ⊥ = 2 rows of R3 with C = 6
}

// No group node copies its only child: BuildGhdDataflow resolves such a
// group to the child. Checked on the plans of every random shape, over its
// own GHD and the facade's choice, and on scrambled paths, whose chain ends
// are single-atom leaves.
TEST(GhdDataflowTest, NoGroupNodeCopiesItsOnlyChild) {
  auto expect_no_copy = [](const ConjunctiveQuery& q, const Ghd* ghd,
                           const std::string& context) {
    TSensComputeOptions options;
    options.ghd = ghd;
    auto plan = PlanSensitivity(q, options);
    ASSERT_TRUE(plan.ok()) << context << plan.status().ToString();
    const std::vector<DataflowNode>& nodes = plan->dataflow.nodes;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].kind != DataflowNode::Kind::kGroup ||
          nodes[i].children.size() != 1) {
        continue;
      }
      const size_t child = static_cast<size_t>(nodes[i].children[0]);
      EXPECT_NE(nodes[i].attrs, nodes[child].attrs)
          << context << ": node " << i << " " << nodes[i].sig;
    }
  };
  Rng rng(2024);
  for (const Shape& shape : Shapes()) {
    for (int trial = 0; trial < 10; ++trial) {
      BagInstance inst = shape.make(rng);
      const std::string context = shape.name + " trial " +
                                  std::to_string(trial) + ": " +
                                  inst.query.ToString(inst.db.attrs());
      auto ghd = BuildGhd(inst.query, inst.bags);
      ASSERT_TRUE(ghd.ok()) << context << ghd.status().ToString();
      expect_no_copy(inst.query, &*ghd, context + " (own GHD)");
      expect_no_copy(inst.query, nullptr, context + " (facade)");
    }
  }
  for (int trial = 0; trial < 20; ++trial) {
    testing::PaperExample ex = MakeRandomScrambledPath(rng);
    expect_no_copy(ex.query, nullptr,
                   "path trial " + std::to_string(trial) + ": " +
                       ex.query.ToString(ex.db.attrs()));
  }
}

// Under top_k the tree totals of a forest read untruncated tables. Each
// tree here is a single-atom root with one child, so the child's ⊤ and ⊥
// are the two S tables, and the recursions truncate both; the tree's total
// folds them untruncated. Every multiplicity table is one of these S
// tables, read untruncated too, so each atom's maximum is its exact T max
// times the other tree's exact join size.
TEST(GhdDataflowTest, TopKForestTotalsAreExact) {
  Database db;
  Relation* r1 = db.AddRelation("R1", {"a", "b"});
  for (Value b : {1, 1, 1, 2, 3, 3}) r1->AppendRow({0, b});
  Relation* r2 = db.AddRelation("R2", {"b", "c"});
  for (Value b : {1, 2, 2, 3}) r2->AppendRow({b, 0});
  Relation* r3 = db.AddRelation("R3", {"d", "e"});
  for (Value e : {1, 1, 2}) r3->AppendRow({0, e});
  Relation* r4 = db.AddRelation("R4", {"e", "f"});
  for (Value e : {1, 2, 2, 2}) r4->AppendRow({e, 0});
  ConjunctiveQuery q;
  q.AddAtom(db, "R1", {"A", "B"});
  q.AddAtom(db, "R2", {"B", "C"});
  q.AddAtom(db, "R3", {"D", "E"});
  q.AddAtom(db, "R4", {"E", "F"});
  // Tree {R1, R2} joins 3·1 + 1·2 + 2·1 = 7 rows, tree {R3, R4} 2·1 + 1·3
  // = 5. A total over truncated tables would read 12 and 8 or 9.
  auto exact = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  TSensComputeOptions top_k;
  top_k.top_k = 1;
  auto r = ComputeLocalSensitivity(q, db, top_k);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<Count> expected{Count(2 * 5), Count(3 * 5), Count(3 * 7),
                                    Count(2 * 7)};
  for (size_t a = 0; a < expected.size(); ++a) {
    EXPECT_EQ(r->atoms[a].max_sensitivity, expected[a]) << "atom " << a;
    EXPECT_EQ(exact->atoms[a].max_sensitivity, expected[a]) << "atom " << a;
  }
  EXPECT_GE(r->local_sensitivity, exact->local_sensitivity);
}

}  // namespace
}  // namespace lsens
