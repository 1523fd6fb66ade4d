// Property-based tests: TSens must agree exactly with the naive
// re-evaluation oracle (Theorem 3.1) on randomized queries and instances,
// and the execution engine must agree with brute-force join counting.

#include <gtest/gtest.h>

#include "query/eval.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeRandomAcyclicInstance;
using testing::MakeRandomTriangleInstance;
using testing::RandomQuerySpec;

class AcyclicPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AcyclicPropertyTest, CountMatchesBruteForce) {
  Rng rng(GetParam());
  RandomQuerySpec spec;
  for (int trial = 0; trial < 25; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto fast = CountQuery(ex.query, ex.db);
    auto brute = BruteForceCount(ex.query, ex.db);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_EQ(*fast, *brute) << ex.query.ToString(ex.db.attrs());
  }
}

TEST_P(AcyclicPropertyTest, TSensMatchesNaiveOracle) {
  Rng rng(GetParam() ^ 0x5eedULL);
  RandomQuerySpec spec;
  for (int trial = 0; trial < 20; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(tsens->local_sensitivity, naive->local_sensitivity)
        << "trial " << trial << ": " << ex.query.ToString(ex.db.attrs());

    // The reported most sensitive tuple must actually achieve LS.
    if (!tsens->local_sensitivity.IsZero()) {
      auto tuple = MaterializeMostSensitiveTuple(*tsens, ex.query);
      if (tuple.ok()) {
        auto delta = NaiveTupleSensitivity(ex.query, ex.db, tuple->first,
                                           tuple->second);
        ASSERT_TRUE(delta.ok());
        EXPECT_EQ(*delta, tsens->local_sensitivity)
            << ex.query.ToString(ex.db.attrs());
      }
    }
  }
}

TEST_P(AcyclicPropertyTest, PerTupleSensitivitiesMatchOracle) {
  Rng rng(GetParam() ^ 0x7a91ULL);
  RandomQuerySpec spec;
  spec.max_atoms = 4;
  spec.max_rows = 5;
  for (int trial = 0; trial < 8; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    TSensComputeOptions opts;
    opts.keep_tables = true;
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(tsens.ok());
    for (int atom = 0; atom < ex.query.num_atoms(); ++atom) {
      auto sens = TupleSensitivities(*tsens, ex.query, ex.db, atom);
      ASSERT_TRUE(sens.ok());
      // Snapshot rows first: NaiveTupleSensitivity restores contents but
      // may permute row order.
      const Relation* rel = ex.db.Find(ex.query.atom(atom).relation);
      std::vector<std::vector<Value>> rows;
      for (size_t r = 0; r < rel->NumRows(); ++r) {
        rows.push_back(rel->Row(r));
      }
      for (size_t row = 0; row < rows.size(); ++row) {
        auto naive = NaiveTupleSensitivity(ex.query, ex.db, atom, rows[row]);
        ASSERT_TRUE(naive.ok());
        EXPECT_EQ((*sens)[row], *naive)
            << ex.query.ToString(ex.db.attrs()) << " atom " << atom
            << " row " << row;
      }
    }
  }
}

TEST_P(AcyclicPropertyTest, TopKIsAlwaysAnUpperBound) {
  Rng rng(GetParam() ^ 0x70b0ULL);
  RandomQuerySpec spec;
  for (int trial = 0; trial < 15; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    auto exact = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(exact.ok());
    for (size_t k : {1, 2, 3}) {
      TSensComputeOptions opts;
      opts.top_k = k;
      auto approx = ComputeLocalSensitivity(ex.query, ex.db, opts);
      ASSERT_TRUE(approx.ok());
      EXPECT_GE(approx->local_sensitivity, exact->local_sensitivity)
          << "k=" << k << " " << ex.query.ToString(ex.db.attrs());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcyclicPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class PathPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// On a path query the facade's join-tree engine is Algorithm 1. Declared
// out of chain order, with each relation's columns in random order, its LS
// and winning atom (lowest index among ties) must match the oracle's.
TEST_P(PathPropertyTest, PathAlgorithmMatchesEngineAndOracle) {
  Rng rng(GetParam() * 7919);
  for (int trial = 0; trial < 40; ++trial) {
    // The chain R0(x0,x1), R1(x1,x2), ..., with random data.
    const int m = static_cast<int>(rng.NextInRange(2, 7));
    std::vector<int> declared(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) declared[static_cast<size_t>(i)] = i;
    for (int i = m - 1; i > 0; --i) {
      std::swap(declared[static_cast<size_t>(i)],
                declared[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
    testing::PaperExample ex;
    for (int i : declared) {
      std::vector<std::string> vars{"x" + std::to_string(i),
                                    "x" + std::to_string(i + 1)};
      if (rng.NextBounded(2) == 1) std::swap(vars[0], vars[1]);
      auto* rel = ex.db.AddRelation("R" + std::to_string(i), vars);
      int rows = static_cast<int>(rng.NextInRange(0, 7));
      for (int r = 0; r < rows; ++r) {
        rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                        static_cast<Value>(rng.NextBounded(3))});
      }
      ex.query.AddAtom(ex.db, "R" + std::to_string(i), vars);
    }
    ASSERT_EQ(PathOrder(ex.query).size(), static_cast<size_t>(m));
    const std::string context = ex.query.ToString(ex.db.attrs());

    auto tsens = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity) << context;
    if (!naive->local_sensitivity.IsZero()) {
      EXPECT_EQ(tsens->argmax_atom, naive->argmax_atom) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class TrianglePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrianglePropertyTest, GhdTSensMatchesNaive) {
  Rng rng(GetParam() * 104729);
  for (int trial = 0; trial < 10; ++trial) {
    auto ex = MakeRandomTriangleInstance(rng, /*max_rows=*/8,
                                         /*domain_size=*/3);
    auto ghd = BuildGhd(ex.query, {{0, 1}, {2}});
    ASSERT_TRUE(ghd.ok());
    TSensComputeOptions opts;
    opts.ghd = &*ghd;
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();

    NaiveOptions nopts;
    nopts.ghd = &*ghd;
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, nopts);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity)
        << "trial " << trial;

    // GHD evaluation count vs brute force.
    auto fast = CountGhd(ex.query, *ghd, ex.db);
    auto brute = BruteForceCount(ex.query, ex.db);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(*fast, *brute);
  }
}

TEST_P(TrianglePropertyTest, AlternativeGhdBagsAgree) {
  Rng rng(GetParam() * 31337 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    auto ex = MakeRandomTriangleInstance(rng, 6, 3);
    Count ls[3];
    int which = 0;
    for (auto bags : {std::vector<std::vector<int>>{{0, 1}, {2}},
                      std::vector<std::vector<int>>{{1, 2}, {0}},
                      std::vector<std::vector<int>>{{0, 2}, {1}}}) {
      auto ghd = BuildGhd(ex.query, bags);
      ASSERT_TRUE(ghd.ok());
      TSensComputeOptions opts;
      opts.ghd = &*ghd;
      auto tsens = ComputeLocalSensitivity(ex.query, ex.db, opts);
      ASSERT_TRUE(tsens.ok());
      ls[which++] = tsens->local_sensitivity;
    }
    EXPECT_EQ(ls[0], ls[1]);
    EXPECT_EQ(ls[1], ls[2]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrianglePropertyTest,
                         ::testing::Values(1, 2, 3, 4));

class HardAcyclicPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HardAcyclicPropertyTest, StarWithCyclicMultiplicityJoinMatchesOracle) {
  // §5.2's worst case for Algorithm 2: Q :- R0(A,B,C), R1(A,B), R2(B,C),
  // R3(C,A) is acyclic, but R0's multiplicity table is the triangle join
  // of the three botjoins (size up to n^{3/2} by the AGM bound). Randomized
  // instances must still match the re-evaluation oracle exactly.
  Rng rng(GetParam() * 7001);
  for (int trial = 0; trial < 8; ++trial) {
    testing::PaperExample ex;
    auto* r0 = ex.db.AddRelation("R0", {"A", "B", "C"});
    auto* r1 = ex.db.AddRelation("R1", {"A", "B"});
    auto* r2 = ex.db.AddRelation("R2", {"B", "C"});
    auto* r3 = ex.db.AddRelation("R3", {"C", "A"});
    auto fill = [&](Relation* rel, uint64_t max_rows) {
      uint64_t rows = rng.NextBounded(max_rows + 1);
      std::vector<Value> row(rel->arity());
      for (uint64_t i = 0; i < rows; ++i) {
        for (auto& v : row) v = static_cast<Value>(rng.NextBounded(3));
        rel->AppendRow(row);
      }
    };
    fill(r0, 6);
    fill(r1, 6);
    fill(r2, 6);
    fill(r3, 6);
    ex.query.AddAtom(ex.db, "R0", {"A", "B", "C"});
    ex.query.AddAtom(ex.db, "R1", {"A", "B"});
    ex.query.AddAtom(ex.db, "R2", {"B", "C"});
    ex.query.AddAtom(ex.db, "R3", {"C", "A"});

    ASSERT_TRUE(IsAcyclic(ex.query));
    auto tsens = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(tsens.ok()) << tsens.status().ToString();
    auto naive = NaiveLocalSensitivity(ex.query, ex.db, {});
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(tsens->local_sensitivity, naive->local_sensitivity)
        << "trial " << trial;

    // Per-tuple sensitivities through the cyclic multiplicity join.
    TSensComputeOptions topts;
    topts.keep_tables = true;
    auto with_tables = ComputeLocalSensitivity(ex.query, ex.db, topts);
    ASSERT_TRUE(with_tables.ok());
    auto sens = TupleSensitivities(*with_tables, ex.query, ex.db, 0);
    ASSERT_TRUE(sens.ok());
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < r0->NumRows(); ++r) {
      rows.push_back(r0->Row(r));
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      auto oracle = NaiveTupleSensitivity(ex.query, ex.db, 0, rows[r]);
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ((*sens)[r], *oracle) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HardAcyclicPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(JoinAlgorithmPropertyTest, SortMergeAndHashAgreeOnQueries) {
  Rng rng(777);
  RandomQuerySpec spec;
  for (int trial = 0; trial < 15; ++trial) {
    auto ex = MakeRandomAcyclicInstance(rng, spec);
    TSensComputeOptions hash_opts;
    hash_opts.join.algorithm = JoinAlgorithm::kHash;
    TSensComputeOptions merge_opts;
    merge_opts.join.algorithm = JoinAlgorithm::kSortMerge;
    auto a = ComputeLocalSensitivity(ex.query, ex.db, hash_opts);
    auto b = ComputeLocalSensitivity(ex.query, ex.db, merge_opts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->local_sensitivity, b->local_sensitivity);
  }
}

}  // namespace
}  // namespace lsens
