// Max-only multiplicity tables. The exec-level suite pins GroupMax against
// the materialized GroupBySum(NaturalJoin(a, b), g) + MaxCount/ArgMaxRow it
// replaces, and FoldJoinButLast against FoldJoin. The engine-level
// differential suite asserts that a plain compute (which takes the GroupMax
// path wherever it applies) reports every atom's max_sensitivity, argmax
// and approximate flag bit for bit equal to an EvaluateDataflow run that
// takes the node tables (which always materializes), over randomized
// acyclic, GHD/cyclic and disconnected shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/counted_relation.h"
#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "exec/group_max.h"
#include "exec/join.h"
#include "query/ghd.h"
#include "sensitivity/tsens.h"
#include "test_util.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

using testing::BagInstance;
using testing::MakeRandomBagInstance;

// The max row of γ_g(a ⋈ b) as the materialized path computes it.
CountedRelation ReferenceMaxRow(const CountedRelation& a,
                                const CountedRelation& b,
                                const AttributeSet& g) {
  CountedRelation table = GroupBySum(NaturalJoin(a, b), g);
  CountedRelation out(g);
  const size_t r = table.ArgMaxRow();
  if (r != SIZE_MAX) out.AppendRow(table.Row(r), table.CountAt(r));
  return out;
}

void ExpectSameRows(const CountedRelation& got, const CountedRelation& want) {
  ASSERT_EQ(got.attrs(), want.attrs());
  ASSERT_EQ(got.NumRows(), want.NumRows());
  for (size_t i = 0; i < got.NumRows(); ++i) {
    EXPECT_EQ(CompareRows(got.Row(i), want.Row(i)), 0) << "row " << i;
    EXPECT_EQ(got.CountAt(i), want.CountAt(i)) << "row " << i;
  }
}

// True if no two rows of γ_{(side ∩ g) ∪ key}(side) agree on side ∩ g —
// the uniqueness half of GroupMax's injectivity test, computed by brute
// force.
bool SideUniqueOnGroup(const CountedRelation& side, const AttributeSet& key,
                       const AttributeSet& g) {
  const AttributeSet side_g = Intersect(side.attrs(), g);
  CountedRelation pre = GroupBySum(side, Union(side_g, key));
  return GroupBySum(pre, side_g).NumRows() == pre.NumRows();
}

// A count drawn from small values, products near 2^64, and values near
// Count::Max(), so products in the join cross the saturation boundary.
Count RandomCount(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:
      return Count(1 + rng.NextBounded(3));
    case 1:
      return Count(1 + rng.NextBounded(1000));
    case 2:
      return Count(~uint64_t{0} - rng.NextBounded(2));
    default:
      return Count(~uint64_t{0} - rng.NextBounded(2)) *
             Count(1 + rng.NextBounded(2));
  }
}

CountedRelation RandomRelation(Rng& rng, AttributeSet attrs, int domain,
                               bool big_counts) {
  CountedRelation r(std::move(attrs));
  const uint64_t rows = rng.NextBounded(10);
  std::vector<Value> row(r.arity());
  for (uint64_t i = 0; i < rows; ++i) {
    for (Value& v : row) {
      v = static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain)));
    }
    r.AppendRow(row, big_counts ? RandomCount(rng)
                                : Count(1 + rng.NextBounded(3)));
  }
  r.Normalize();
  return r;
}

AttributeSet RandomSubset(Rng& rng, const AttributeSet& from, double p) {
  AttributeSet out;
  for (AttrId attr : from) {
    if (rng.NextDouble() < p) out.push_back(attr);
  }
  return out;
}

AttributeSet RandomNonEmptySubset(Rng& rng, const AttributeSet& from) {
  AttributeSet out = RandomSubset(rng, from, 0.5);
  if (out.empty()) out.push_back(from[rng.NextBounded(from.size())]);
  return out;
}

// --- GroupMax, exec level -------------------------------------------------

class GroupMaxRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupMaxRandomTest, MatchesMaterializedMaxRowOrDeclines) {
  Rng rng(GetParam() * 7919 + 11);
  const AttributeSet universe{1, 2, 3, 4, 5};
  int fired = 0;
  int declined = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const AttributeSet a_attrs = RandomNonEmptySubset(rng, universe);
    const AttributeSet b_attrs = RandomNonEmptySubset(rng, universe);
    const bool big = rng.NextBounded(4) == 0;
    const int domain = 2 + static_cast<int>(rng.NextBounded(3));
    CountedRelation a = RandomRelation(rng, a_attrs, domain, big);
    CountedRelation b = RandomRelation(rng, b_attrs, domain, big);
    const AttributeSet g = RandomSubset(rng, Union(a_attrs, b_attrs), 0.6);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const CountedRelation want = ReferenceMaxRow(a, b, g);
    const std::optional<CountedRelation> got = GroupMax(a, b, g);
    const AttributeSet key = Intersect(a_attrs, b_attrs);
    const bool provably_injective = IsSubset(key, g) ||
                                    SideUniqueOnGroup(a, key, g) ||
                                    SideUniqueOnGroup(b, key, g);
    const bool saturated = want.MaxCount().IsSaturated();
    if (got.has_value()) {
      ++fired;
      EXPECT_TRUE(provably_injective);
      ExpectSameRows(*got, want);
    } else {
      ++declined;
      EXPECT_TRUE(!provably_injective || saturated);
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(fired, 0);
  EXPECT_GT(declined, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupMaxRandomTest,
                         ::testing::Range<uint64_t>(0, 8));

CountedRelation Rel(AttributeSet attrs,
                    std::vector<std::pair<std::vector<Value>, uint64_t>> rows) {
  CountedRelation r(std::move(attrs));
  for (auto& [row, cnt] : rows) r.AppendRow(row, Count(cnt));
  r.Normalize();
  return r;
}

// The q3 shape: γ_{CK,OK}(Customer(NK,CK) ⋈_NK Top(NK,OK)) with CK → NK.
TEST(GroupMaxTest, ForeignKeySideMakesTheGroupingInjective) {
  constexpr AttrId kNk = 1, kCk = 2, kOk = 3;
  CountedRelation customer =
      Rel({kNk, kCk}, {{{0, 10}, 1}, {{0, 11}, 2}, {{1, 12}, 2}});
  CountedRelation top =
      Rel({kNk, kOk}, {{{0, 20}, 3}, {{0, 21}, 1}, {{1, 22}, 3}});
  const AttributeSet g{kCk, kOk};
  std::optional<CountedRelation> got = GroupMax(customer, top, g);
  ASSERT_TRUE(got.has_value());
  // Customers 11 and 12 both reach 2 * 3; (11, 20) comes first.
  ExpectSameRows(*got, ReferenceMaxRow(customer, top, g));
  ASSERT_EQ(got->NumRows(), 1u);
  EXPECT_EQ(got->Row(0)[0], 11);
  EXPECT_EQ(got->Row(0)[1], 20);
  EXPECT_EQ(got->CountAt(0), Count(6));
  // Either argument order gives the same row.
  ExpectSameRows(*GroupMax(top, customer, g), *got);
}

TEST(GroupMaxTest, NonInjectiveGroupingDeclines) {
  // Two join keys map onto the same (X, Y) group.
  CountedRelation a = Rel({1, 2}, {{{0, 5}, 1}, {{1, 5}, 1}});
  CountedRelation b = Rel({1, 3}, {{{0, 7}, 1}, {{1, 7}, 1}});
  EXPECT_FALSE(GroupMax(a, b, AttributeSet{2, 3}).has_value());
  // Grouping on the key itself is always injective.
  ExpectSameRows(*GroupMax(a, b, AttributeSet{1, 2, 3}),
                 ReferenceMaxRow(a, b, AttributeSet{1, 2, 3}));
}

TEST(GroupMaxTest, TiesPickTheLexicographicallyFirstInterleavedRow) {
  // g = {1, 2, 3, 4, 9} interleaves a's columns {1, 3} with b's {2, 4}
  // around the join key 9; every pair ties, so the first row is decided
  // column by column across both sides.
  CountedRelation a =
      Rel({1, 3, 9}, {{{1, 0, 0}, 2}, {{0, 5, 0}, 2}, {{0, 4, 1}, 2}});
  CountedRelation b =
      Rel({2, 4, 9}, {{{3, 0, 0}, 1}, {{2, 9, 0}, 1}, {{2, 8, 1}, 1}});
  const AttributeSet g{1, 2, 3, 4, 9};
  std::optional<CountedRelation> got = GroupMax(a, b, g);
  ASSERT_TRUE(got.has_value());
  ExpectSameRows(*got, ReferenceMaxRow(a, b, g));
}

TEST(GroupMaxTest, SaturatedMaxDeclinesAndNearMaxDoesNot) {
  const Count below = Count(~uint64_t{0});  // 2^64 - 1
  CountedRelation a({1, 2});
  a.AppendRow({0, 0}, below);
  a.Normalize();
  CountedRelation b({1, 3});
  b.AppendRow({0, 0}, below);
  b.Normalize();
  // (2^64 - 1)^2 < Count::Max(): exact.
  std::optional<CountedRelation> near = GroupMax(a, b, AttributeSet{2, 3});
  ASSERT_TRUE(near.has_value());
  ExpectSameRows(*near, ReferenceMaxRow(a, b, AttributeSet{2, 3}));
  EXPECT_FALSE(near->MaxCount().IsSaturated());

  CountedRelation b2({1, 3});
  b2.AppendRow({0, 0}, Count(~uint64_t{0}) * Count(4));
  b2.Normalize();
  EXPECT_FALSE(GroupMax(a, b2, AttributeSet{2, 3}).has_value());
}

TEST(GroupMaxTest, EmptyJoinYieldsNoRow) {
  CountedRelation a = Rel({1, 2}, {{{0, 5}, 3}});
  CountedRelation b = Rel({1, 3}, {{{1, 7}, 4}});
  std::optional<CountedRelation> got = GroupMax(a, b, AttributeSet{2, 3});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->NumRows(), 0u);
  EXPECT_EQ(got->MaxCount(), Count::Zero());
}

TEST(GroupMaxTest, DefaultedSideDeclines) {
  CountedRelation a = Rel({1, 2}, {{{0, 5}, 3}});
  CountedRelation b = Rel({1}, {{{0}, 4}});
  b.set_default_count(Count(2));
  EXPECT_FALSE(GroupMax(a, b, AttributeSet{2}).has_value());
}

TEST(GroupMaxTest, RecordsItsOperatorRow) {
  ExecContext ctx;
  CountedRelation a = Rel({1, 2}, {{{0, 5}, 3}});
  CountedRelation b = Rel({1, 3}, {{{0, 7}, 4}});
  ASSERT_TRUE(GroupMax(a, b, AttributeSet{2, 3}, &ctx).has_value());
  const OperatorStats* s = ctx.FindStats("group_max");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->calls, 1u);
  EXPECT_EQ(s->rows_in, 2u);
  EXPECT_EQ(s->rows_out, 1u);
}

TEST(FoldJoinButLastTest, PrefixJoinedWithLastEqualsFoldJoin) {
  Rng rng(4242);
  const AttributeSet universe{1, 2, 3, 4};
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.NextBounded(3);
    std::vector<CountedRelation> rels;
    for (size_t i = 0; i < n; ++i) {
      rels.push_back(RandomRelation(rng, RandomNonEmptySubset(rng, universe),
                                    3, /*big_counts=*/false));
    }
    std::vector<const CountedRelation*> pieces;
    for (const CountedRelation& r : rels) pieces.push_back(&r);
    FoldSplit split = FoldJoinButLast(pieces);
    ASSERT_NE(std::find(pieces.begin(), pieces.end(), split.last),
              pieces.end());
    ExpectSameRows(NaturalJoin(split.prefix, *split.last), FoldJoin(pieces));
  }
}

// --- max-only vs materialized, engine level -------------------------------

// Per-atom fields the max-only path must reproduce.
void ExpectSameAtoms(const SensitivityResult& lean,
                     const SensitivityResult& kept) {
  EXPECT_EQ(lean.local_sensitivity, kept.local_sensitivity);
  EXPECT_EQ(lean.argmax_atom, kept.argmax_atom);
  ASSERT_EQ(lean.atoms.size(), kept.atoms.size());
  for (size_t i = 0; i < lean.atoms.size(); ++i) {
    SCOPED_TRACE("atom " + std::to_string(i));
    EXPECT_EQ(lean.atoms[i].max_sensitivity, kept.atoms[i].max_sensitivity);
    EXPECT_EQ(lean.atoms[i].argmax, kept.atoms[i].argmax);
    EXPECT_EQ(lean.atoms[i].approximate, kept.atoms[i].approximate);
    EXPECT_EQ(lean.atoms[i].skipped, kept.atoms[i].skipped);
  }
}

// Computes q once taking every node table (materialized) and once plain,
// asserts the two results agree, and returns the number of GroupMax calls
// the lean run made.
uint64_t CheckLeanMatchesKept(const ConjunctiveQuery& q, const Database& db,
                              const Ghd* ghd, size_t top_k,
                              std::vector<int> skip_atoms) {
  TSensComputeOptions o;
  o.ghd = ghd;
  o.top_k = top_k;
  o.skip_atoms = std::move(skip_atoms);
  auto plan = PlanSensitivity(q, o);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return 0;

  ExecContext kept_ctx;
  o.join.ctx = &kept_ctx;
  std::vector<CountedRelation> tables;
  auto kept = EvaluateDataflow(q, plan->dataflow, db, o, &tables);
  EXPECT_TRUE(kept.ok()) << kept.status().ToString();
  if (!kept.ok()) return 0;
  EXPECT_EQ(kept_ctx.FindStats("group_max"), nullptr)
      << "taken tables must be materialized";

  ExecContext lean_ctx;
  o.join.ctx = &lean_ctx;
  auto lean = ComputeLocalSensitivity(q, db, o);
  EXPECT_TRUE(lean.ok()) << lean.status().ToString();
  if (!lean.ok()) return 0;
  ExpectSameAtoms(*lean, *kept);
  const OperatorStats* s = lean_ctx.FindStats("group_max");
  return s == nullptr ? 0 : s->calls;
}

class MaxOnlyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxOnlyDifferentialTest, RandomGhdAndDisconnectedShapes) {
  Rng rng(GetParam() * 104729 + 5);
  uint64_t group_max_calls = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int trees = rng.NextDouble() < 0.3 ? 2 : 1;
    BagInstance inst = MakeRandomBagInstance(rng, trees);
    auto ghd = BuildGhd(inst.query, inst.bags);
    ASSERT_TRUE(ghd.ok()) << ghd.status().ToString();
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 inst.query.ToString(inst.db.attrs()));
    const size_t top_k = rng.NextDouble() < 0.2 ? 2 : 0;
    std::vector<int> skip;
    if (rng.NextDouble() < 0.2) {
      skip.push_back(static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(inst.query.num_atoms()))));
    }
    group_max_calls +=
        CheckLeanMatchesKept(inst.query, inst.db, &*ghd, top_k, skip);
  }
  EXPECT_GT(group_max_calls, 0u) << "the max-only path never ran";
}

TEST_P(MaxOnlyDifferentialTest, RandomAcyclicAndTriangleShapes) {
  Rng rng(GetParam() * 7727 + 3);
  for (int trial = 0; trial < 20; ++trial) {
    testing::RandomQuerySpec spec;
    spec.max_atoms = 4;
    auto acyclic = testing::MakeRandomAcyclicInstance(rng, spec);
    CheckLeanMatchesKept(acyclic.query, acyclic.db, nullptr, 0, {});
    auto triangle = testing::MakeRandomTriangleInstance(rng, 10, 3);
    // SearchGhd bags two of the three edges: a grouping multi-atom bag.
    CheckLeanMatchesKept(triangle.query, triangle.db, nullptr, 0, {});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxOnlyDifferentialTest,
                         ::testing::Range<uint64_t>(0, 6));

// Counts near Count::Max(): a triangle bag {X, Y, Z} whose child bags
// H_i(C, E_i) each carry ~2^8 rows on one C value, so T_X's counts are
// products of 16 multiplicities that land on both sides of 2^128.
TEST(MaxOnlyDifferentialTest, CountsNearSaturation) {
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    Database db;
    ConjunctiveQuery q;
    std::vector<std::vector<int>> bags(1);
    auto add = [&](const std::string& name,
                   const std::vector<std::string>& vars,
                   const std::vector<std::vector<Value>>& rows) {
      Relation* rel = db.AddRelation(name, vars);
      for (const auto& row : rows) rel->AppendRow(row);
      return q.AddAtom(db, name, vars);
    };
    std::vector<std::vector<Value>> xy;
    std::vector<std::vector<Value>> yz;
    std::vector<std::vector<Value>> zx;
    for (Value v = 0; v < 3; ++v) {
      for (Value w = 0; w < 3; ++w) {
        if (rng.NextDouble() < 0.7) xy.push_back({v, w});
        if (rng.NextDouble() < 0.7) yz.push_back({v, w});
      }
      // A → C in Z keeps T_X's grouping injective, so the saturating
      // trials reach GroupMax's saturation check.
      zx.push_back({static_cast<Value>(rng.NextBounded(3)), v});
    }
    bags[0].push_back(add("X", {"A", "B"}, xy));
    bags[0].push_back(add("Y", {"B", "C"}, yz));
    bags[0].push_back(add("Z", {"C", "A"}, zx));
    for (int i = 0; i < 16; ++i) {
      std::vector<std::vector<Value>> rows;
      for (Value c = 0; c < 3; ++c) {
        // C = 0 saturates (256^16 = 2^128), C = 1 stays just below, C = 2
        // is small.
        const Value n = c == 0 ? 256 : c == 1 ? 255 - (i == 0 ? 1 : 0) : 2;
        for (Value e = 0; e < n; ++e) rows.push_back({c, e});
      }
      // Only C = 1 rows in some trials, so the max sits just below Max.
      if (trial % 2 == 1) {
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [](const auto& r) { return r[0] == 0; }),
                   rows.end());
      }
      const std::string name = "H" + std::to_string(i);
      bags.push_back({add(name, {"C", "E" + std::to_string(i)}, rows)});
    }
    auto ghd = BuildGhd(q, bags);
    ASSERT_TRUE(ghd.ok()) << ghd.status().ToString();
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_GT(CheckLeanMatchesKept(q, db, &*ghd, 0, {}), 0u);
  }
}

// TPC-H q3 through its explicit GHD: T_Orders groups Customer ⋈ ⊤ on an
// FK-injective key (GroupMax answers), T_Customer does not (GroupMax
// declines and the fold is materialized).
TEST(MaxOnlyDifferentialTest, TpchQ3) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    TpchOptions opts;
    opts.scale = 0.0005;
    opts.seed = seed;
    Database db = MakeTpchDatabase(opts);
    WorkloadQuery w = MakeTpchQ3(db);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GT(CheckLeanMatchesKept(w.query, db, w.ghd_ptr(), 0, {}), 0u);
    EXPECT_GT(CheckLeanMatchesKept(w.query, db, w.ghd_ptr(), 0, w.skip_atoms),
              0u);
  }
}

}  // namespace
}  // namespace lsens
