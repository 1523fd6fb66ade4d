// Differential property suite for the vectorized join core: every join
// algorithm (flat-table hash, sort-merge, and the filtered-cross-product
// oracle) must produce identical normalized outputs on randomized inputs,
// the kAuto cost-based picker must make pinned choices on skewed/sorted
// inputs, and ExecContext must collect operator stats end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "exec/join.h"
#include "exec/row_sort.h"
#include "query/explain.h"
#include "sensitivity/tsens_engine.h"
#include "test_util.h"

namespace lsens {
namespace {

CountedRelation MakeRandom(Rng& rng, AttributeSet attrs, size_t max_rows,
                           uint64_t domain, bool spread_values = false) {
  CountedRelation r(std::move(attrs));
  const size_t rows = rng.NextBounded(max_rows + 1);
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) {
      v = static_cast<Value>(rng.NextBounded(domain));
      // Exercise the full int64 range (negatives included) so the sort
      // machinery's order-preserving bit flip is covered, not just the
      // radix-friendly narrow domains.
      if (spread_values && rng.NextBounded(2) == 0) {
        v = v * -1'000'003 + static_cast<Value>(rng.NextBounded(7));
      }
    }
    r.AppendRow(row, Count(1 + rng.NextBounded(4)));
  }
  r.Normalize();
  return r;
}

// Reference implementation: filtered cross product by nested loops —
// every pair whose shared attributes agree, counts multiplied.
CountedRelation NestedLoopJoin(const CountedRelation& a,
                               const CountedRelation& b) {
  AttributeSet out_attrs = Union(a.attrs(), b.attrs());
  AttributeSet key = Intersect(a.attrs(), b.attrs());
  std::vector<int> a_key;
  std::vector<int> b_key;
  for (AttrId attr : key) {
    a_key.push_back(a.ColumnOf(attr));
    b_key.push_back(b.ColumnOf(attr));
  }
  CountedRelation out(out_attrs);
  std::vector<Value> row(out_attrs.size());
  for (size_t i = 0; i < a.NumRows(); ++i) {
    for (size_t j = 0; j < b.NumRows(); ++j) {
      bool match = true;
      for (size_t k = 0; k < key.size(); ++k) {
        match = match && a.Row(i)[static_cast<size_t>(a_key[k])] ==
                             b.Row(j)[static_cast<size_t>(b_key[k])];
      }
      if (!match) continue;
      for (size_t c = 0; c < out_attrs.size(); ++c) {
        int ca = a.ColumnOf(out_attrs[c]);
        row[c] = ca >= 0 ? a.Row(i)[static_cast<size_t>(ca)]
                         : b.Row(j)[static_cast<size_t>(
                               b.ColumnOf(out_attrs[c]))];
      }
      out.AppendRow(row, a.CountAt(i) * b.CountAt(j));
    }
  }
  out.Normalize();
  return out;
}

void ExpectSameRelation(const CountedRelation& x, const CountedRelation& y,
                        const char* label) {
  ASSERT_EQ(x.attrs(), y.attrs()) << label;
  ASSERT_EQ(x.NumRows(), y.NumRows()) << label;
  for (size_t i = 0; i < x.NumRows(); ++i) {
    ASSERT_EQ(CompareRows(x.Row(i), y.Row(i)), 0) << label << " row " << i;
    ASSERT_EQ(x.CountAt(i), y.CountAt(i)) << label << " count " << i;
  }
}

TEST(JoinDifferentialTest, AllAlgorithmsMatchNestedLoopOracle) {
  Rng rng(2024);
  // Attribute shapes: overlapping keys, full overlap, and disjoint
  // (empty-key cross product) pairs.
  const std::vector<std::pair<AttributeSet, AttributeSet>> shapes = {
      {{1, 2}, {2, 3}}, {{1, 2}, {1, 2}}, {{1}, {2}}, {{1, 2, 3}, {3, 4}},
      {{2}, {1, 2, 3}}};
  for (int trial = 0; trial < 120; ++trial) {
    const auto& [attrs_a, attrs_b] = shapes[trial % shapes.size()];
    const bool spread = trial % 3 == 0;
    CountedRelation a = MakeRandom(rng, attrs_a, 24, 5, spread);
    CountedRelation b = MakeRandom(rng, attrs_b, 24, 5, spread);
    CountedRelation oracle = NestedLoopJoin(a, b);
    CountedRelation hash = NaturalJoin(a, b, {JoinAlgorithm::kHash});
    CountedRelation merge = NaturalJoin(a, b, {JoinAlgorithm::kSortMerge});
    CountedRelation automatic = NaturalJoin(a, b, {JoinAlgorithm::kAuto});
    ExpectSameRelation(hash, oracle, "hash vs nested-loop");
    ExpectSameRelation(merge, oracle, "sort-merge vs nested-loop");
    ExpectSameRelation(automatic, oracle, "auto vs nested-loop");
  }
}

TEST(JoinDifferentialTest, EmptyKeyAndEmptyInputEdgeCases) {
  // Empty inputs under every algorithm, with and without a shared key.
  for (JoinAlgorithm algo :
       {JoinAlgorithm::kAuto, JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
    CountedRelation empty({1, 2});
    CountedRelation one({2, 3});
    one.AppendRow({5, 6}, Count(2));
    one.Normalize();
    EXPECT_EQ(NaturalJoin(empty, one, {algo}).NumRows(), 0u);
    EXPECT_EQ(NaturalJoin(one, empty, {algo}).NumRows(), 0u);

    CountedRelation disjoint({9});
    disjoint.AppendRow({1}, Count(3));
    disjoint.Normalize();
    CountedRelation cross = NaturalJoin(one, disjoint, {algo});
    ASSERT_EQ(cross.NumRows(), 1u);
    EXPECT_EQ(cross.CountAt(0), Count(6));

    // Unit is the neutral element regardless of algorithm.
    CountedRelation u = NaturalJoin(one, CountedRelation::Unit(), {algo});
    ExpectSameRelation(u, one, "unit join");
  }
}

// --- Covering joins ---------------------------------------------------------

// A random relation with counts drawn from near Count::Max() — their
// products saturate, so every kernel's saturating arithmetic is compared.
CountedRelation MakeHugeCounts(Rng& rng, AttributeSet attrs, size_t max_rows,
                               uint64_t domain) {
  const Count big(uint64_t{1} << 63);
  const Count huge = Count(UINT64_MAX) * Count(UINT64_MAX);
  const Count picks[] = {Count::One(), big, big * big, huge, Count::Max()};
  CountedRelation r(std::move(attrs));
  const size_t rows = rng.NextBounded(max_rows + 1);
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = static_cast<Value>(rng.NextBounded(domain));
    r.AppendRow(row, picks[rng.NextBounded(5)]);
  }
  r.Normalize();
  return r;
}

// Random rows appended with no Normalize: duplicates, arbitrary order and
// zero counts included.
CountedRelation MakeUnnormalized(Rng& rng, AttributeSet attrs,
                                 size_t max_rows, uint64_t domain) {
  CountedRelation r(std::move(attrs));
  const size_t rows = 2 + rng.NextBounded(max_rows);
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = static_cast<Value>(rng.NextBounded(domain));
    r.AppendRow(row, Count(rng.NextBounded(4)));
  }
  return r;
}

// `r` with every value lowered by `by`: the same order, so still normalized.
CountedRelation ShiftedDown(const CountedRelation& r, Value by) {
  CountedRelation out(r.attrs());
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    for (size_t c = 0; c < row.size(); ++c) row[c] = r.Row(i)[c] - by;
    out.AppendRow(row, r.CountAt(i));
  }
  out.Normalize();
  return out;
}

struct CoveringCase {
  std::string label;
  CountedRelation a;
  CountedRelation b;
};

// One covering pair of every shape the kernel distinguishes: the key
// leading or trailing on the covering side, equal attributes, a covered
// side larger than the covering side, an unnormalized covering side,
// empty sides, and counts near Count::Max(); the covered side is passed
// second or first.
std::vector<CoveringCase> MakeCoveringCases(Rng& rng, int trial) {
  std::vector<CoveringCase> cases;
  auto add = [&](std::string label, CountedRelation a, CountedRelation b) {
    label += " trial " + std::to_string(trial);
    if (trial % 2 == 1) std::swap(a, b);
    cases.push_back({std::move(label), std::move(a), std::move(b)});
  };
  add("leading", MakeRandom(rng, {1, 2}, 300, 40),
      MakeRandom(rng, {1}, 40, 50));
  add("leading pair", MakeRandom(rng, {1, 2, 3}, 300, 8),
      MakeRandom(rng, {1, 2}, 60, 9));
  add("trailing", MakeRandom(rng, {1, 2}, 300, 40),
      MakeRandom(rng, {2}, 40, 50));
  add("middle", MakeRandom(rng, {1, 2, 3}, 300, 8),
      MakeRandom(rng, {2}, 10, 9));
  add("equal attrs", MakeRandom(rng, {1, 2}, 200, 12),
      MakeRandom(rng, {1, 2}, 200, 12));
  add("covered larger, leading", MakeRandom(rng, {1, 2}, 20, 300),
      MakeRandom(rng, {1}, 300, 400));
  add("covered larger, trailing", MakeRandom(rng, {1, 2}, 20, 300),
      MakeRandom(rng, {2}, 300, 400));
  add("unnormalized covering", MakeUnnormalized(rng, {1, 2}, 200, 20),
      MakeRandom(rng, {1}, 30, 25));
  add("unnormalized, covered larger", MakeUnnormalized(rng, {1, 2}, 20, 30),
      MakeRandom(rng, {2}, 100, 40));
  add("empty covering", CountedRelation({1, 2}), MakeRandom(rng, {2}, 30, 9));
  add("empty covered", MakeRandom(rng, {1, 2}, 30, 9), CountedRelation({2}));
  add("both empty", CountedRelation({1, 2}), CountedRelation({1}));
  add("near max, leading", MakeHugeCounts(rng, {1, 2}, 200, 12),
      MakeHugeCounts(rng, {1}, 12, 14));
  add("near max, trailing", MakeHugeCounts(rng, {1, 2}, 30, 12),
      MakeHugeCounts(rng, {2}, 100, 14));
  // A dense key facing a larger covered side whose runs lie below, inside
  // and above the covering side's key range.
  add("dense, covered larger, trailing", MakeRandom(rng, {1, 2}, 60, 12),
      ShiftedDown(MakeRandom(rng, {2}, 300, 40), 14));
  // The small domains above are dense — their non-leading keys take the
  // slot path — so these draw keys from 2^40 values, which the covering
  // side must sort and walk.
  constexpr uint64_t kSparse = uint64_t{1} << 40;
  add("sparse trailing", MakeRandom(rng, {1, 2}, 300, kSparse),
      MakeRandom(rng, {2}, 40, kSparse));
  add("sparse middle", MakeRandom(rng, {1, 2, 3}, 300, kSparse),
      MakeRandom(rng, {2}, 10, kSparse));
  add("sparse, covered larger, trailing", MakeRandom(rng, {1, 2}, 20, kSparse),
      MakeRandom(rng, {2}, 300, kSparse));
  add("sparse, unnormalized covering",
      MakeUnnormalized(rng, {1, 2}, 200, kSparse),
      MakeRandom(rng, {2}, 30, kSparse));
  return cases;
}

// join.covering builds no hash table (build_rows 0), and with a normalized
// covered side it sorts at most the covering side: ordered on a key that
// does not lead it, or (unnormalized) its output's Normalize. So the sort
// words of a fresh context never exceed the covering side's rows — a
// larger covered side is merge-walked, never sorted or built on. A dense
// key is addressed instead, each slot table (sort.dense rows_out) within
// kDenseSlotsPerRow slots per covering row.
void ExpectCoveringWork(ExecContext& ctx, const CountedRelation& covering,
                        const CountedRelation& covered, const char* label) {
  const OperatorStats* stats = ctx.FindStats("join.covering");
  ASSERT_NE(stats, nullptr) << label;
  EXPECT_EQ(stats->build_rows, 0u) << label;
  if (covered.normalized()) {
    EXPECT_LE(ctx.sort_words().size(), covering.NumRows()) << label;
    EXPECT_LE(ctx.sort_words_tmp().size(), covering.NumRows()) << label;
  }
  if (const OperatorStats* dense = ctx.FindStats("sort.dense")) {
    EXPECT_LE(dense->rows_out,
              dense->calls * kDenseSlotsPerRow * covering.NumRows())
        << label;
  }
}

TEST(CoveringJoinTest, MatchesForcedKernelsBitForBit) {
  Rng rng(4242);
  for (int trial = 0; trial < 24; ++trial) {
    for (const CoveringCase& c : MakeCoveringCases(rng, trial)) {
      const char* label = c.label.c_str();
      const CountedRelation& a = c.a;
      const CountedRelation& b = c.b;
      ExecContext ctx;
      JoinOptions opts;
      opts.ctx = &ctx;
      const CountedRelation automatic = NaturalJoin(a, b, opts);
      EXPECT_TRUE(automatic.normalized()) << label;
      ExpectSameRelation(automatic, NaturalJoin(a, b, {JoinAlgorithm::kHash}),
                         label);
      ExpectSameRelation(automatic,
                         NaturalJoin(a, b, {JoinAlgorithm::kSortMerge}),
                         label);

      // One covering pass: never counted, never hashed or merged by the
      // general kernels, and never normalized when its inputs already are.
      const OperatorStats* covering = ctx.FindStats("join.covering");
      ASSERT_NE(covering, nullptr) << label;
      EXPECT_EQ(covering->calls, 1u) << label;
      EXPECT_EQ(covering->rows_out, automatic.NumRows()) << label;
      EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr) << label;
      EXPECT_EQ(ctx.FindStats("join.hash"), nullptr) << label;
      EXPECT_EQ(ctx.FindStats("join.sort_merge"), nullptr) << label;
      if (a.normalized() && b.normalized()) {
        EXPECT_EQ(ctx.FindStats("normalize"), nullptr) << label;
      }

      // With equal attributes the smaller side covers.
      const bool a_covers = IsSubset(b.attrs(), a.attrs()) &&
                            (a.attrs() != b.attrs() ||
                             a.NumRows() <= b.NumRows());
      ExpectCoveringWork(ctx, a_covers ? a : b, a_covers ? b : a, label);
      // A one-row covering side is dense whatever its key (range 1).
      const size_t covering_rows = (a_covers ? a : b).NumRows();
      if (c.label.starts_with("sparse") && covering_rows >= 2) {
        EXPECT_EQ(ctx.FindStats("sort.dense"), nullptr) << label;
      }
      if (c.label.starts_with("dense") && covering_rows >= 12) {
        EXPECT_NE(ctx.FindStats("sort.dense"), nullptr) << label;
      }
    }
  }
}

TEST(JoinDifferentialTest, DefaultedSideMatchesManualExpansion) {
  // A top-k defaulted covered side under every algorithm, passed first or
  // second, leading and trailing, smaller and larger than the covering
  // side: each covering row takes its match count or the default.
  Rng rng(99);
  const std::vector<std::pair<AttributeSet, AttributeSet>> shapes = {
      {{1, 2}, {1}}, {{1, 2}, {2}}, {{1, 2, 3}, {1, 3}}, {{1, 2}, {1, 2}}};
  for (int trial = 0; trial < 64; ++trial) {
    const auto& [attrs_a, attrs_b] = shapes[trial % shapes.size()];
    const bool covered_larger = trial % 3 == 0;
    CountedRelation a = trial % 5 == 4
                            ? MakeUnnormalized(rng, attrs_a, 30, 6)
                            : MakeRandom(rng, attrs_a, covered_larger ? 6 : 60,
                                         6);
    CountedRelation b =
        MakeRandom(rng, attrs_b, covered_larger ? 80 : 8, 6);
    b.set_default_count(Count(1 + rng.NextBounded(5)));

    CountedRelation expected(a.attrs());
    std::vector<Value> key(b.arity());
    for (size_t i = 0; i < a.NumRows(); ++i) {
      for (size_t c = 0; c < b.arity(); ++c) {
        key[c] = a.Row(i)[static_cast<size_t>(a.ColumnOf(b.attrs()[c]))];
      }
      const Count count = a.CountAt(i) * b.Lookup(key);
      if (!count.IsZero()) expected.AppendRow(a.Row(i), count);
    }
    expected.Normalize();
    const std::string label = "trial " + std::to_string(trial);
    for (JoinAlgorithm algo : {JoinAlgorithm::kAuto, JoinAlgorithm::kHash,
                               JoinAlgorithm::kSortMerge}) {
      ExecContext ctx;
      JoinOptions opts{algo, &ctx};
      const CountedRelation joined =
          trial % 2 == 0 ? NaturalJoin(a, b, opts) : NaturalJoin(b, a, opts);
      EXPECT_TRUE(joined.normalized()) << label;
      ExpectSameRelation(joined, expected, label.c_str());
      ExpectCoveringWork(ctx, a, b, label.c_str());
      EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr) << label;
    }
  }
}

// --- k-way covering joins --------------------------------------------------

// The covered sides of one k-way case: 1–4 sides over subsets of the
// driver's attributes {1, 2, 3} — leading keys ({1}, {1, 2}), keys that do
// not lead ({2}, {3}, {1, 3}, {2, 3}), the driver's own attributes and the
// empty key; a repeated shape shares its key's sort. Some sides are
// unnormalized, empty, top-k defaulted (at most one, normalized), or carry
// counts near Count::Max().
std::vector<CountedRelation> MakeCoveredSides(Rng& rng, int trial) {
  const std::vector<AttributeSet> shapes = {{1},    {1, 2}, {2},       {3},
                                            {1, 3}, {2, 3}, {1, 2, 3}, {}};
  const size_t num_sides = 1 + static_cast<size_t>(trial) % 4;
  std::vector<CountedRelation> sides;
  bool defaulted = false;
  for (size_t s = 0; s < num_sides; ++s) {
    // Every third trial repeats its first shape, so two sides share a key.
    const AttributeSet& attrs =
        trial % 3 == 0 && s > 0 ? sides[0].attrs()
                                : shapes[rng.NextBounded(shapes.size())];
    const uint64_t kind = rng.NextBounded(8);
    if (kind == 0) {
      sides.push_back(MakeUnnormalized(rng, attrs, 40, 6));
    } else if (kind == 1) {
      sides.emplace_back(attrs);
    } else if (kind == 2) {
      sides.push_back(MakeHugeCounts(rng, attrs, 30, 6));
    } else {
      sides.push_back(MakeRandom(rng, attrs, kind == 3 ? 200 : 30, 6));
      if (kind == 4 && !defaulted && sides.back().NumRows() > 2) {
        sides.back().TruncateTopK(2);
        defaulted = true;
      }
    }
  }
  return sides;
}

// The pairwise fold from the driver, one forced-kernel join at a time.
CountedRelation PairwiseFold(const CountedRelation& driver,
                             const std::vector<CountedRelation>& sides,
                             JoinAlgorithm algorithm) {
  CountedRelation acc = NaturalJoin(driver, sides[0], {algorithm});
  for (size_t s = 1; s < sides.size(); ++s) {
    acc = NaturalJoin(acc, sides[s], {algorithm});
  }
  return acc;
}

TEST(CoveringJoinTest, KWayMatchesPairwiseForcedFolds) {
  Rng rng(1717);
  for (int trial = 0; trial < 160; ++trial) {
    const std::string label = "trial " + std::to_string(trial);
    CountedRelation driver =
        trial % 5 == 0   ? MakeUnnormalized(rng, {1, 2, 3}, 300, 6)
        : trial % 5 == 1 ? MakeHugeCounts(rng, {1, 2, 3}, 150, 6)
        : trial % 11 == 2 ? CountedRelation({1, 2, 3})
                          : MakeRandom(rng, {1, 2, 3}, 300, 6);
    const std::vector<CountedRelation> sides = MakeCoveredSides(rng, trial);
    std::vector<const CountedRelation*> covered;
    uint64_t rows_in = driver.NumRows();
    bool all_normalized = driver.normalized();
    for (const CountedRelation& side : sides) {
      covered.push_back(&side);
      rows_in += side.NumRows();
      all_normalized = all_normalized && side.normalized();
    }

    ExecContext ctx;
    const CountedRelation joined = CoveringJoin(driver, covered, &ctx);
    EXPECT_TRUE(joined.normalized()) << label;
    EXPECT_FALSE(joined.has_default()) << label;
    for (JoinAlgorithm algo :
         {JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
      ExpectSameRelation(joined, PairwiseFold(driver, sides, algo),
                         label.c_str());
      std::vector<const CountedRelation*> pieces = covered;
      pieces.push_back(&driver);
      ExpectSameRelation(joined, FoldJoin(pieces, {algo}), label.c_str());
    }

    // One pass: one call, no table, no count, no general kernel, and no
    // Normalize when every input is already normalized.
    const OperatorStats* stats = ctx.FindStats("join.covering");
    ASSERT_NE(stats, nullptr) << label;
    EXPECT_EQ(stats->calls, 1u) << label;
    EXPECT_EQ(stats->rows_in, rows_in) << label;
    EXPECT_EQ(stats->rows_out, joined.NumRows()) << label;
    EXPECT_EQ(stats->build_rows, 0u) << label;
    EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr) << label;
    EXPECT_EQ(ctx.FindStats("join.hash"), nullptr) << label;
    EXPECT_EQ(ctx.FindStats("join.sort_merge"), nullptr) << label;
    if (all_normalized) {
      EXPECT_EQ(ctx.FindStats("normalize"), nullptr) << label;
    }
  }
}

TEST(CoveringJoinTest, FoldJoinWithCoveringDriverEqualsGreedyLoop) {
  // The shape of a TSens fold: an atom projection S(x, y, z) with ⊥/⊤
  // tables on its link attributes (one top-k truncated), a co-atom
  // projection T(y, z), and a second piece over all of S's attributes —
  // the smaller of the two covering pieces drives. kAuto runs it as one
  // k-way CoveringJoin; the greedy loop (forced kernels, and kAuto's
  // FoldJoinButLast joined with its last piece) gives the same relation.
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string label = "trial " + std::to_string(trial);
    CountedRelation s = MakeRandom(rng, {1, 2, 3}, 400, 8);
    CountedRelation s2 = MakeRandom(rng, {1, 2, 3}, 400, 8);
    CountedRelation bot_x = MakeRandom(rng, {1}, 8, 9);
    CountedRelation top_z = MakeRandom(rng, {3}, 8, 9);
    if (top_z.NumRows() > 3) top_z.TruncateTopK(3);
    CountedRelation t = MakeRandom(rng, {2, 3}, 60, 8);
    std::vector<const CountedRelation*> pieces = {&bot_x, &t, &s, &top_z};
    if (trial % 2 == 1) pieces.push_back(&s2);

    ExecContext ctx;
    JoinOptions opts;
    opts.ctx = &ctx;
    const CountedRelation folded = FoldJoin(pieces, opts);
    EXPECT_TRUE(folded.normalized()) << label;
    const OperatorStats* covering = ctx.FindStats("join.covering");
    ASSERT_NE(covering, nullptr) << label;
    EXPECT_EQ(covering->calls, 1u) << label;
    uint64_t rows_in = 0;
    for (const CountedRelation* piece : pieces) rows_in += piece->NumRows();
    EXPECT_EQ(covering->rows_in, rows_in) << label;
    EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr) << label;
    EXPECT_EQ(ctx.FindStats("join.hash"), nullptr) << label;
    EXPECT_EQ(ctx.FindStats("join.sort_merge"), nullptr) << label;
    const OperatorStats* fold = ctx.FindStats("fold_join");
    ASSERT_NE(fold, nullptr) << label;
    EXPECT_EQ(fold->calls, 1u) << label;
    EXPECT_EQ(fold->rows_out, folded.NumRows()) << label;

    for (JoinAlgorithm algo :
         {JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
      ExpectSameRelation(folded, FoldJoin(pieces, {algo}), label.c_str());
    }
    FoldSplit split = FoldJoinButLast(pieces);
    ExpectSameRelation(folded, NaturalJoin(split.prefix, *split.last),
                       label.c_str());
  }
}

// --- Cost-based picker regressions ---------------------------------------

CountedRelation MakeSkewed(Rng& rng, AttributeSet attrs, size_t rows,
                           size_t hot_col, Value hot_key, uint64_t domain) {
  CountedRelation r(std::move(attrs));
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < rows; ++i) {
    // 90% of rows share the hot join key: the join output explodes.
    for (auto& v : row) v = static_cast<Value>(rng.NextBounded(domain));
    if (rng.NextBounded(10) < 9) row[hot_col] = hot_key;
    r.AppendRow(row, Count::One());
  }
  r.Normalize();
  return r;
}

TEST(JoinPickerTest, PrefersSortMergeWhenBothSidesKeySorted) {
  // Key {1} is the leading column of both normalized relations, so both
  // sides are already ordered on it and the merge needs no sort.
  Rng rng(5);
  CountedRelation a = MakeRandom(rng, {1, 2}, 2000, 50);
  CountedRelation b = MakeRandom(rng, {1, 3}, 2000, 50);
  ASSERT_GT(a.NumRows(), 500u);
  // Sort-merge wins at any output size here, so kAuto never counts it.
  ExecContext ctx;
  JoinOptions opts;
  opts.ctx = &ctx;
  NaturalJoin(a, b, opts);
  EXPECT_NE(ctx.FindStats("join.sort_merge"), nullptr);
  EXPECT_EQ(ctx.FindStats("estimate_join_rows"), nullptr);
}

TEST(JoinPickerTest, PrefersHashWhenSortWouldDominate) {
  // Key {2} is a trailing column of `a` (unsorted on it), and the join is
  // selective: sorting would dominate, hashing wins.
  Rng rng(6);
  CountedRelation a = MakeRandom(rng, {1, 2}, 2000, 2000);
  CountedRelation b = MakeRandom(rng, {2, 3}, 2000, 2000);
  ASSERT_GT(a.NumRows(), 500u);
  ExecContext ctx;
  JoinOptions opts;
  opts.ctx = &ctx;
  NaturalJoin(a, b, opts);
  EXPECT_NE(ctx.FindStats("join.hash"), nullptr);
  EXPECT_EQ(ctx.FindStats("join.sort_merge"), nullptr);
}

TEST(JoinPickerTest, SkewFlipsThePickToSortMerge) {
  // Same shapes as above, but 90% of rows share one join key: the output
  // (consulted through EstimateJoinRows) dwarfs the inputs, emission
  // dominates both kernels, and the contiguous-run merge emission wins
  // despite the sort.
  Rng rng(7);
  // The join key is attr 2: column 1 of `a`, column 0 of `b`.
  CountedRelation a = MakeSkewed(rng, {1, 2}, 1500, 1, 42, 3000);
  CountedRelation b = MakeSkewed(rng, {2, 3}, 1500, 0, 42, 3000);
  ASSERT_GT(EstimateJoinRows(a, b), 100 * (a.NumRows() + b.NumRows()));
  ExecContext ctx;
  JoinOptions opts;
  opts.ctx = &ctx;
  NaturalJoin(a, b, opts);
  EXPECT_NE(ctx.FindStats("join.sort_merge"), nullptr);
  EXPECT_EQ(ctx.FindStats("join.hash"), nullptr);
}

// The kernel kAuto ran, read from the stats of a fresh context.
JoinAlgorithm KernelThatRan(const ExecContext& ctx) {
  if (ctx.FindStats("join.sort_merge") != nullptr) {
    EXPECT_EQ(ctx.FindStats("join.hash"), nullptr);
    return JoinAlgorithm::kSortMerge;
  }
  EXPECT_NE(ctx.FindStats("join.hash"), nullptr);
  return JoinAlgorithm::kHash;
}

TEST(JoinPickerTest, KernelThatRanIsTheExposedPick) {
  // Key-sorted and unsorted sides, skewed and uniform keys, empty sides:
  // kAuto runs the same kernel with and without a count handed in (the
  // pick is exposed as the join.* row of a fresh context), the sized call
  // never counts, and the output is the forced kernels'.
  Rng rng(31);
  const std::vector<std::pair<AttributeSet, AttributeSet>> shapes = {
      {{1, 2}, {1, 3}},  // key leading on both sides: both key-sorted
      {{1, 2}, {2, 3}},  // key trailing on `a` only
      {{1, 3}, {2, 3}},  // key trailing on both sides
  };
  for (int trial = 0; trial < 48; ++trial) {
    const auto& [attrs_a, attrs_b] = shapes[trial % shapes.size()];
    const bool skewed = trial % 2 == 1;
    const AttrId key = Intersect(attrs_a, attrs_b)[0];
    auto make = [&](const AttributeSet& attrs, bool empty) {
      if (empty) return CountedRelation(attrs);
      if (!skewed) return MakeRandom(rng, attrs, 1200, 300);
      const size_t hot_col = static_cast<size_t>(
          std::find(attrs.begin(), attrs.end(), key) - attrs.begin());
      return MakeSkewed(rng, attrs, rng.NextBounded(400), hot_col, 42, 3000);
    };
    // Every eighth pair has both sides empty, the next one only `b`.
    CountedRelation a = make(attrs_a, trial % 8 == 0);
    CountedRelation b = make(attrs_b, trial % 8 < 2);
    const std::string label = "trial " + std::to_string(trial);

    const CountedRelation hash = NaturalJoin(a, b, {JoinAlgorithm::kHash});
    ExpectSameRelation(NaturalJoin(a, b, {JoinAlgorithm::kSortMerge}), hash,
                       label.c_str());
    ExecContext ctx;
    JoinOptions opts;
    opts.ctx = &ctx;
    ExpectSameRelation(NaturalJoin(a, b, opts), hash, label.c_str());
    const JoinAlgorithm picked = KernelThatRan(ctx);
    if (a.NumRows() == 0 && b.NumRows() == 0) {
      EXPECT_EQ(picked, JoinAlgorithm::kHash) << label;  // costs tie at 0
    }

    const size_t rows = EstimateJoinRows(a, b);
    ExecContext sized_ctx;
    opts.ctx = &sized_ctx;
    ExpectSameRelation(NaturalJoinSized(a, b, rows, opts), hash,
                       label.c_str());
    EXPECT_EQ(KernelThatRan(sized_ctx), picked) << label;
    EXPECT_EQ(sized_ctx.FindStats("estimate_join_rows"), nullptr) << label;
  }
}

// --- ExecContext stats ----------------------------------------------------

TEST(ExecContextTest, TSensOverGhdReportsOperatorStats) {
  auto ex = testing::MakeFigure1Example();
  auto forest = BuildJoinForestGYO(ex.query);
  ASSERT_TRUE(forest.ok());
  Ghd ghd = MakeTrivialGhd(ex.query, *forest);

  ExecContext ctx;
  TSensOptions options;
  options.join.ctx = &ctx;
  auto result = TSensOverGhd(ex.query, ghd, ex.db, options);
  ASSERT_TRUE(result.ok());

  EXPECT_FALSE(ctx.stats().empty());
  const OperatorStats* fold = ctx.FindStats("fold_join");
  ASSERT_NE(fold, nullptr);
  EXPECT_GT(fold->calls, 0u);
  EXPECT_NE(ctx.FindStats("group_by_sum"), nullptr);

  std::string report = RenderExecStats(ctx);
  EXPECT_NE(report.find("fold_join"), std::string::npos);
  EXPECT_NE(report.find("group_by_sum"), std::string::npos);

  ctx.ResetStats();
  EXPECT_TRUE(ctx.stats().empty());
  EXPECT_NE(RenderExecStats(ctx).find("none collected"), std::string::npos);
}

TEST(ExecContextTest, StatsAccumulateAcrossCalls) {
  Rng rng(11);
  CountedRelation a = MakeRandom(rng, {1, 2}, 50, 6);
  CountedRelation b = MakeRandom(rng, {2, 3}, 50, 6);
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kHash, &ctx};
  NaturalJoin(a, b, opts);
  const OperatorStats* first = ctx.FindStats("join.hash");
  ASSERT_NE(first, nullptr);
  const uint64_t calls_after_one = first->calls;
  NaturalJoin(a, b, opts);
  EXPECT_EQ(ctx.FindStats("join.hash")->calls, calls_after_one + 1);
}

// --- Shared sort machinery ------------------------------------------------

// Stable-sort reference for SortRowsBy: rows ordered by `cols`, ties by
// row index.
void ExpectSortMatchesReference(const CountedRelation& r,
                                std::span<const int> cols, ExecContext& ctx,
                                const std::string& label) {
  std::vector<uint32_t> perm;
  SortRowsBy(r, cols, perm, ctx);
  std::vector<uint32_t> expected(r.NumRows());
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](uint32_t x, uint32_t y) {
                     return CompareRowsAt(r.Row(x), r.Row(y), cols) < 0;
                   });
  ASSERT_EQ(perm, expected) << label;
}

// Calls recorded under "sort.fallback" so far (0 if it never ran).
uint64_t FallbackCalls(const ExecContext& ctx) {
  const OperatorStats* s = ctx.FindStats("sort.fallback");
  return s == nullptr ? 0 : s->calls;
}

// `rows` random rows whose column c spans exactly [lo[c], lo[c] + span[c]]
// (both ends present, in the last two rows so the input is unsorted), so
// the packed key width of column c is bit_width(span[c]) by construction.
CountedRelation MakeSpanning(Rng& rng, size_t rows, std::vector<Value> lo,
                             std::vector<uint64_t> span) {
  AttributeSet attrs;
  for (size_t c = 0; c < lo.size(); ++c) {
    attrs.push_back(static_cast<AttrId>(c + 1));
  }
  CountedRelation r(attrs);
  std::vector<Value> row(lo.size());
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < lo.size(); ++c) {
      uint64_t off = rng.NextUint64() % span[c];
      if (i + 2 == rows) off = span[c];
      if (i + 1 == rows) off = 0;
      row[c] = static_cast<Value>(static_cast<uint64_t>(lo[c]) + off);
    }
    r.AppendRow(row, Count::One());
  }
  return r;
}

TEST(RowSortTest, SortRowsByMatchesReferenceOnRandomInputs) {
  Rng rng(13);
  ExecContext ctx;
  for (int trial = 0; trial < 80; ++trial) {
    // Alternate narrow domains (radix path) and spread values, negatives
    // included; arities 1-4 cover one- to four-column packed keys.
    const size_t arity = 1 + trial % 4;
    AttributeSet attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back(static_cast<AttrId>(i + 1));
    CountedRelation r(attrs);
    const size_t rows = 1 + rng.NextBounded(600);
    std::vector<Value> row(arity);
    for (size_t i = 0; i < rows; ++i) {
      for (auto& v : row) {
        v = static_cast<Value>(rng.NextBounded(trial % 2 ? 4 : 1000));
        if (trial % 5 == 0) v -= 500;
      }
      r.AppendRow(row, Count::One());
    }
    std::vector<int> cols;
    for (size_t c = 0; c < arity; ++c) {
      if (rng.NextBounded(2) == 0) cols.push_back(static_cast<int>(c));
    }
    if (cols.empty()) cols.push_back(static_cast<int>(arity - 1));
    ExpectSortMatchesReference(r, cols, ctx, "trial " + std::to_string(trial));
  }

  // The int64 extremes: a full-range column never fits the word; narrow
  // ranges hugging either end (and straddling zero) do.
  auto bits = [](int w) { return (uint64_t{1} << w) - 1; };
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const std::vector<int> c0{0};
  const std::vector<int> c01{0, 1};
  const std::vector<int> c10{1, 0};
  struct Case {
    std::string label;
    size_t rows;
    std::vector<Value> lo;
    std::vector<uint64_t> span;
    bool fits;  // Σw + idx_bits <= 64
  };
  const std::vector<Case> cases = {
      {"full int64 range", 300, {kMin}, {~uint64_t{0}}, false},
      {"hugs INT64_MIN", 300, {kMin}, {1000}, true},
      {"hugs INT64_MAX", 300, {kMax - 1000}, {1000}, true},
      {"straddles zero", 300, {-500}, {1000}, true},
      // 300 rows: idx_bits = 9. 55 + 9 = 64 fits; 56 + 9 = 65 does not.
      {"radix, exactly 64 bits", 300, {-7}, {bits(55)}, true},
      {"radix, 65 bits", 300, {-7}, {bits(56)}, false},
      // 100 rows: idx_bits = 7, so the std::sort path at 57 + 7 and 58 + 7.
      {"small, exactly 64 bits", 100, {kMin}, {bits(57)}, true},
      {"small, 65 bits", 100, {kMin}, {bits(58)}, false},
      // Two columns sharing the word: 30 + 25 + 9 = 64, then 65.
      {"2 cols, 64 bits", 300, {kMin + 5, -3}, {bits(30), bits(25)}, true},
      {"2 cols, 65 bits", 300, {kMin + 5, -3}, {bits(30), bits(26)}, false},
  };
  for (const Case& c : cases) {
    const CountedRelation r = MakeSpanning(rng, c.rows, c.lo, c.span);
    const std::vector<int>& cols = c.lo.size() == 1 ? c0 : c01;
    const uint64_t before = FallbackCalls(ctx);
    ExpectSortMatchesReference(r, cols, ctx, c.label);
    EXPECT_EQ(FallbackCalls(ctx) - before, c.fits ? 0u : 1u) << c.label;
    if (c.lo.size() == 2) ExpectSortMatchesReference(r, c10, ctx, c.label);
  }
}

TEST(RowSortTest, FallbackRecordedOnlyForKeysWiderThanTheWord) {
  Rng rng(17);
  ExecContext ctx;
  const std::vector<int> cols{0, 1};
  // Narrow: two 10-bit columns over 1000 rows pack into 30 bits.
  CountedRelation narrow = MakeSpanning(rng, 1000, {0, -5}, {1023, 1023});
  narrow.Normalize(&ctx);
  GroupBySum(narrow, {2}, &ctx);
  std::vector<uint32_t> perm;
  SortRowsBy(narrow, cols, perm, ctx);
  EXPECT_EQ(ctx.FindStats("sort.fallback"), nullptr);

  // Wide: a 40-bit and a 20-bit column plus 10 row bits need 70 bits.
  const uint64_t bits40 = (uint64_t{1} << 40) - 1;
  const uint64_t bits20 = (uint64_t{1} << 20) - 1;
  const CountedRelation wide =
      MakeSpanning(rng, 1000, {0, 0}, {bits40, bits20});
  SortRowsBy(wide, cols, perm, ctx);
  const OperatorStats* fallback = ctx.FindStats("sort.fallback");
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->calls, 1u);
  EXPECT_EQ(fallback->rows_in, 1000u);
}

// Oracle for Normalize and GroupBySum: a std::map keyed by the (projected)
// row, summing counts, dropping keys whose total is zero.
using CountMap = std::map<std::vector<Value>, Count>;

void ExpectEqualsOracle(const CountedRelation& got, const CountMap& oracle,
                        const std::string& label) {
  std::vector<std::pair<std::vector<Value>, Count>> want;
  for (const auto& [key, count] : oracle) {
    if (!count.IsZero()) want.emplace_back(key, count);
  }
  ASSERT_EQ(got.NumRows(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    const std::span<const Value> row = got.Row(i);
    ASSERT_EQ(std::vector<Value>(row.begin(), row.end()), want[i].first)
        << label << " row " << i;
    ASSERT_EQ(got.CountAt(i), want[i].second) << label << " row " << i;
  }
}

TEST(RowSortTest, NormalizeAndGroupBySumMatchMapOracle) {
  Rng rng(19);
  ExecContext ctx;
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  for (int trial = 0; trial < 120; ++trial) {
    const size_t arity = static_cast<size_t>(trial % 5);
    // Fewer and more than the 256-row radix threshold.
    const size_t rows = trial % 3 == 0 ? 1 + rng.NextBounded(200)
                                       : 300 + rng.NextBounded(1500);
    const bool presorted = trial % 4 == 1;
    const bool wide = trial % 7 == 3;  // full-range values: the fallback
    AttributeSet attrs;
    for (size_t c = 0; c < arity; ++c) {
      attrs.push_back(static_cast<AttrId>(c + 1));
    }
    std::vector<std::pair<std::vector<Value>, Count>> input;
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> row(arity);
      for (Value& v : row) {
        const uint64_t pick = rng.NextBounded(4);
        if (!wide) {
          v = static_cast<Value>(rng.NextBounded(6)) - 3;
        } else if (pick == 0) {
          v = kMin;
        } else if (pick == 1) {
          v = kMax;
        } else {
          v = static_cast<Value>(rng.NextUint64());
        }
      }
      // Zero counts must vanish; saturated ones must stay saturated.
      Count count(1 + rng.NextBounded(5));
      const uint64_t pick = rng.NextBounded(10);
      if (pick == 0) count = Count::Zero();
      if (pick == 1) count = Count::Max();
      input.emplace_back(std::move(row), count);
    }
    if (presorted) std::sort(input.begin(), input.end());

    CountedRelation r(attrs);
    CountMap oracle;
    for (const auto& [row, count] : input) {
      r.AppendRow(row, count);
      oracle[row] += count;
    }
    const std::string label = "trial " + std::to_string(trial);
    CountedRelation normalized = r;
    normalized.Normalize(&ctx);
    EXPECT_TRUE(normalized.normalized()) << label;
    ExpectEqualsOracle(normalized, oracle, label + " normalize");

    // γ over a random subset of the columns, from the raw and the
    // normalized input (the latter merges prefixes without reordering).
    AttributeSet group;
    std::vector<size_t> group_cols;
    for (size_t c = 0; c < arity; ++c) {
      if (rng.NextBounded(2) == 0) {
        group.push_back(attrs[c]);
        group_cols.push_back(c);
      }
    }
    CountMap grouped;
    for (const auto& [row, count] : input) {
      std::vector<Value> key;
      for (size_t c : group_cols) key.push_back(row[c]);
      grouped[key] += count;
    }
    ExpectEqualsOracle(GroupBySum(r, group, &ctx), grouped, label + " raw γ");
    ExpectEqualsOracle(GroupBySum(normalized, group, &ctx), grouped,
                       label + " normalized γ");
  }
}

// Calls recorded under "sort.dense" so far (0 if it never ran).
uint64_t DenseCalls(const ExecContext& ctx) {
  const OperatorStats* s = ctx.FindStats("sort.dense");
  return s == nullptr ? 0 : s->calls;
}

// `product` split into `k` column ranges whose product it is: its prime
// factors dealt round-robin, so a column may get range 1 (a constant).
std::vector<uint64_t> SplitRanges(uint64_t product, size_t k) {
  std::vector<uint64_t> ranges(k, 1);
  size_t next = 0;
  for (uint64_t p = 2; product > 1; ++p) {
    if (p * p > product) p = product;
    while (product % p == 0) {
      ranges[next++ % k] *= p;
      product /= p;
    }
  }
  return ranges;
}

TEST(RowSortTest, SlotPathMatchesMapOracleAtTheDensityLimit) {
  // Keys of 1–4 columns whose ranges multiply to exactly the density
  // limit (slot path) and to one slot more (sort path), placed negative,
  // straddling zero and hugging either end of int64; with zero counts
  // (dropped), saturated counts, and presorted input. Normalize and
  // GroupBySum must equal a std::map oracle either way, and exactly the
  // keys within the limit take the slot path.
  Rng rng(23);
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  for (int trial = 0; trial < 64; ++trial) {
    const size_t arity = 1 + static_cast<size_t>(trial) % 4;
    const bool dense = trial % 8 < 4;
    const bool presorted = trial % 16 >= 8;
    // Below and above the 256-row radix threshold.
    const size_t rows = trial % 32 < 16 ? 90 : 1012;
    const uint64_t limit = kDenseSlotsPerRow * rows;
    const std::vector<uint64_t> ranges =
        SplitRanges(dense ? limit : limit + 1, arity);
    AttributeSet attrs;
    std::vector<Value> lo(arity);
    for (size_t c = 0; c < arity; ++c) {
      attrs.push_back(static_cast<AttrId>(c + 1));
      const Value span = static_cast<Value>(ranges[c] - 1);
      const Value starts[] = {kMin, kMax - span, -span / 2, -span - 9};
      lo[c] = starts[(c + static_cast<size_t>(trial)) % 4];
    }
    std::vector<std::pair<std::vector<Value>, Count>> input;
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> row(arity);
      for (size_t c = 0; c < arity; ++c) {
        // Rows 0 and 1 pin each column's min and max, so its range is
        // exactly ranges[c].
        const uint64_t off = i == 0   ? 0
                             : i == 1 ? ranges[c] - 1
                                      : rng.NextBounded(ranges[c]);
        row[c] = static_cast<Value>(static_cast<uint64_t>(lo[c]) + off);
      }
      Count count(1 + rng.NextBounded(5));
      const uint64_t pick = rng.NextBounded(10);
      if (pick == 0) count = Count::Zero();
      if (pick == 1) count = Count::Max();
      input.emplace_back(std::move(row), count);
    }
    if (presorted) std::sort(input.begin(), input.end());

    CountedRelation r(attrs);
    CountMap oracle;
    for (const auto& [row, count] : input) {
      r.AppendRow(row, count);
      oracle[row] += count;
    }
    const std::string label = "trial " + std::to_string(trial) + " arity " +
                              std::to_string(arity) +
                              (dense ? " at the limit" : " one above");
    ExecContext ctx;
    CountedRelation normalized = r;
    normalized.Normalize(&ctx);
    EXPECT_TRUE(normalized.normalized()) << label;
    ExpectEqualsOracle(normalized, oracle, label + " normalize");
    EXPECT_EQ(DenseCalls(ctx), dense ? 1u : 0u) << label;
    EXPECT_EQ(FallbackCalls(ctx), 0u) << label;
    if (dense) {
      EXPECT_EQ(ctx.FindStats("sort.dense")->rows_out, limit) << label;
    }
    const CountedRelation grouped = GroupBySum(r, attrs, &ctx);
    ExpectEqualsOracle(grouped, oracle, label + " γ over every column");
    EXPECT_EQ(DenseCalls(ctx), dense ? 2u : 0u) << label;

    // γ over a random column subset, from the raw and the normalized
    // input; a subset's ranges multiply to at most the full product.
    AttributeSet group;
    std::vector<size_t> group_cols;
    for (size_t c = 0; c < arity; ++c) {
      if (rng.NextBounded(2) == 0) {
        group.push_back(attrs[c]);
        group_cols.push_back(c);
      }
    }
    CountMap by_group;
    for (const auto& [row, count] : input) {
      std::vector<Value> key;
      for (size_t c : group_cols) key.push_back(row[c]);
      by_group[key] += count;
    }
    ExpectEqualsOracle(GroupBySum(r, group, &ctx), by_group, label + " raw γ");
    ExpectEqualsOracle(GroupBySum(normalized, group, &ctx), by_group,
                       label + " normalized γ");
  }
}

TEST(RowSortTest, FullRangeColumnNeverTakesTheSlotPath) {
  // A column holding both INT64_MIN and INT64_MAX has a range of 2^64,
  // which wraps to 0 in uint64: it must sort (here through the fallback,
  // the key being 64 bits wide), however few distinct values it holds.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  CountedRelation r({1, 2});
  CountMap oracle;
  for (int i = 0; i < 40; ++i) {
    const std::vector<Value> row = {i % 3 == 0 ? kMax : kMin, i % 2};
    r.AppendRow(row, Count(1 + static_cast<uint64_t>(i % 4)));
    oracle[row] += Count(1 + static_cast<uint64_t>(i % 4));
  }
  ExecContext ctx;
  CountedRelation normalized = r;
  normalized.Normalize(&ctx);
  ExpectEqualsOracle(normalized, oracle, "normalize");
  CountMap first;
  for (const auto& [row, count] : oracle) first[{row[0]}] += count;
  ExpectEqualsOracle(GroupBySum(r, {1}, &ctx), first, "γ on the full range");
  EXPECT_EQ(DenseCalls(ctx), 0u);
  EXPECT_EQ(FallbackCalls(ctx), 2u);
  // The narrow column alone is dense.
  CountMap second;
  for (const auto& [row, count] : oracle) second[{row[1]}] += count;
  ExpectEqualsOracle(GroupBySum(r, {2}, &ctx), second, "γ on the narrow");
  EXPECT_EQ(DenseCalls(ctx), 1u);
}

TEST(RowSortTest, SlotPathKeepsOnlyCleanPresortedInput) {
  // Strictly ascending dense keys are already normalized unless a count
  // is zero: the zero row must still be dropped.
  ExecContext ctx;
  CountedRelation clean({1});
  CountedRelation zero({1});
  for (Value v = -4; v < 60; v += 2) {
    clean.AppendRow({v}, Count(3));
    zero.AppendRow({v}, v == 10 ? Count::Zero() : Count(3));
  }
  clean.Normalize(&ctx);
  zero.Normalize(&ctx);
  EXPECT_EQ(DenseCalls(ctx), 2u);
  EXPECT_EQ(clean.NumRows(), 32u);
  ASSERT_EQ(zero.NumRows(), 31u);
  for (size_t i = 0; i < zero.NumRows(); ++i) {
    EXPECT_NE(zero.Row(i)[0], 10) << i;
    EXPECT_EQ(zero.CountAt(i), Count(3)) << i;
  }
}

TEST(RowSortTest, DetectsPresortedInput) {
  CountedRelation r({1, 2});
  r.AppendRow({1, 9}, Count::One());
  r.AppendRow({2, 3}, Count::One());
  r.AppendRow({2, 5}, Count::One());
  r.Normalize();
  std::vector<int> prefix{0};
  std::vector<int> trailing{1};
  EXPECT_TRUE(RowsSortedBy(r, prefix));
  EXPECT_FALSE(RowsSortedBy(r, trailing));
}

}  // namespace
}  // namespace lsens
