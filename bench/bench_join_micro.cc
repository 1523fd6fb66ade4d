// Operator micro-benchmarks (google-benchmark): the counted-relation
// primitives every TSens pass is built from — r⋈ under each join kernel
// (including the pre-ExecContext legacy kernels kept here as the
// comparison baseline, and the covering kernel kAuto runs when one side's
// attributes cover the other's), FoldJoin's k-way covering fold and its
// greedy order on a q2-shaped chain,
// Normalize and γ group-by-sum on the packed sort kernel and, for compact
// key domains, its direct-addressed slot path, and the
// Yannakakis-style count evaluation on TPC-H q1.
//
// Besides the console table, the run writes a machine-readable trajectory
// file (default BENCH_join.json, override with LSENS_BENCH_JSON):
//   [{"name": "BM_HashJoin/10000", "rows": 10000, "ns_per_op": 2.1e6}, ...]
// so successive PRs can diff per-kernel perf. Legacy-vs-current speedups
// are printed at the end of the run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "exec/counted_relation.h"
#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "exec/join.h"
#include "query/eval.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

CountedRelation MakeRandomCounted(Rng& rng, size_t rows, AttributeSet attrs,
                                  uint64_t domain) {
  CountedRelation rel(std::move(attrs));
  std::vector<Value> row(rel.arity());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = static_cast<Value>(rng.NextBounded(domain));
    rel.AppendRow(row, Count::One());
  }
  rel.Normalize();
  return rel;
}

// ---------------------------------------------------------------------------
// Legacy kernels: the seed implementation (std::unordered_multimap build,
// per-emission scratch allocation, comparison-sort normalize), preserved
// verbatim in spirit so BM_Legacy* measures what the refactor replaced.
// ---------------------------------------------------------------------------

uint64_t LegacyHashKey(std::span<const Value> row,
                       const std::vector<int>& cols) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : cols) {
    h = Mix64(h ^ static_cast<uint64_t>(row[static_cast<size_t>(c)]));
  }
  return h;
}

struct LegacyRows {
  size_t arity = 0;
  std::vector<Value> data;
  std::vector<Count> counts;
  std::span<const Value> Row(size_t i) const {
    return {data.data() + i * arity, arity};
  }
};

int LegacyCompareRows(std::span<const Value> a, std::span<const Value> b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

// The seed's Normalize: permutation sort with indirect full-row
// comparisons, merge, then a zero-count filter pass.
void LegacyNormalize(LegacyRows& r) {
  const size_t n = r.counts.size();
  const size_t k = r.arity;
  if (n == 0) return;
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return LegacyCompareRows(r.Row(a), r.Row(b)) < 0;
  });
  std::vector<Value> new_data;
  new_data.reserve(r.data.size());
  std::vector<Count> new_counts;
  new_counts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::span<const Value> row = r.Row(perm[i]);
    if (!new_counts.empty() &&
        LegacyCompareRows({new_data.data() + (new_counts.size() - 1) * k, k},
                          row) == 0) {
      new_counts.back() += r.counts[perm[i]];
    } else {
      new_data.insert(new_data.end(), row.begin(), row.end());
      new_counts.push_back(r.counts[perm[i]]);
    }
  }
  std::vector<Value> final_data;
  final_data.reserve(new_data.size());
  std::vector<Count> final_counts;
  final_counts.reserve(new_counts.size());
  for (size_t i = 0; i < new_counts.size(); ++i) {
    if (new_counts[i].IsZero()) continue;
    final_data.insert(final_data.end(), new_data.begin() + i * k,
                      new_data.begin() + (i + 1) * k);
    final_counts.push_back(new_counts[i]);
  }
  r.data = std::move(final_data);
  r.counts = std::move(final_counts);
}

// The seed's two-column-relation natural join over `key` = the single
// shared attribute of the bench shapes ({1,2} ⋈ {2,3}).
LegacyRows LegacyHashJoin(const CountedRelation& a, const CountedRelation& b) {
  const std::vector<int> a_key{1};
  const std::vector<int> b_key{0};
  const bool build_a = a.NumRows() < b.NumRows();
  const CountedRelation& build = build_a ? a : b;
  const CountedRelation& probe = build_a ? b : a;
  const std::vector<int>& build_cols = build_a ? a_key : b_key;
  const std::vector<int>& probe_cols = build_a ? b_key : a_key;

  std::unordered_multimap<uint64_t, uint32_t> table;
  table.reserve(build.NumRows());
  for (size_t i = 0; i < build.NumRows(); ++i) {
    table.emplace(LegacyHashKey(build.Row(i), build_cols),
                  static_cast<uint32_t>(i));
  }

  LegacyRows out;
  out.arity = 3;
  std::vector<Value> scratch;
  for (size_t j = 0; j < probe.NumRows(); ++j) {
    std::span<const Value> pr = probe.Row(j);
    uint64_t h = LegacyHashKey(pr, probe_cols);
    auto [lo, hi] = table.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      std::span<const Value> br = build.Row(it->second);
      if (br[static_cast<size_t>(build_cols[0])] !=
          pr[static_cast<size_t>(probe_cols[0])]) {
        continue;
      }
      std::span<const Value> ra = build_a ? br : pr;
      std::span<const Value> rb = build_a ? pr : br;
      scratch.resize(3);
      scratch[0] = ra[0];
      scratch[1] = ra[1];
      scratch[2] = rb[1];
      out.data.insert(out.data.end(), scratch.begin(), scratch.end());
      out.counts.push_back(build.CountAt(it->second) * probe.CountAt(j));
    }
  }
  LegacyNormalize(out);
  return out;
}

LegacyRows LegacySortMergeJoin(const CountedRelation& a,
                               const CountedRelation& b) {
  auto sorted_perm = [](const CountedRelation& r, int col) {
    std::vector<uint32_t> perm(r.NumRows());
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
      return r.Row(x)[static_cast<size_t>(col)] <
             r.Row(y)[static_cast<size_t>(col)];
    });
    return perm;
  };
  std::vector<uint32_t> pa = sorted_perm(a, 1);
  std::vector<uint32_t> pb = sorted_perm(b, 0);

  LegacyRows out;
  out.arity = 3;
  std::vector<Value> scratch;
  size_t i = 0;
  size_t j = 0;
  while (i < pa.size() && j < pb.size()) {
    Value va = a.Row(pa[i])[1];
    Value vb = b.Row(pb[j])[0];
    if (va < vb) {
      ++i;
    } else if (va > vb) {
      ++j;
    } else {
      size_t i_end = i + 1;
      while (i_end < pa.size() && a.Row(pa[i_end])[1] == vb) ++i_end;
      size_t j_end = j + 1;
      while (j_end < pb.size() && b.Row(pb[j_end])[0] == va) ++j_end;
      for (size_t x = i; x < i_end; ++x) {
        for (size_t y = j; y < j_end; ++y) {
          scratch.resize(3);
          scratch[0] = a.Row(pa[x])[0];
          scratch[1] = a.Row(pa[x])[1];
          scratch[2] = b.Row(pb[y])[1];
          out.data.insert(out.data.end(), scratch.begin(), scratch.end());
          out.counts.push_back(a.CountAt(pa[x]) * b.CountAt(pb[y]));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  LegacyNormalize(out);
  return out;
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

void BM_NaturalJoin(benchmark::State& state, JoinAlgorithm algo) {
  Rng rng(1);
  size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation a = MakeRandomCounted(rng, rows, {1, 2}, rows / 4 + 1);
  CountedRelation b = MakeRandomCounted(rng, rows, {2, 3}, rows / 4 + 1);
  ExecContext ctx;
  JoinOptions opts{algo, &ctx};
  for (auto _ : state) {
    CountedRelation j = NaturalJoin(a, b, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * rows));
}

void BM_HashJoin(benchmark::State& state) {
  BM_NaturalJoin(state, JoinAlgorithm::kHash);
}
void BM_SortMergeJoin(benchmark::State& state) {
  BM_NaturalJoin(state, JoinAlgorithm::kSortMerge);
}
void BM_AutoJoin(benchmark::State& state) {
  BM_NaturalJoin(state, JoinAlgorithm::kAuto);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SortMergeJoin)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_AutoJoin)->Arg(1000)->Arg(10000)->Arg(100000);

// kAuto with the key leading on both sides ({1,2} ⋈ {1,3}): both inputs are
// key-sorted, so the picker takes sort-merge without counting the output.
void BM_AutoJoinPresorted(benchmark::State& state) {
  Rng rng(1);
  size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation a = MakeRandomCounted(rng, rows, {1, 2}, rows / 4 + 1);
  CountedRelation b = MakeRandomCounted(rng, rows, {1, 3}, rows / 4 + 1);
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kAuto, &ctx};
  for (auto _ : state) {
    CountedRelation j = NaturalJoin(a, b, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * rows));
}
BENCHMARK(BM_AutoJoinPresorted)->Arg(1000)->Arg(10000)->Arg(100000);

// kAuto on covering pairs — b.attrs ⊆ a.attrs, the shape of every
// topjoin/botjoin step — which run as one merge-walk pass over `a`
// (join.covering), range(0) = rows of the larger side:
//   leading        a(x, y) ⋈ b(x): the walk reads a's rows in order;
//   trailing       a(x, y) ⋈ b(y): a's rows are packed-sorted on y first;
//   covered-larger a(x, y) ⋈ b(y) with |b| = 10 |a|: the walk gallops
//                  over b's unmatched runs.
enum class CoveringShape { kLeading, kTrailing, kCoveredLarger };

void BM_CoveringJoin(benchmark::State& state, CoveringShape shape) {
  Rng rng(9);
  const size_t rows = static_cast<size_t>(state.range(0));
  const bool larger = shape == CoveringShape::kCoveredLarger;
  const AttributeSet key =
      shape == CoveringShape::kLeading ? AttributeSet{1} : AttributeSet{2};
  CountedRelation a =
      MakeRandomCounted(rng, larger ? rows / 10 : rows, {1, 2}, rows / 4 + 1);
  CountedRelation b =
      MakeRandomCounted(rng, larger ? rows : rows / 4, key, rows / 2 + 1);
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kAuto, &ctx};
  for (auto _ : state) {
    CountedRelation j = NaturalJoin(a, b, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.NumRows() + b.NumRows()));
}
BENCHMARK_CAPTURE(BM_CoveringJoin, leading, CoveringShape::kLeading)
    ->Arg(10000)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_CoveringJoin, trailing, CoveringShape::kTrailing)
    ->Arg(10000)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_CoveringJoin, covered-larger,
                  CoveringShape::kCoveredLarger)
    ->Arg(10000)
    ->Arg(100000);

// FoldJoin when one piece covers the rest, the shape of every q2 fold:
// a driver S(x, y, z) of range(1) rows and range(0) covered ⊥/⊤-style
// tables of range(1)/4 rows each, run as one k-way join.covering pass
// (no join order, no counts, no intermediate relation). The leading fold's
// sides sit on S's leading columns ({x}, {x, y}, then {x} again), so the
// walk reads S in order; the trailing fold's sides ({z}, {y, z}, {z}) share
// packed sorts of S on their key columns.
void RunCoveringFold(benchmark::State& state, bool leading) {
  Rng rng(12);
  const size_t sides = static_cast<size_t>(state.range(0));
  const size_t rows = static_cast<size_t>(state.range(1));
  const uint64_t domain = rows / 8 + 1;
  const std::vector<AttributeSet> keys =
      leading ? std::vector<AttributeSet>{{1}, {1, 2}, {1}}
              : std::vector<AttributeSet>{{3}, {2, 3}, {3}};
  CountedRelation driver = MakeRandomCounted(rng, rows, {1, 2, 3}, domain);
  std::vector<CountedRelation> covered;
  for (size_t s = 0; s < sides; ++s) {
    covered.push_back(
        MakeRandomCounted(rng, rows / 4, keys[s % keys.size()], domain));
  }
  std::vector<const CountedRelation*> pieces = {&driver};
  for (const CountedRelation& c : covered) pieces.push_back(&c);
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kAuto, &ctx};
  for (auto _ : state) {
    CountedRelation j = FoldJoin(pieces, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows + sides * (rows / 4)));
}
void BM_CoveringFold(benchmark::State& state) {
  RunCoveringFold(state, /*leading=*/true);
}
void BM_CoveringFoldTrailing(benchmark::State& state) {
  RunCoveringFold(state, /*leading=*/false);
}
BENCHMARK(BM_CoveringFold)->ArgsProduct({{2, 3}, {10000, 100000}});
BENCHMARK(BM_CoveringFoldTrailing)->ArgsProduct({{2, 3}, {10000, 100000}});

// FoldJoin over a TPC-H q2-shaped foreign-key chain, range(0) = lineitem
// rows: Supplier(NK, SK), Part(PK), Partsupp(SK, PK) with four suppliers
// per part, and Lineitem(SK, PK, OK) drawing from Partsupp. The greedy
// order meets steps with two attribute-sharing candidates (counted) and
// with one (not counted).
void BM_FoldJoinChain(benchmark::State& state) {
  Rng rng(6);
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t suppliers = rows / 20 + 4;
  const size_t parts = rows / 5 + 1;
  CountedRelation supplier({1, 2});
  for (size_t s = 0; s < suppliers; ++s) {
    supplier.AppendRow({static_cast<Value>(s % 25), static_cast<Value>(s)},
                       Count::One());
  }
  CountedRelation part({3});
  CountedRelation partsupp({2, 3});
  for (size_t p = 0; p < parts; ++p) {
    part.AppendRow({static_cast<Value>(p)}, Count::One());
    for (size_t i = 0; i < 4; ++i) {
      partsupp.AppendRow({static_cast<Value>((p + i * suppliers / 4) %
                                             suppliers),
                          static_cast<Value>(p)},
                         Count::One());
    }
  }
  CountedRelation lineitem({2, 3, 4});
  for (size_t l = 0; l < rows; ++l) {
    const size_t p = rng.NextBounded(parts);
    const size_t i = rng.NextBounded(4);
    lineitem.AppendRow({static_cast<Value>((p + i * suppliers / 4) % suppliers),
                        static_cast<Value>(p), static_cast<Value>(l / 4)},
                       Count::One());
  }
  for (CountedRelation* r : {&supplier, &part, &partsupp, &lineitem}) {
    r->Normalize();
  }
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kAuto, &ctx};
  for (auto _ : state) {
    CountedRelation j =
        FoldJoin({&supplier, &part, &partsupp, &lineitem}, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_FoldJoinChain)->Arg(10000)->Arg(100000);

void BM_LegacyJoin(benchmark::State& state, bool hash) {
  Rng rng(1);
  size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation a = MakeRandomCounted(rng, rows, {1, 2}, rows / 4 + 1);
  CountedRelation b = MakeRandomCounted(rng, rows, {2, 3}, rows / 4 + 1);
  for (auto _ : state) {
    LegacyRows j = hash ? LegacyHashJoin(a, b) : LegacySortMergeJoin(a, b);
    benchmark::DoNotOptimize(j.counts.size());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * rows));
}

void BM_LegacyHashJoin(benchmark::State& state) { BM_LegacyJoin(state, true); }
void BM_LegacySortMergeJoin(benchmark::State& state) {
  BM_LegacyJoin(state, false);
}
BENCHMARK(BM_LegacyHashJoin)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_LegacySortMergeJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GroupBySum(benchmark::State& state) {
  Rng rng(2);
  size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation r = MakeRandomCounted(rng, rows, {1, 2}, rows / 8 + 1);
  ExecContext ctx;
  for (auto _ : state) {
    CountedRelation g = GroupBySum(r, {1}, &ctx);
    benchmark::DoNotOptimize(g.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_GroupBySum)->Arg(1000)->Arg(10000)->Arg(100000);

// `rows` unnormalized rows over `arity` columns drawn from rows / 7.5
// distinct tuples — the duplication of the Lineitem -> {SK, PK} scan
// (600k rows, 80k groups). Column 0 is the tuple id; the other columns
// are 8-bit functions of it, so every key shape here packs into one sort
// word (the wide-key fallback is pinned by tests, not timed).
CountedRelation MakeDuplicated(Rng& rng, size_t rows, size_t arity) {
  AttributeSet attrs;
  for (size_t c = 0; c < arity; ++c) {
    attrs.push_back(static_cast<AttrId>(c + 1));
  }
  CountedRelation rel(std::move(attrs));
  const uint64_t groups = rows * 2 / 15 + 1;
  std::vector<Value> row(arity);
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t g = rng.NextBounded(groups);
    row[0] = static_cast<Value>(g);
    for (size_t c = 1; c < arity; ++c) {
      row[c] = static_cast<Value>(Mix64(g * 31 + c) & 0xff);
    }
    rel.AppendRow(row, Count::One());
  }
  return rel;
}

// Normalize of an unsorted, duplicated relation: range(0) = key columns
// (the arity), range(1) = rows.
void BM_Normalize(benchmark::State& state) {
  Rng rng(4);
  const size_t cols = static_cast<size_t>(state.range(0));
  const size_t rows = static_cast<size_t>(state.range(1));
  const CountedRelation input = MakeDuplicated(rng, rows, cols);
  ExecContext ctx;
  for (auto _ : state) {
    state.PauseTiming();
    CountedRelation r = input;
    state.ResumeTiming();
    r.Normalize(&ctx);
    benchmark::DoNotOptimize(r.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_Normalize)->ArgsProduct({{1, 2, 3}, {10000, 600000}});

// γ onto two columns that are not a prefix of the normalized input, so
// the group-by sorts rather than merging in input order. range(0) = rows
// generated; about rows / 7.5 remain after the input is normalized.
void BM_GroupBySumTwoCols(benchmark::State& state) {
  Rng rng(5);
  const size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation r = MakeDuplicated(rng, rows, 3);
  r.Normalize();
  ExecContext ctx;
  for (auto _ : state) {
    CountedRelation g = GroupBySum(r, {2, 3}, &ctx);
    benchmark::DoNotOptimize(g.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_GroupBySumTwoCols)->Arg(10000)->Arg(600000);

// Compact key domains, shaped like Orders -> CK at TPC-H sf 0.1 (150k
// orders over 15k customers): range(0) rows drawing their key from
// range(0) / 10 values, so the key's whole range is smaller than the row
// count and the kernels address it directly (sort.dense) instead of
// sorting it. Column 1 is a unique row id, column 2 the compact key.
CountedRelation MakeCompactKeyed(Rng& rng, size_t rows) {
  CountedRelation rel({1, 2});
  const uint64_t keys = rows / 10;
  for (size_t i = 0; i < rows; ++i) {
    rel.AppendRow({static_cast<Value>(i), static_cast<Value>(
                                              1 + rng.NextBounded(keys))},
                  Count::One());
  }
  return rel;
}

// Normalize of the unsorted projection onto the compact key.
void BM_NormalizeCompact(benchmark::State& state) {
  Rng rng(6);
  const size_t rows = static_cast<size_t>(state.range(0));
  const uint64_t keys = rows / 10;
  CountedRelation input({1});
  for (size_t i = 0; i < rows; ++i) {
    input.AppendRow({static_cast<Value>(1 + rng.NextBounded(keys))},
                    Count::One());
  }
  ExecContext ctx;
  for (auto _ : state) {
    state.PauseTiming();
    CountedRelation r = input;
    state.ResumeTiming();
    r.Normalize(&ctx);
    benchmark::DoNotOptimize(r.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_NormalizeCompact)->Arg(10000)->Arg(150000);

// γ onto the compact key, which does not lead the normalized input.
void BM_GroupBySumCompact(benchmark::State& state) {
  Rng rng(7);
  const size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation r = MakeCompactKeyed(rng, rows);
  r.Normalize();
  ExecContext ctx;
  for (auto _ : state) {
    CountedRelation g = GroupBySum(r, {2}, &ctx);
    benchmark::DoNotOptimize(g.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_GroupBySumCompact)->Arg(10000)->Arg(150000);

// kAuto covering join on the compact key, trailing on the covering side:
// a(id, key) ⋈ b(key) with one row of b per key.
void BM_CoveringJoinCompactTrailing(benchmark::State& state) {
  Rng rng(8);
  const size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation a = MakeCompactKeyed(rng, rows);
  a.Normalize();
  CountedRelation b({2});
  for (size_t k = 1; k <= rows / 10; ++k) {
    b.AppendRow({static_cast<Value>(k)}, Count(1 + rng.NextBounded(3)));
  }
  b.Normalize();
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kAuto, &ctx};
  for (auto _ : state) {
    CountedRelation j = NaturalJoin(a, b, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.NumRows() + b.NumRows()));
}
BENCHMARK(BM_CoveringJoinCompactTrailing)->Arg(10000)->Arg(150000);

// The same join with a covered side ten times the covering one (the q3
// 38,492 ⋈ 300,000 shape): a has range(0) / 10 rows over range(0) / 100
// keys, b one row for each of range(0) keys, so most of b's runs fall
// outside a's key range.
void BM_CoveringJoinCompactCoveredLarger(benchmark::State& state) {
  Rng rng(10);
  const size_t rows = static_cast<size_t>(state.range(0));
  CountedRelation a = MakeCompactKeyed(rng, rows / 10);
  a.Normalize();
  CountedRelation b({2});
  for (size_t k = 1; k <= rows; ++k) {
    b.AppendRow({static_cast<Value>(k)}, Count(1 + rng.NextBounded(3)));
  }
  b.Normalize();
  ExecContext ctx;
  JoinOptions opts{JoinAlgorithm::kAuto, &ctx};
  for (auto _ : state) {
    CountedRelation j = NaturalJoin(a, b, opts);
    benchmark::DoNotOptimize(j.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.NumRows() + b.NumRows()));
}
BENCHMARK(BM_CoveringJoinCompactCoveredLarger)->Arg(10000)->Arg(150000);

void BM_TopKTruncation(benchmark::State& state) {
  Rng rng(3);
  size_t rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    CountedRelation r = MakeRandomCounted(rng, rows, {1}, rows * 2);
    state.ResumeTiming();
    r.TruncateTopK(64);
    benchmark::DoNotOptimize(r.NumRows());
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_TopKTruncation)->Arg(10000)->Arg(100000);

void BM_CountQ1(benchmark::State& state) {
  TpchOptions topts;
  topts.scale = static_cast<double>(state.range(0)) * 1e-4;
  Database db = MakeTpchDatabase(topts);
  WorkloadQuery q1 = MakeTpchQ1(db);
  for (auto _ : state) {
    auto c = CountQuery(q1.query, db);
    benchmark::DoNotOptimize(c.ok());
  }
  state.counters["rows"] = static_cast<double>(db.TotalRows());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db.TotalRows()));
}
BENCHMARK(BM_CountQ1)->Arg(1)->Arg(10)->Arg(100);

// ---------------------------------------------------------------------------
// Compact JSON trajectory reporter
// ---------------------------------------------------------------------------

struct BenchEntry {
  std::string name;
  double rows = 0;
  double ns_per_op = 0;
};

// A console reporter that additionally records every run for the JSON
// trajectory file (google-benchmark only accepts a standalone file
// reporter together with --benchmark_out, so recording rides on the
// display reporter instead).
class CompactJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      BenchEntry e;
      e.name = run.benchmark_name();
      auto it = run.counters.find("rows");
      if (it != run.counters.end()) e.rows = it->second.value;
      e.ns_per_op = run.GetAdjustedRealTime();  // ns: the default time unit
      entries_.push_back(std::move(e));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchEntry>& entries() const { return entries_; }

  bool WriteFile(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"rows\": %.0f, "
                   "\"ns_per_op\": %.1f}%s\n",
                   entries_[i].name.c_str(), entries_[i].rows,
                   entries_[i].ns_per_op, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<BenchEntry> entries_;
};

// Prints "BM_HashJoin/10000: 3.5x vs legacy" lines for every kernel pair
// present in this run.
void PrintSpeedups(const std::vector<BenchEntry>& entries) {
  std::map<std::string, double> by_name;
  for (const BenchEntry& e : entries) by_name[e.name] = e.ns_per_op;
  const std::pair<const char*, const char*> pairs[] = {
      {"BM_HashJoin", "BM_LegacyHashJoin"},
      {"BM_SortMergeJoin", "BM_LegacySortMergeJoin"},
  };
  bool header = false;
  for (const auto& [current, legacy] : pairs) {
    for (const auto& [name, ns] : by_name) {
      if (name.rfind(std::string(current) + "/", 0) != 0) continue;
      std::string suffix = name.substr(std::string(current).size());
      auto it = by_name.find(std::string(legacy) + suffix);
      if (it == by_name.end() || ns <= 0) continue;
      if (!header) {
        std::printf("\nspeedup vs legacy kernels:\n");
        header = true;
      }
      std::printf("  %-28s %6.2fx\n", name.c_str(), it->second / ns);
    }
  }
}

}  // namespace
}  // namespace lsens

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  lsens::CompactJsonReporter json;
  benchmark::RunSpecifiedBenchmarks(&json);
  const char* path = std::getenv("LSENS_BENCH_JSON");
  if (path == nullptr) path = "BENCH_join.json";
  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("wrote %s (%zu entries)\n", path, json.entries().size());
  lsens::PrintSpeedups(json.entries());
  benchmark::Shutdown();
  return 0;
}
