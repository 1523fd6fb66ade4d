#include "exec/join.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "exec/exec_context.h"
#include "exec/hash_group_table.h"
#include "exec/row_sort.h"

namespace lsens {

namespace {

// Join outputs at least this large are reserved incrementally (vector
// doubling) instead of up front, bounding a single pre-allocation.
constexpr size_t kMaxReserveRows = size_t{1} << 22;

// Precomputed column routing for one join: where each output column comes
// from, and where the key columns live on each side.
struct JoinLayout {
  AttributeSet out_attrs;
  AttributeSet key;
  std::vector<int> a_key_cols;
  std::vector<int> b_key_cols;
  // For each output column: pair (side, column). side 0 = a, 1 = b.
  std::vector<std::pair<int, int>> out_src;
};

JoinLayout MakeLayout(const CountedRelation& a, const CountedRelation& b) {
  JoinLayout layout;
  layout.out_attrs = Union(a.attrs(), b.attrs());
  layout.key = Intersect(a.attrs(), b.attrs());
  for (AttrId attr : layout.key) {
    layout.a_key_cols.push_back(a.ColumnOf(attr));
    layout.b_key_cols.push_back(b.ColumnOf(attr));
  }
  for (AttrId attr : layout.out_attrs) {
    int ca = a.ColumnOf(attr);
    if (ca >= 0) {
      layout.out_src.emplace_back(0, ca);
    } else {
      layout.out_src.emplace_back(1, b.ColumnOf(attr));
    }
  }
  return layout;
}

// `scratch` must be pre-sized to layout.out_src.size().
void EmitRow(const JoinLayout& layout, std::span<const Value> ra,
             std::span<const Value> rb, Count count, CountedRelation* out,
             std::vector<Value>& scratch) {
  for (size_t i = 0; i < layout.out_src.size(); ++i) {
    const auto& [side, col] = layout.out_src[i];
    scratch[i] = (side == 0) ? ra[static_cast<size_t>(col)]
                             : rb[static_cast<size_t>(col)];
  }
  out->AppendRow(scratch, count);
}

// A covered side as its key runs in key order: the side itself when it is
// normalized, else its rows ordered by SortRowsBy with each run of equal
// rows summed into one entry (a present run matches with its sum, even a
// zero one; an absent key takes the side's default).
class CoveredRuns {
 public:
  CoveredRuns(const CountedRelation& r, ExecContext& ctx) : rel_(r) {
    if (r.normalized()) return;
    std::vector<int> cols(r.arity());
    std::iota(cols.begin(), cols.end(), 0);
    std::vector<uint32_t> perm;
    SortRowsBy(r, cols, perm, ctx);
    ForEachSortedGroup(r, cols, perm, [&](size_t begin, size_t end) {
      Count sum = Count::Zero();
      for (size_t p = begin; p < end; ++p) sum += r.CountAt(perm[p]);
      first_.push_back(perm[begin]);
      sums_.push_back(sum);
    });
  }

  size_t size() const {
    return rel_.normalized() ? rel_.NumRows() : sums_.size();
  }
  std::span<const Value> Row(size_t g) const {
    return rel_.Row(rel_.normalized() ? g : first_[g]);
  }
  Count CountAt(size_t g) const {
    return rel_.normalized() ? rel_.CountAt(g) : sums_[g];
  }
  Count unmatched() const { return rel_.default_count(); }

 private:
  const CountedRelation& rel_;
  std::vector<uint32_t> first_;
  std::vector<Count> sums_;
};

// The first index in [j, n) at which `below` is false, for a predicate
// that holds on a prefix of the range: an exponential then a binary search,
// so a cursor advancing over a much larger side skips its unmatched runs
// in O(log gap) compares, and a one-step advance costs two.
template <typename Below>
size_t GallopPast(size_t j, size_t n, Below&& below) {
  size_t lo = j;
  size_t hi = j;
  for (size_t step = 1; hi < n && below(hi); step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (below(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// The covered sides that sit on the same columns of the covering side.
struct KeyGroup {
  std::vector<int> cols;      // covering-side columns, in key order
  std::vector<size_t> sides;  // indices into the covered sides
};

// Multiplies mult[r], for every row r of `a`, by the product of r's matches
// on the sides of `group`. When the key leads a's columns and `a` is
// normalized, each side is merge-walked in key order with its own cursor
// over a's rows. Otherwise one PackedSort of `a` on the key serves all the
// group's sides: a dense key domain is addressed directly — per side, a
// slot table of its runs, probed by each row of `a` — and any other is
// sorted, each side merge-walked over its key groups. Rows already at zero
// are skipped.
void ApplyKeyGroup(const CountedRelation& a, const KeyGroup& group,
                   const std::vector<CoveredRuns>& runs,
                   std::vector<Count>& mult, ExecContext& ctx) {
  const std::vector<int>& cols = group.cols;
  std::vector<size_t> cursor(group.sides.size(), 0);
  // Three-way comparison of a covered side's key run with a's row.
  auto compare = [&cols](std::span<const Value> rb, std::span<const Value> ra) {
    for (size_t c = 0; c < cols.size(); ++c) {
      const Value va = ra[static_cast<size_t>(cols[c])];
      if (rb[c] < va) return -1;
      if (rb[c] > va) return 1;
    }
    return 0;
  };
  auto match = [&](std::span<const Value> ra) {
    Count m = Count::One();
    for (size_t s = 0; s < group.sides.size() && !m.IsZero(); ++s) {
      const CoveredRuns& side = runs[group.sides[s]];
      size_t& j = cursor[s];
      j = GallopPast(j, side.size(), [&](size_t x) {
        return compare(side.Row(x), ra) < 0;
      });
      m *= j < side.size() && compare(side.Row(j), ra) == 0 ? side.CountAt(j)
                                                            : side.unmatched();
    }
    return m;
  };

  bool leading = true;
  for (size_t c = 0; c < cols.size(); ++c) {
    leading = leading && cols[c] == static_cast<int>(c);
  }
  if (leading && a.normalized()) {
    for (size_t i = 0; i < a.NumRows(); ++i) {
      if (!mult[i].IsZero()) mult[i] *= match(a.Row(i));
    }
    return;
  }
  const PackedSort sorted(a, cols, ctx, DenseKeys::kSlots);
  if (sorted.dense()) {
    // Slot -> 1 + the index of the run with that key, 0 when none has it.
    // perm_a is free here: only the sort-merge join uses it. Runs come in
    // key order, so only those whose first key value lies within a's range
    // can match; galloping to them keeps a larger side from being read in
    // full. (An empty key has one slot, which its one run takes.)
    std::vector<uint32_t>& table = ctx.perm_a();
    for (size_t s : group.sides) {
      const CoveredRuns& side = runs[s];
      LSENS_CHECK(side.size() < UINT32_MAX);
      table.assign(sorted.num_slots(), 0);
      size_t first = 0;
      size_t last = side.size();
      if (!cols.empty()) {
        first = GallopPast(0, last, [&](size_t x) {
          return side.Row(x)[0] < sorted.KeyMin(0);
        });
        last = GallopPast(first, last, [&](size_t x) {
          return side.Row(x)[0] <= sorted.KeyMax(0);
        });
      }
      uint64_t slot = 0;
      for (size_t j = first; j < last; ++j) {
        if (sorted.FindSlot(side.Row(j), slot)) {
          table[slot] = static_cast<uint32_t>(j + 1);
        }
      }
      for (size_t i = 0; i < a.NumRows(); ++i) {
        if (mult[i].IsZero()) continue;
        const uint32_t run = table[sorted.SlotOf(i)];
        mult[i] *= run != 0 ? side.CountAt(run - 1) : side.unmatched();
      }
    }
    return;
  }
  sorted.ForEachGroup([&](size_t begin, size_t end) {
    while (begin < end && mult[sorted.RowAt(begin)].IsZero()) ++begin;
    if (begin == end) return;
    const Count m = match(a.Row(sorted.RowAt(begin)));
    for (size_t p = begin; p < end; ++p) mult[sorted.RowAt(p)] *= m;
  });
}

}  // namespace

CountedRelation CoveringJoin(const CountedRelation& a,
                             std::span<const CountedRelation* const> covered,
                             ExecContext* ctx_in) {
  ExecContext& ctx = ResolveExecContext(ctx_in);
  LSENS_CHECK_MSG(!a.has_default(), "the covering side cannot be defaulted");
  uint64_t rows_in = a.NumRows();
  for (const CountedRelation* b : covered) {
    LSENS_CHECK(IsSubset(b->attrs(), a.attrs()));
    rows_in += b->NumRows();
  }
  OpTimer op(ctx, "join.covering", rows_in);

  // Every side's runs first: an unnormalized side's SortRowsBy would
  // otherwise overwrite the sort words a PackedSort of `a` is reading.
  std::vector<CoveredRuns> runs;
  runs.reserve(covered.size());
  std::vector<KeyGroup> groups;
  for (size_t s = 0; s < covered.size(); ++s) {
    const CountedRelation& b = *covered[s];
    runs.emplace_back(b, ctx);
    std::vector<int> cols;
    cols.reserve(b.arity());
    for (AttrId attr : b.attrs()) cols.push_back(a.ColumnOf(attr));
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const KeyGroup& g) { return g.cols == cols; });
    if (it == groups.end()) {
      groups.push_back({std::move(cols), {}});
      it = groups.end() - 1;
    }
    it->sides.push_back(s);
  }

  std::vector<Count>& mult = ctx.count_buf();
  mult.assign(a.NumRows(), Count::One());
  for (const KeyGroup& group : groups) ApplyKeyGroup(a, group, runs, mult, ctx);
  CountedRelation out = a.FilterScale(mult);
  if (!out.normalized()) out.Normalize(&ctx);
  op.set_rows_out(out.NumRows());
  return out;
}

namespace {

CountedRelation CrossProduct(const CountedRelation& a,
                             const CountedRelation& b, ExecContext& ctx) {
  OpTimer op(ctx, "join.cross", a.NumRows() + b.NumRows());
  JoinLayout layout = MakeLayout(a, b);
  CountedRelation out(layout.out_attrs);
  const size_t na = a.NumRows();
  const size_t nb = b.NumRows();
  // na * nb can wrap size_t before Reserve ever sees it; a product that
  // large cannot be materialized anyway, so fail loudly instead.
  LSENS_CHECK_MSG(nb == 0 || na <= SIZE_MAX / nb,
                  "cross product row count overflows size_t");
  out.Reserve(std::min(na * nb, kMaxReserveRows));
  std::vector<Value>& scratch = ctx.row_buf();
  scratch.resize(layout.out_src.size());
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      EmitRow(layout, a.Row(i), b.Row(j), a.CountAt(i) * b.CountAt(j), &out,
              scratch);
    }
  }
  out.Normalize(&ctx);
  op.set_rows_out(out.NumRows());
  return out;
}

// The flat group table on the smaller side's key (ctx.group_table()) and
// the probe side's batch-hashed keys (ctx.hash_buf()): what the exact
// join-size count and the hash kernel's emit loop both read.
void BuildHashSide(const CountedRelation& a, const CountedRelation& b,
                   const JoinLayout& layout, ExecContext& ctx) {
  const bool build_a = a.NumRows() < b.NumRows();
  ctx.group_table().Build(build_a ? a : b,
                          build_a ? layout.a_key_cols : layout.b_key_cols);
  HashRowKeysBatch(build_a ? b : a,
                   build_a ? layout.b_key_cols : layout.a_key_cols,
                   ctx.gather_buf(), ctx.hash_buf());
}

// Hash join building on the smaller side. `table_built` says the exact
// count pass (CountJoinRows) already left the table and probe hashes in
// `ctx`; otherwise this kernel builds them under its own timer.
// `est_rows` is the exact pre-merge output size.
CountedRelation HashJoin(const CountedRelation& a, const CountedRelation& b,
                         const JoinLayout& layout, size_t est_rows,
                         bool table_built, ExecContext& ctx) {
  const bool build_a = a.NumRows() < b.NumRows();
  const CountedRelation& build = build_a ? a : b;
  const CountedRelation& probe = build_a ? b : a;
  const std::vector<int>& probe_cols =
      build_a ? layout.b_key_cols : layout.a_key_cols;

  OpTimer op(ctx, "join.hash", a.NumRows() + b.NumRows());
  op.set_build_rows(build.NumRows());
  if (!table_built) BuildHashSide(a, b, layout, ctx);
  const FlatGroupTable& table = ctx.group_table();
  std::span<const uint64_t> probe_hashes = ctx.hash_buf();

  CountedRelation out(layout.out_attrs);
  out.Reserve(std::min(est_rows, kMaxReserveRows));
  std::vector<Value>& scratch = ctx.row_buf();
  scratch.resize(layout.out_src.size());
  for (size_t j = 0; j < probe.NumRows(); ++j) {
    std::span<const Value> pr = probe.Row(j);
    for (uint32_t i : table.Probe(pr, probe_cols, probe_hashes[j])) {
      std::span<const Value> br = build.Row(i);
      std::span<const Value> ra = build_a ? br : pr;
      std::span<const Value> rb = build_a ? pr : br;
      EmitRow(layout, ra, rb, build.CountAt(i) * probe.CountAt(j), &out,
              scratch);
    }
  }
  out.Normalize(&ctx);
  op.set_rows_out(out.NumRows());
  return out;
}

// `sorted_a` / `sorted_b`: that side is already ordered on its key columns
// (RowsSortedBy), so it merges in row order with no sort. `est_rows` sizes
// the output Reserve; SIZE_MAX = unknown.
CountedRelation SortMergeJoin(const CountedRelation& a,
                              const CountedRelation& b,
                              const JoinLayout& layout, size_t est_rows,
                              bool sorted_a, bool sorted_b, ExecContext& ctx) {
  OpTimer op(ctx, "join.sort_merge", a.NumRows() + b.NumRows());
  auto order = [&ctx](const CountedRelation& r, std::span<const int> cols,
                      bool sorted, std::vector<uint32_t>& perm) {
    if (sorted) {
      perm.resize(r.NumRows());
      std::iota(perm.begin(), perm.end(), 0u);
    } else {
      SortRowsBy(r, cols, perm, ctx);
    }
  };
  std::vector<uint32_t>& pa = ctx.perm_a();
  std::vector<uint32_t>& pb = ctx.perm_b();
  order(a, layout.a_key_cols, sorted_a, pa);
  order(b, layout.b_key_cols, sorted_b, pb);

  auto key_cmp = [&](std::span<const Value> ra, std::span<const Value> rb) {
    for (size_t i = 0; i < layout.a_key_cols.size(); ++i) {
      Value va = ra[static_cast<size_t>(layout.a_key_cols[i])];
      Value vb = rb[static_cast<size_t>(layout.b_key_cols[i])];
      if (va < vb) return -1;
      if (va > vb) return 1;
    }
    return 0;
  };

  // Calls fn(i, i_end, j, j_end) for every key group present on both
  // sides: pa[i..i_end) and pb[j..j_end), in key order.
  auto for_each_match = [&](auto&& fn) {
    size_t i = 0;
    size_t j = 0;
    while (i < pa.size() && j < pb.size()) {
      int cmp = key_cmp(a.Row(pa[i]), b.Row(pb[j]));
      if (cmp < 0) {
        ++i;
      } else if (cmp > 0) {
        ++j;
      } else {
        size_t i_end = i + 1;
        while (i_end < pa.size() &&
               key_cmp(a.Row(pa[i_end]), b.Row(pb[j])) == 0) {
          ++i_end;
        }
        size_t j_end = j + 1;
        while (j_end < pb.size() &&
               key_cmp(a.Row(pa[i]), b.Row(pb[j_end])) == 0) {
          ++j_end;
        }
        fn(i, i_end, j, j_end);
        i = i_end;
        j = j_end;
      }
    }
  };

  // Without a count from the caller, one emit-free walk over the ordered
  // runs sizes the Reserve exactly.
  if (est_rows == SIZE_MAX) {
    est_rows = 0;
    for_each_match([&](size_t i, size_t i_end, size_t j, size_t j_end) {
      est_rows += (i_end - i) * (j_end - j);
    });
  }
  CountedRelation out(layout.out_attrs);
  out.Reserve(std::min(est_rows, kMaxReserveRows));
  std::vector<Value>& scratch = ctx.row_buf();
  scratch.resize(layout.out_src.size());
  for_each_match([&](size_t i, size_t i_end, size_t j, size_t j_end) {
    for (size_t x = i; x < i_end; ++x) {
      for (size_t y = j; y < j_end; ++y) {
        EmitRow(layout, a.Row(pa[x]), b.Row(pb[y]),
                a.CountAt(pa[x]) * b.CountAt(pb[y]), &out, scratch);
      }
    }
  });
  out.Normalize(&ctx);
  op.set_rows_out(out.NumRows());
  return out;
}

// The exact pre-merge join cardinality in O(|a| + |b|), recorded as
// "estimate_join_rows": builds the table on the smaller side (BuildHashSide)
// and sums the probe side's run sizes against it. Runs are key-verified, so
// the count is exact even under hash collisions. Leaves the table and probe
// hashes in `ctx` for HashJoin to reuse.
size_t CountJoinRows(const CountedRelation& a, const CountedRelation& b,
                     const JoinLayout& layout, ExecContext& ctx) {
  const bool build_a = a.NumRows() < b.NumRows();
  const CountedRelation& probe = build_a ? b : a;
  const std::vector<int>& probe_cols =
      build_a ? layout.b_key_cols : layout.a_key_cols;
  OpTimer op(ctx, "estimate_join_rows", a.NumRows() + b.NumRows());
  op.set_build_rows((build_a ? a : b).NumRows());
  BuildHashSide(a, b, layout, ctx);
  const FlatGroupTable& table = ctx.group_table();
  std::span<const uint64_t> probe_hashes = ctx.hash_buf();
  size_t total = 0;
  for (size_t j = 0; j < probe.NumRows(); ++j) {
    total += table.Probe(probe.Row(j), probe_cols, probe_hashes[j]).size();
  }
  op.set_rows_out(total);
  return total;
}

// The kAuto cost model, in per-row-touch units. Hash pays a build on the
// smaller side and a hashed probe per larger-side row; sort-merge pays
// n·log n per side *unless* that side is already ordered on the key (then
// its scan is free), and emits from contiguous runs, which is slightly
// cheaper per output row than dereferencing scattered build rows.
JoinAlgorithm PickJoinAlgorithm(size_t na, size_t nb, size_t est_rows,
                                bool sorted_a, bool sorted_b) {
  constexpr double kHashBuild = 3.0;
  constexpr double kHashProbe = 1.5;
  constexpr double kMergeScan = 1.0;
  constexpr double kSortPerCmp = 1.25;
  constexpr double kEmitHash = 1.25;
  constexpr double kEmitMerge = 1.0;
  // merge − hash falls as est_rows grows, so a merge win at 0 holds at any
  // est_rows: JoinImpl relies on this to skip the count.
  static_assert(kEmitMerge <= kEmitHash);
  auto sort_cost = [](size_t n, bool sorted) {
    if (sorted || n < 2) return 0.0;
    const double nd = static_cast<double>(n);
    return kSortPerCmp * nd * std::log2(nd);
  };
  const double est = static_cast<double>(est_rows);
  const double scan = static_cast<double>(na + nb);
  const double merge_cost = sort_cost(na, sorted_a) + sort_cost(nb, sorted_b) +
                            kMergeScan * scan + kEmitMerge * est;
  const double hash_cost = kHashBuild * static_cast<double>(std::min(na, nb)) +
                           kHashProbe * static_cast<double>(std::max(na, nb)) +
                           kEmitHash * est;
  return merge_cost < hash_cost ? JoinAlgorithm::kSortMerge
                                : JoinAlgorithm::kHash;
}

// The covering side of a keyed join if kAuto runs it as a covering join
// (its attributes contain the other side's), or nullptr. With equal
// attributes the smaller side drives: the output is a subset of its rows.
const CountedRelation* CoveringSide(const CountedRelation& a,
                                    const CountedRelation& b) {
  const bool a_covers = IsSubset(b.attrs(), a.attrs());
  const bool b_covers = IsSubset(a.attrs(), b.attrs());
  if (a_covers && b_covers) return b.NumRows() < a.NumRows() ? &b : &a;
  if (a_covers) return &a;
  return b_covers ? &b : nullptr;
}

// NaturalJoin given `known_rows` == EstimateJoinRows(a, b), or SIZE_MAX
// when the caller has no count.
CountedRelation JoinImpl(const CountedRelation& a, const CountedRelation& b,
                         size_t known_rows, const JoinOptions& options) {
  ExecContext& ctx = ResolveExecContext(options.ctx);
  // Defaulted sides join only as the covered side, under every algorithm.
  if (a.has_default() || b.has_default()) {
    LSENS_CHECK_MSG(!(a.has_default() && b.has_default()),
                    "at most one defaulted side per join");
    const CountedRelation& covered = a.has_default() ? a : b;
    const CountedRelation& covering = a.has_default() ? b : a;
    LSENS_CHECK_MSG(IsSubset(covered.attrs(), covering.attrs()),
                    "defaulted side must be attribute-covered by the other");
    const CountedRelation* sides[] = {&covered};
    return CoveringJoin(covering, sides, &ctx);
  }

  JoinLayout layout = MakeLayout(a, b);
  if (layout.key.empty()) return CrossProduct(a, b, ctx);
  if (options.algorithm == JoinAlgorithm::kAuto) {
    if (const CountedRelation* covering = CoveringSide(a, b)) {
      const CountedRelation* sides[] = {covering == &a ? &b : &a};
      return CoveringJoin(*covering, sides, &ctx);
    }
  }

  // Without a known count, the hash kernel is preceded by the count pass
  // (CountJoinRows, the same work the public estimator does): it builds
  // the flat group table the kernel then reuses, and its exact count sizes
  // the Reserve — which beats the reallocation doublings it replaces on
  // expanding joins, measurably so in bench_join_micro. kAuto runs it
  // only when the count can change the pick.
  size_t est_rows = known_rows;
  bool table_built = false;
  auto estimate = [&] {
    if (est_rows == SIZE_MAX) {
      est_rows = CountJoinRows(a, b, layout, ctx);
      table_built = true;
    }
    return est_rows;
  };
  if (options.algorithm != JoinAlgorithm::kHash) {
    // The kAuto pick: the cost model at zero output rows first, and at the
    // exact count only when sort-merge does not already win there.
    const bool sorted_a = RowsSortedBy(a, layout.a_key_cols);
    const bool sorted_b = RowsSortedBy(b, layout.b_key_cols);
    auto merge_wins = [&](size_t rows) {
      return PickJoinAlgorithm(a.NumRows(), b.NumRows(), rows, sorted_a,
                               sorted_b) == JoinAlgorithm::kSortMerge;
    };
    if (options.algorithm == JoinAlgorithm::kSortMerge || merge_wins(0) ||
        merge_wins(estimate())) {
      return SortMergeJoin(a, b, layout, est_rows, sorted_a, sorted_b, ctx);
    }
  }
  return HashJoin(a, b, layout, estimate(), table_built, ctx);
}

}  // namespace

CountedRelation NaturalJoin(const CountedRelation& a, const CountedRelation& b,
                            const JoinOptions& options) {
  return JoinImpl(a, b, /*known_rows=*/SIZE_MAX, options);
}

CountedRelation NaturalJoinSized(const CountedRelation& a,
                                 const CountedRelation& b, size_t known_rows,
                                 const JoinOptions& options) {
  return JoinImpl(a, b, known_rows, options);
}

size_t EstimateJoinRows(const CountedRelation& a, const CountedRelation& b,
                        ExecContext* ctx) {
  JoinLayout layout = MakeLayout(a, b);
  if (layout.key.empty()) return a.NumRows() * b.NumRows();
  return CountJoinRows(a, b, layout, ResolveExecContext(ctx));
}

}  // namespace lsens
