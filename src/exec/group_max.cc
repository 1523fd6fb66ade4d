#include "exec/group_max.h"

#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/hash_group_table.h"
#include "exec/row_sort.h"

namespace lsens {

namespace {

std::vector<int> ColumnsOf(const CountedRelation& rel,
                           const AttributeSet& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (AttrId attr : attrs) cols.push_back(rel.ColumnOf(attr));
  return cols;
}

// `rel` aggregated onto `keep` (step 1). A normalized relation that keeps
// every attribute is already its own aggregate and is returned as is;
// otherwise the aggregate lands in `storage`.
const CountedRelation& Preaggregate(const CountedRelation& rel,
                                    const AttributeSet& keep,
                                    std::optional<CountedRelation>& storage,
                                    ExecContext& ctx) {
  if (keep == rel.attrs() && rel.normalized()) return rel;
  storage = GroupBySum(rel, keep, &ctx);
  return *storage;
}

// True if no two rows of the normalized `rel` agree on `cols` (step 2).
bool UniqueOn(const CountedRelation& rel, std::span<const int> cols,
              ExecContext& ctx) {
  if (rel.NumRows() <= 1 || cols.size() == rel.arity()) return true;
  if (cols.empty()) return false;
  FlatGroupTable& table = ctx.group_table();
  table.Build(rel, cols);
  return table.num_groups() == rel.NumRows();
}

// One join-key group of one side: its max count and the row attaining it
// that is lexicographically first on the side's group columns.
struct KeyMax {
  uint32_t row;
  Count max;
};

// Per-key maxima of `rel` in key order (step 3's input).
std::vector<KeyMax> MaxPerKey(const CountedRelation& rel,
                              std::span<const int> key_cols,
                              std::span<const int> group_cols,
                              std::vector<uint32_t>& perm, ExecContext& ctx) {
  SortRowsBy(rel, key_cols, perm, ctx);
  std::vector<KeyMax> out;
  ForEachSortedGroup(rel, key_cols, perm, [&](size_t begin, size_t end) {
    KeyMax best{perm[begin], rel.CountAt(perm[begin])};
    for (size_t i = begin + 1; i < end; ++i) {
      const uint32_t r = perm[i];
      const Count c = rel.CountAt(r);
      if (c > best.max ||
          (c == best.max &&
           CompareRowsAt(rel.Row(r), rel.Row(best.row), group_cols) < 0)) {
        best = {r, c};
      }
    }
    out.push_back(best);
  });
  return out;
}

}  // namespace

std::optional<CountedRelation> GroupMax(const CountedRelation& a,
                                        const CountedRelation& b,
                                        const AttributeSet& group,
                                        ExecContext* ctx_in) {
  LSENS_CHECK(IsSubset(group, Union(a.attrs(), b.attrs())));
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "group_max", a.NumRows() + b.NumRows());
  if (a.has_default() || b.has_default()) return std::nullopt;

  // Step 1: pre-aggregate each side onto (side ∩ group) ∪ key.
  const AttributeSet key = Intersect(a.attrs(), b.attrs());
  std::optional<CountedRelation> a_store;
  std::optional<CountedRelation> b_store;
  const CountedRelation& pa = Preaggregate(
      a, Union(Intersect(a.attrs(), group), key), a_store, ctx);
  const CountedRelation& pb = Preaggregate(
      b, Union(Intersect(b.attrs(), group), key), b_store, ctx);
  const std::vector<int> a_key = ColumnsOf(pa, key);
  const std::vector<int> b_key = ColumnsOf(pb, key);
  const std::vector<int> a_group = ColumnsOf(pa, Intersect(pa.attrs(), group));
  const std::vector<int> b_group = ColumnsOf(pb, Intersect(pb.attrs(), group));

  // Step 2: one joined pair per group.
  if (!IsSubset(key, group) && !UniqueOn(pa, a_group, ctx) &&
      !UniqueOn(pb, b_group, ctx)) {
    return std::nullopt;
  }

  // Step 3: merge the per-key maxima.
  const std::vector<KeyMax> ma =
      MaxPerKey(pa, a_key, a_group, ctx.perm_a(), ctx);
  const std::vector<KeyMax> mb =
      MaxPerKey(pb, b_key, b_group, ctx.perm_b(), ctx);
  // Step 4's routing: output column j reads pa's column when the group
  // attribute lives there (key attributes agree on both sides), else pb's.
  std::vector<std::pair<bool, int>> src;
  src.reserve(group.size());
  for (AttrId attr : group) {
    const int col = pa.ColumnOf(attr);
    src.emplace_back(col >= 0, col >= 0 ? col : pb.ColumnOf(attr));
  }
  auto value = [&](size_t i, size_t j, size_t out_col) {
    const auto& [from_a, col] = src[out_col];
    return from_a ? pa.Row(ma[i].row)[static_cast<size_t>(col)]
                  : pb.Row(mb[j].row)[static_cast<size_t>(col)];
  };
  // Lexicographic order of the group rows two matched key pairs yield.
  auto precedes = [&](size_t i, size_t j, size_t bi, size_t bj) {
    for (size_t c = 0; c < src.size(); ++c) {
      const Value x = value(i, j, c);
      const Value y = value(bi, bj, c);
      if (x != y) return x < y;
    }
    return false;
  };
  Count best = Count::Zero();
  size_t best_i = 0;
  size_t best_j = 0;
  for (size_t i = 0, j = 0; i < ma.size() && j < mb.size();) {
    const int cmp = [&] {
      std::span<const Value> ra = pa.Row(ma[i].row);
      std::span<const Value> rb = pb.Row(mb[j].row);
      for (size_t k = 0; k < a_key.size(); ++k) {
        const Value va = ra[static_cast<size_t>(a_key[k])];
        const Value vb = rb[static_cast<size_t>(b_key[k])];
        if (va != vb) return va < vb ? -1 : 1;
      }
      return 0;
    }();
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      const Count product = ma[i].max * mb[j].max;
      if (product > best ||
          (product == best && precedes(i, j, best_i, best_j))) {
        best = product;
        best_i = i;
        best_j = j;
      }
      ++i;
      ++j;
    }
  }
  if (best.IsSaturated()) return std::nullopt;

  CountedRelation out(group);
  if (!best.IsZero()) {
    out.data_.reserve(src.size());
    for (size_t c = 0; c < src.size(); ++c) {
      out.data_.push_back(value(best_i, best_j, c));
    }
    out.counts_.push_back(best);
  }
  op.set_rows_out(out.NumRows());
  return out;
}

}  // namespace lsens
