#include "exec/counted_relation.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "exec/exec_context.h"
#include "exec/row_sort.h"

namespace lsens {

int CompareRows(std::span<const Value> a, std::span<const Value> b) {
  LSENS_CHECK(a.size() == b.size());
  return CompareRowsUnchecked(a, b);
}

CountedRelation::CountedRelation(AttributeSet attrs)
    : attrs_(std::move(attrs)) {
  LSENS_CHECK_MSG(IsValidAttributeSet(attrs_),
                  "CountedRelation attrs must be sorted and unique");
}

CountedRelation CountedRelation::Unit() {
  CountedRelation unit{AttributeSet{}};
  unit.counts_.push_back(Count::One());
  return unit;
}

void CountedRelation::AppendRow(std::span<const Value> row, Count count) {
  LSENS_CHECK(row.size() == arity());
  data_.insert(data_.end(), row.begin(), row.end());
  counts_.push_back(count);
  normalized_ = false;
}

std::span<Value> CountedRelation::AppendRowsRaw(size_t n, Count count) {
  const size_t old = data_.size();
  data_.resize(old + n * arity());
  counts_.resize(counts_.size() + n, count);
  normalized_ = false;
  return {data_.data() + old, n * arity()};
}

void CountedRelation::GatherColumn(int col, std::span<Value> out) const {
  LSENS_CHECK(out.size() == NumRows());
  const size_t k = arity();
  const Value* src = data_.data() + static_cast<size_t>(col);
  for (size_t i = 0; i < out.size(); ++i) out[i] = src[i * k];
}

void CountedRelation::Normalize(ExecContext* ctx_in) {
  const size_t n = NumRows();
  const size_t k = arity();
  if (n == 0) {
    normalized_ = true;
    return;
  }
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "normalize", n);

  std::vector<int>& cols = ctx.col_buf();
  cols.resize(k);
  std::iota(cols.begin(), cols.end(), 0);

  const PackedSort sorted(*this, cols, ctx, DenseKeys::kSlots);
  if (sorted.dense()) {
    // Direct addressing: the slot table sits in count_buf, the keys come
    // back from the slots, and the output is sized exactly.
    if (!sorted.SumBySlot(counts_, ctx.count_buf())) {
      std::vector<Value> data;
      std::vector<Count> counts;
      sorted.EmitSlots(ctx.count_buf(), data, counts);
      data_.swap(data);
      counts_.swap(counts);
    }
    normalized_ = true;
    op.set_rows_out(NumRows());
    return;
  }
  if (sorted.presorted()) {
    // Already sorted: one verification pass; strictly increasing rows with
    // non-zero counts need no rebuild at all.
    bool clean = true;
    for (size_t i = 0; i < n && clean; ++i) {
      clean = !counts_[i].IsZero() &&
              (i == 0 || sorted.KeyAt(i - 1) != sorted.KeyAt(i));
    }
    if (clean) {
      normalized_ = true;
      op.set_rows_out(n);
      return;
    }
  }

  // Rebuild into the arena buffers, then swap storage: the displaced
  // capacity returns to the arena for the next Normalize.
  std::vector<Value>& vbuf = ctx.value_buf();
  std::vector<Count>& cbuf = ctx.count_buf();
  vbuf.clear();
  cbuf.clear();
  vbuf.reserve(data_.size());
  cbuf.reserve(n);
  sorted.ForEachGroup([&](size_t begin, size_t end) {
    const Count total = sorted.SumCounts(begin, end, counts_);
    if (total.IsZero()) return;  // drop explicit zero-count rows
    sorted.AppendKey(begin, vbuf);
    cbuf.push_back(total);
  });
  data_.swap(vbuf);
  counts_.swap(cbuf);
  normalized_ = true;
  op.set_rows_out(NumRows());
}

Count CountedRelation::TotalCount() const {
  LSENS_CHECK_MSG(!has_default(),
                  "TotalCount undefined for a defaulted (top-k) relation");
  Count total;
  for (Count c : counts_) total += c;
  return total;
}

Count CountedRelation::MaxCount() const {
  Count max = default_count_;
  for (Count c : counts_) max = std::max(max, c);
  return max;
}

size_t CountedRelation::ArgMaxRow() const {
  Count best = Count::Zero();
  size_t arg = SIZE_MAX;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > best) {
      best = counts_[i];
      arg = i;
    }
  }
  if (arg != SIZE_MAX && default_count_ > best) return SIZE_MAX;
  return arg;
}

Count CountedRelation::Lookup(std::span<const Value> row) const {
  LSENS_CHECK_MSG(normalized_, "Lookup requires a normalized relation");
  LSENS_CHECK(row.size() == arity());
  // The arity check above covers every probe of the search: Row(mid) is
  // arity-sized by construction, so the loop compares unchecked instead of
  // re-asserting sizes O(log n) times — this is the hot path of the
  // per-tuple sensitivity scan.
  size_t lo = 0;
  size_t hi = NumRows();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    int cmp = CompareRowsUnchecked(Row(mid), row);
    if (cmp == 0) return counts_[mid];
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return default_count_;
}

void CountedRelation::TruncateTopK(size_t k, ExecContext* ctx_in) {
  LSENS_CHECK(k > 0);
  if (NumRows() <= k) return;
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "truncate.top_k", NumRows());
  // Order row indices by count descending (ties by row order for
  // determinism), keep the first k, remember the k-th count as default.
  std::vector<uint32_t> perm(NumRows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return counts_[b] < counts_[a];
  });
  Count kth = counts_[perm[k - 1]];
  std::vector<Value> new_data;
  new_data.reserve(k * arity());
  std::vector<Count> new_counts;
  new_counts.reserve(k);
  perm.resize(k);
  std::sort(perm.begin(), perm.end());  // preserve row order, then renorm
  for (uint32_t idx : perm) {
    std::span<const Value> row = Row(idx);
    new_data.insert(new_data.end(), row.begin(), row.end());
    new_counts.push_back(counts_[idx]);
  }
  data_ = std::move(new_data);
  counts_ = std::move(new_counts);
  default_count_ = std::max(default_count_, kth);
  // Rows stayed in sorted order if they were; Normalize() keeps invariants.
  if (!normalized_) Normalize(&ctx);
  op.set_rows_out(NumRows());
}

void CountedRelation::Filter(
    const std::function<bool(std::span<const Value>)>& keep) {
  std::vector<Value> new_data;
  std::vector<Count> new_counts;
  new_counts.reserve(counts_.size());
  for (size_t i = 0; i < NumRows(); ++i) {
    std::span<const Value> row = Row(i);
    if (!keep(row)) continue;
    new_data.insert(new_data.end(), row.begin(), row.end());
    new_counts.push_back(counts_[i]);
  }
  data_ = std::move(new_data);
  counts_ = std::move(new_counts);
}

CountedRelation CountedRelation::FilterScale(
    std::span<const Count> factors) const {
  LSENS_CHECK(factors.size() == NumRows());
  const size_t n = NumRows();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    kept += !counts_[i].IsZero() && !factors[i].IsZero();
  }
  CountedRelation out(attrs_);
  const size_t k = arity();
  out.data_.resize(kept * k);
  out.counts_.resize(kept);
  Value* dst = out.data_.data();
  Count* cnt = out.counts_.data();
  for (size_t i = 0; i < n; ++i) {
    const Count c = counts_[i] * factors[i];
    if (c.IsZero()) continue;
    std::copy_n(data_.data() + i * k, k, dst);
    dst += k;
    *cnt++ = c;
  }
  out.normalized_ = normalized_;
  return out;
}

void CountedRelation::ScaleCounts(Count factor, ExecContext* ctx) {
  for (Count& c : counts_) c *= factor;
  default_count_ *= factor;
  // Scaling by zero can introduce zero-count rows; restore the invariant.
  if (factor.IsZero() && !counts_.empty()) Normalize(ctx);
}

int CountedRelation::ColumnOf(AttrId attr) const {
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), attr);
  if (it == attrs_.end() || *it != attr) return -1;
  return static_cast<int>(it - attrs_.begin());
}

CountedRelation GroupBySum(const CountedRelation& in,
                           const AttributeSet& group_attrs,
                           ExecContext* ctx_in) {
  LSENS_CHECK_MSG(!in.has_default(),
                  "GroupBySum undefined for a defaulted (top-k) relation");
  LSENS_CHECK(IsSubset(group_attrs, in.attrs()));
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "group_by_sum", in.NumRows());

  CountedRelation out(group_attrs);
  if (in.NumRows() == 0) return out;
  if (group_attrs.empty()) {
    // γ over nothing: a single arity-0 row carrying the total (dropped when
    // zero, matching the normalized-relation invariant).
    const Count total = in.TotalCount();
    if (!total.IsZero()) out.counts_.push_back(total);
    op.set_rows_out(out.NumRows());
    return out;
  }

  std::vector<int> cols;
  cols.reserve(group_attrs.size());
  for (AttrId a : group_attrs) cols.push_back(in.ColumnOf(a));

  // One packed sort over the input (shared machinery with Normalize; no
  // reorder when the group columns are a prefix of an already-normalized
  // relation), or for a dense key domain one slot table in count_buf;
  // groups emitted pre-merged and in order — the output is normalized by
  // construction.
  const PackedSort sorted(in, cols, ctx, DenseKeys::kSlots);
  if (sorted.dense()) {
    sorted.SumBySlot(in.counts_, ctx.count_buf());
    sorted.EmitSlots(ctx.count_buf(), out.data_, out.counts_);
    op.set_rows_out(out.NumRows());
    return out;
  }
  sorted.ForEachGroup([&](size_t begin, size_t end) {
    const Count total = sorted.SumCounts(begin, end, in.counts_);
    if (total.IsZero()) return;
    sorted.AppendKey(begin, out.data_);
    out.counts_.push_back(total);
  });
  out.normalized_ = true;
  op.set_rows_out(out.NumRows());
  return out;
}

}  // namespace lsens
