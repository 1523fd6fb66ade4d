#include "exec/row_sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <utility>

#include "exec/exec_context.h"

namespace lsens {

namespace {

constexpr int kDigitBits = 11;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr int kMaxDigits = (64 + kDigitBits - 1) / kDigitBits;
// Below this many rows std::sort on the words beats the radix passes.
constexpr size_t kRadixMinRows = 256;

// Stable LSD radix sort of `words` on bits [lo, hi), kDigitBits per pass.
// One read pass fills every digit's histogram; a digit that is the same in
// every word costs no scatter pass. `tmp` is the ping-pong buffer; the two
// vectors may end up swapped, which is fine — both are arena slots of the
// same context, and the sorted words always end in `words`.
void RadixSortWords(std::vector<uint64_t>& words, std::vector<uint64_t>& tmp,
                    int lo, int hi) {
  const int digits = (hi - lo + kDigitBits - 1) / kDigitBits;
  std::array<std::array<uint32_t, kBuckets>, kMaxDigits> counts;
  for (int d = 0; d < digits; ++d) counts[d].fill(0);
  for (uint64_t w : words) {
    for (int d = 0; d < digits; ++d) {
      ++counts[d][(w >> (lo + d * kDigitBits)) & (kBuckets - 1)];
    }
  }
  tmp.resize(words.size());
  for (int d = 0; d < digits; ++d) {
    const int shift = lo + d * kDigitBits;
    std::array<uint32_t, kBuckets>& pos = counts[d];
    if (pos[(words[0] >> shift) & (kBuckets - 1)] == words.size()) continue;
    uint32_t run = 0;
    for (uint32_t& c : pos) run += std::exchange(c, run);
    for (uint64_t w : words) tmp[pos[(w >> shift) & (kBuckets - 1)]++] = w;
    words.swap(tmp);
  }
}

}  // namespace

bool RowsSortedBy(const CountedRelation& r, std::span<const int> cols) {
  for (size_t i = 1; i < r.NumRows(); ++i) {
    if (CompareRowsAt(r.Row(i - 1), r.Row(i), cols) > 0) return false;
  }
  return true;
}

PackedSort::PackedSort(const CountedRelation& r, std::span<const int> cols,
                       ExecContext& ctx, DenseKeys dense_keys)
    : rel_(r), cols_(cols) {
  const size_t n = r.NumRows();
  LSENS_CHECK_MSG(n <= UINT32_MAX, "sorts address rows with 32-bit indices");
  if (n == 0) return;

  // Column-at-a-time passes over the row-major data keep every loop's
  // accumulators in registers. First each key column's range on the
  // ordered bits...
  const Value* data = r.Row(0).data();
  const size_t stride = r.arity();
  fields_.reserve(cols.size());
  int key_bits = 0;
  for (int c : cols) {
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    const Value* v = data + c;
    for (size_t i = 0; i < n; ++i, v += stride) {
      const uint64_t b = OrderedBits(*v);
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    const int width = static_cast<int>(std::bit_width(hi - lo));
    fields_.push_back({c, 0, width, lo, hi - lo + 1, 0});
    key_bits += width;
  }
  // ...which also decide whether the keys are addressed, not sorted...
  if (dense_keys == DenseKeys::kSlots && AssignSlots(n)) {
    dense_ = true;
    dense_op_.emplace(ctx, "sort.dense", n);
    dense_op_->set_rows_out(num_slots_);
    return;
  }
  ctx.sort_words().resize(n);
  idx_bits_ = static_cast<int>(std::bit_width(n - 1));
  idx_mask_ = (uint64_t{1} << idx_bits_) - 1;
  if (key_bits + idx_bits_ <= 64) {
    SortPacked(data, stride, key_bits, ctx);
  } else {
    SortFallback(ctx);
  }
  words_ = ctx.sort_words();
}

bool PackedSort::AssignSlots(size_t n) {
  // Mixed radix, the last column weighing 1. A full-range column's range
  // wrapped to 0 and never fits; `range > limit / slots` is the
  // overflow-free form of `slots * range > limit`.
  const uint64_t limit = kDenseSlotsPerRow * n;
  uint64_t slots = 1;
  for (auto f = fields_.rbegin(); f != fields_.rend(); ++f) {
    if (f->range == 0 || f->range > limit / slots) return false;
    f->stride = slots;
    slots *= f->range;
  }
  num_slots_ = slots;
  return true;
}

bool PackedSort::SumBySlot(std::span<const Count> counts,
                           std::vector<Count>& table) const {
  table.assign(num_slots_, Count::Zero());
  bool normalized = true;
  uint64_t next = 0;  // the least slot the next row may take, if ascending
  const size_t n = counts.size();
  auto add = [&](size_t i, uint64_t slot) {
    normalized &= slot >= next && !counts[i].IsZero();
    next = slot + 1;
    table[slot] += counts[i];
  };
  if (fields_.size() == 1) {
    // The common one-column key, without the per-row field loop: 10-35%
    // faster than SlotOf on BM_NormalizeCompact and BM_GroupBySumCompact
    // (7 alternating runs, 27 of 28 pairs won).
    const Field& f = fields_[0];
    const size_t stride = rel_.arity();
    const Value* v = rel_.Row(0).data() + f.col;
    for (size_t i = 0; i < n; ++i, v += stride) add(i, OrderedBits(*v) - f.min);
  } else {
    for (size_t i = 0; i < n; ++i) add(i, SlotOf(i));
  }
  return normalized;
}

void PackedSort::EmitSlots(std::span<const Count> table,
                           std::vector<Value>& keys,
                           std::vector<Count>& sums) const {
  size_t groups = 0;
  for (const Count& c : table) groups += !c.IsZero();
  keys.clear();
  sums.clear();
  keys.reserve(groups * fields_.size());
  sums.reserve(groups);
  for (uint64_t s = 0; s < table.size(); ++s) {
    if (table[s].IsZero()) continue;
    uint64_t rest = s;
    for (const Field& f : fields_) {
      // Column 0 first: its field is the quotient by its stride. The last
      // column's stride is 1, which needs no division.
      const uint64_t field = f.stride == 1 ? rest : rest / f.stride;
      rest -= field * f.stride;
      keys.push_back(FromOrderedBits(f.min + field));
    }
    sums.push_back(table[s]);
  }
}

void PackedSort::SortPacked(const Value* data, size_t stride, int key_bits,
                            ExecContext& ctx) {
  // ...then the key, column 0 most significant, one column per pass...
  const size_t n = rel_.NumRows();
  std::vector<uint64_t>& words = ctx.sort_words();
  std::fill(words.begin(), words.end(), uint64_t{0});
  int shift = key_bits;
  for (Field& f : fields_) {
    shift -= f.width;
    f.shift = shift;
    if (f.width == 0) continue;
    const Value* v = data + f.col;
    for (size_t i = 0; i < n; ++i, v += stride) {
      words[i] |= (OrderedBits(*v) - f.min) << shift;
    }
  }
  // ...and last the row index, noting whether the words already ascend.
  bool ascending = true;
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t word = words[i] << idx_bits_ | i;
    ascending &= word >= prev;
    words[i] = word;
    prev = word;
  }
  presorted_ = ascending;
  if (presorted_) return;
  if (n < kRadixMinRows) {
    std::sort(words.begin(), words.end());
  } else {
    RadixSortWords(words, ctx.sort_words_tmp(), idx_bits_,
                   idx_bits_ + key_bits);
  }
}

void PackedSort::SortFallback(ExecContext& ctx) {
  const size_t n = rel_.NumRows();
  OpTimer op(ctx, "sort.fallback", n);
  op.set_rows_out(n);
  packed_ = false;
  std::vector<uint64_t>& words = ctx.sort_words();
  std::iota(words.begin(), words.end(), uint64_t{0});
  presorted_ = RowsSortedBy(rel_, cols_);
  if (!presorted_) {
    std::sort(words.begin(), words.end(), [&](uint64_t x, uint64_t y) {
      const int cmp = CompareRowsAt(rel_.Row(x), rel_.Row(y), cols_);
      return cmp != 0 ? cmp < 0 : x < y;
    });
  }
  // Rewrite into the packed shape with a dense group rank as the key; the
  // rank is below n, so it always fits above the row bits.
  uint64_t rank = 0;
  uint64_t prev = words[0];
  for (size_t i = 0; i < n; ++i) {
    const uint64_t row = words[i];
    if (CompareRowsAt(rel_.Row(prev), rel_.Row(row), cols_) != 0) ++rank;
    words[i] = rank << idx_bits_ | row;
    prev = row;
  }
}

void PackedSort::AppendRowKey(size_t i, std::vector<Value>& out) const {
  std::span<const Value> row = rel_.Row(RowAt(i));
  for (int c : cols_) out.push_back(row[static_cast<size_t>(c)]);
}

bool SortRowsBy(const CountedRelation& r, std::span<const int> cols,
                std::vector<uint32_t>& perm, ExecContext& ctx) {
  const PackedSort sorted(r, cols, ctx);
  perm.resize(sorted.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = sorted.RowAt(i);
  return sorted.presorted();
}

}  // namespace lsens
