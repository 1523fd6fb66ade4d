#ifndef LSENS_EXEC_ROW_SORT_H_
#define LSENS_EXEC_ROW_SORT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "exec/counted_relation.h"
#include "exec/exec_context.h"

namespace lsens {

// Shared sort/merge machinery for the row-at-a-time operators: Normalize,
// GroupBySum, the sort-merge join, the covering join, GroupMax, and the
// cost-based algorithm picker all order or group rows by a column subset
// through these helpers instead of each carrying its own comparison loop.
//
// One kernel, PackedSort, serves them all. A pass over each key column
// takes its min and max (as sign-flipped, order-preserving uint64 bits);
// from those ranges it either addresses keys directly or packs each row's
// key into a single 64-bit word and radix-sorts the words:
//
//   - Slot path. When the caller accepts it (DenseKeys::kSlots) and the
//     product of the key columns' ranges (max_j - min_j + 1) is at most
//     kDenseSlotsPerRow times the row count, nothing is sorted: each key
//     has a slot, mixed-radix over the columns (column 0 most
//     significant), so slot order is lexicographic key order. Normalize
//     and GroupBySum add counts into one table entry per slot and emit the
//     non-zero entries in slot order; the covering join fills a table of
//     covered runs and looks each covering row up. A column spanning all
//     of int64 has a range that wraps to 0 and always sorts. The slot path
//     records one `sort.dense` operator row.
//   - Layout. Otherwise column j gets w_j = bit_width(max_j - min_j) bits
//     holding value - min_j, column 0 most significant. Below the key sit
//     idx_bits = bit_width(n - 1) bits of row index:
//     word = key << idx_bits | row.
//   - Fit rule. The packed path runs when Σ w_j + idx_bits <= 64. Whether
//     it does depends only on the input's value ranges, never on a knob.
//     Comparing words compares (key, row): the order is lexicographic on
//     the key columns, ties broken by row index (stable).
//   - Sort. Packing also detects presorted input (words already
//     increasing), which needs no further work. Otherwise an LSD radix
//     sorts 11-bit digits over the key bits only — the row bits start in
//     increasing order and stay so, since every pass is stable. Below 256
//     rows std::sort sorts the words.
//   - Fallback. Keys that do not fit sort a row permutation by
//     CompareRowsAt, ties by row index, and are then rewritten into the
//     same word shape with a dense group rank as the key. The fallback
//     records one `sort.fallback` operator row on the context.
//
// Consumers that merge runs (Normalize, GroupBySum) compare KeyAt() of
// adjacent words and decode the output key from the word; the row data is
// touched only for counts. SortRowsBy exposes the same order as a plain
// permutation for the sort-merge join and GroupMax, which always sort.

// The slot path's density limit: a key domain of at most this many slots
// per input row is addressed directly. Normalize and GroupBySum by slots
// tie the radix sort at about 3-4 slots per row (10k and 150k rows); 2
// keeps a margin and bounds the count table at 32 bytes per row.
inline constexpr uint64_t kDenseSlotsPerRow = 2;

// Lexicographic comparison of two rows restricted to `cols` (column
// positions into each row; both rows use the same routing).
inline int CompareRowsAt(std::span<const Value> a, std::span<const Value> b,
                         std::span<const int> cols) {
  for (int c : cols) {
    const Value va = a[static_cast<size_t>(c)];
    const Value vb = b[static_cast<size_t>(c)];
    if (va < vb) return -1;
    if (va > vb) return 1;
  }
  return 0;
}

// True if the rows of `r` are already sorted by `cols` (non-decreasing).
// O(n * |cols|); the picker uses this to cost a zero-sort merge join.
bool RowsSortedBy(const CountedRelation& r, std::span<const int> cols);

// What a PackedSort does with a dense key domain: sort it like any other
// (kSort), or leave it unsorted for the caller's slot pass (kSlots).
enum class DenseKeys { kSort, kSlots };

// The rows of `r` ordered by `cols` (ties by row index), as sorted packed
// words — or, for a dense key domain under DenseKeys::kSlots, the slot
// addressing of those keys (dense()). The words live in `ctx.sort_words()`:
// the object is valid until the next sort on the same context.
class PackedSort {
 public:
  PackedSort(const CountedRelation& r, std::span<const int> cols,
             ExecContext& ctx, DenseKeys dense_keys = DenseKeys::kSort);
  PackedSort(const PackedSort&) = delete;
  PackedSort& operator=(const PackedSort&) = delete;

  // --- Slot path (dense() only; the sorted accessors below are empty) ---
  bool dense() const { return dense_; }
  // Number of slots: the product of the key columns' ranges.
  uint64_t num_slots() const { return num_slots_; }
  // Slot of row `row`'s key.
  uint64_t SlotOf(size_t row) const {
    const std::span<const Value> values = rel_.Row(row);
    uint64_t slot = 0;
    for (const Field& f : fields_) {
      slot += (OrderedBits(values[static_cast<size_t>(f.col)]) - f.min) *
              f.stride;
    }
    return slot;
  }
  // Least and greatest value of key column c (in cols order) over the rows.
  Value KeyMin(size_t c) const { return FromOrderedBits(fields_[c].min); }
  Value KeyMax(size_t c) const {
    return FromOrderedBits(fields_[c].min + fields_[c].range - 1);
  }
  // Slot of `key` (values in cols order), or false when a value lies
  // outside its column's range and so matches no row.
  bool FindSlot(std::span<const Value> key, uint64_t& slot) const {
    slot = 0;
    for (size_t c = 0; c < fields_.size(); ++c) {
      const Field& f = fields_[c];
      const uint64_t field = OrderedBits(key[c]) - f.min;
      if (field >= f.range) return false;
      slot += field * f.stride;
    }
    return true;
  }
  // Sets `table` to one entry per slot, each the sum of counts[row] over
  // the rows whose key takes that slot. Returns true when the rows
  // already come in strictly increasing slot order with non-zero counts,
  // i.e. already normalized on cols.
  bool SumBySlot(std::span<const Count> counts,
                 std::vector<Count>& table) const;
  // Replaces `keys` and `sums` with the non-zero entries of `table`, in
  // slot order: their keys (in cols order) and their sums. Empty vectors
  // come out sized exactly.
  void EmitSlots(std::span<const Count> table, std::vector<Value>& keys,
                 std::vector<Count>& sums) const;

  // --- Sorted words -----------------------------------------------------
  size_t size() const { return words_.size(); }
  // True when the input was already in order (words are the identity).
  bool presorted() const { return presorted_; }

  // Row index of the i-th row in sorted order.
  uint32_t RowAt(size_t i) const {
    return static_cast<uint32_t>(words_[i] & idx_mask_);
  }
  // Sort key of the i-th row: equal exactly when the rows agree on cols.
  uint64_t KeyAt(size_t i) const { return words_[i] >> idx_bits_; }

  // Σ counts[RowAt(i)] over sorted positions [begin, end). Rows come in
  // random order, so the loop prefetches a few positions ahead rather than
  // missing cache on every read.
  Count SumCounts(size_t begin, size_t end,
                  std::span<const Count> counts) const {
    constexpr size_t kAhead = 16;
    Count total = Count::Zero();
    for (size_t i = begin; i < end; ++i) {
      if (i + kAhead < size()) __builtin_prefetch(&counts[RowAt(i + kAhead)]);
      total += counts[RowAt(i)];
    }
    return total;
  }

  // Appends the i-th row's values on cols (in cols order) to `out`:
  // decoded from the word when packed, copied from the row otherwise.
  void AppendKey(size_t i, std::vector<Value>& out) const {
    if (!packed_) return AppendRowKey(i, out);
    // Field widths stay below 64: a fitting key with n >= 2 leaves at
    // least one row bit, and n == 1 has only zero-width fields.
    const uint64_t key = KeyAt(i);
    for (const Field& f : fields_) {
      const uint64_t field = (key >> f.shift) & ((uint64_t{1} << f.width) - 1);
      out.push_back(FromOrderedBits(f.min + field));
    }
  }

  // Invokes `emit(begin, end)` for every maximal run [begin, end) of
  // sorted positions with equal keys, in order.
  template <typename Fn>
  void ForEachGroup(Fn&& emit) const {
    const size_t n = size();
    size_t begin = 0;
    while (begin < n) {
      const uint64_t key = KeyAt(begin);
      size_t end = begin + 1;
      while (end < n && KeyAt(end) == key) ++end;
      emit(begin, end);
      begin = end;
    }
  }

 private:
  // One key column's slice of the word (value bits = min + field) and of
  // the slot (field * stride, field < range).
  struct Field {
    int col;
    int shift;  // bit offset of the field within the key
    int width;
    uint64_t min;
    uint64_t range;   // max - min + 1; 0 when the column spans all of int64
    uint64_t stride;  // slot weight: the product of later columns' ranges
  };

  // Order-preserving map from int64 to uint64 (flips the sign bit), and
  // its inverse.
  static uint64_t OrderedBits(Value v) {
    return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  }
  static Value FromOrderedBits(uint64_t bits) {
    return static_cast<Value>(bits ^ (uint64_t{1} << 63));
  }

  bool AssignSlots(size_t n);
  void SortPacked(const Value* data, size_t stride, int key_bits,
                  ExecContext& ctx);
  void SortFallback(ExecContext& ctx);
  void AppendRowKey(size_t i, std::vector<Value>& out) const;

  const CountedRelation& rel_;
  std::span<const int> cols_;
  std::vector<Field> fields_;
  std::span<const uint64_t> words_;
  int idx_bits_ = 0;
  uint64_t idx_mask_ = 0;
  bool presorted_ = true;
  bool packed_ = true;
  bool dense_ = false;
  uint64_t num_slots_ = 0;
  std::optional<OpTimer> dense_op_;  // the sort.dense row, while alive
};

// Fills `perm` with a permutation of [0, r.NumRows()) ordering rows by
// `cols`, ties broken by row index (stable). Returns true (and leaves
// `perm` the identity) when the input was already ordered. Scratch comes
// from `ctx`.
bool SortRowsBy(const CountedRelation& r, std::span<const int> cols,
                std::vector<uint32_t>& perm, ExecContext& ctx);

// Invokes `emit(begin, end)` for every maximal run perm[begin..end) of
// rows with equal values on `cols`, in sorted order.
template <typename Fn>
void ForEachSortedGroup(const CountedRelation& r, std::span<const int> cols,
                        std::span<const uint32_t> perm, Fn&& emit) {
  size_t begin = 0;
  while (begin < perm.size()) {
    size_t end = begin + 1;
    while (end < perm.size() &&
           CompareRowsAt(r.Row(perm[begin]), r.Row(perm[end]), cols) == 0) {
      ++end;
    }
    emit(begin, end);
    begin = end;
  }
}

}  // namespace lsens

#endif  // LSENS_EXEC_ROW_SORT_H_
