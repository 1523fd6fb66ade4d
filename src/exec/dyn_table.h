#ifndef LSENS_EXEC_DYN_TABLE_H_
#define LSENS_EXEC_DYN_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/count.h"
#include "common/macros.h"
#include "exec/counted_relation.h"
#include "exec/flat_row_index.h"
#include "storage/attribute_set.h"

namespace lsens {

// An incrementally maintainable group table: the mutable counterpart of a
// normalized CountedRelation, built for the incremental sensitivity
// subsystem (sensitivity/incremental.h). Where CountedRelation is a sorted
// immutable snapshot rebuilt by each operator, a DynTable supports point
// upserts and erasures between snapshots:
//
//   - rows live in flat row-major storage with a free list (row ids are
//     stable until the row is erased);
//   - a primary hash index on the full key row answers point lookups and
//     upserts in O(1);
//   - secondary indexes on column subsets answer the two questions delta
//     repair asks: "which groups are affected by this changed key?" and
//     "which rows re-aggregate into this group?".
//
// Counts must stay exact for repair to be sound (x + y - y != x once
// saturated), so any saturated count poisons the table; owners check
// saturated() before repairing and fall back to full recomputation
// (SensitivityCache's delta pass marks such a node stale).
//
// Indexes are flat open-addressing arrays with tombstones (FlatRowIndex —
// the same probing scheme as FlatGroupTable, see exec/flat_row_index.h):
// no per-node allocation, probes walk a contiguous bucket array, and one
// probe sequence resolves lookup, insert position, and erase, so Set and
// Adjust hash their key exactly once. Secondary indexes keep one entry
// per distinct projected key and chain that key's rows through intrusive
// doubly-linked row lists, so a group lookup reads exactly the group and
// erasing a non-head row never probes at all. LoadRows pre-reserves every
// index for the snapshot size; rehashes compact tombstones.
//
// Thread-safety: const lookups (Get / FindRow / LookupIndex / row
// accessors) may run concurrently with each other and write nothing, not
// even stats. Mutations require exclusive access; stats() counts the
// mutating paths only.
class DynTable {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  // Work counters for the mutating hot path, exposed so the single-probe
  // contract is pinned by tests and cannot silently regress: a Set or
  // Adjust of an existing key costs exactly one key hash and one primary
  // probe sequence (the multimap layout this replaced hashed and probed
  // twice), and a row insert/erase adds at most one hash per secondary
  // index (none for erasing a non-head chain row).
  struct Stats {
    uint64_t key_hashes = 0;  // HashKey/HashCols evaluations
    uint64_t locates = 0;     // primary-index probe sequences started
    uint64_t rehashes = 0;    // index rebuilds (growth or compaction)
  };

  explicit DynTable(AttributeSet attrs);

  const AttributeSet& attrs() const { return attrs_; }
  size_t arity() const { return attrs_.size(); }
  size_t num_rows() const { return live_rows_; }
  bool saturated() const { return saturated_; }

  // Replaces the contents with the rows of a normalized CountedRelation of
  // equal arity and no default, column by column: attribute ids need not
  // match. The cross-query plan cache keys shared tables by canonical
  // subtree signature: the attribute *ids* differ per query, but equal
  // signatures guarantee the same column order, so rows transfer
  // positionally. Registered secondary indexes are rebuilt; row storage
  // and every index are pre-reserved for the snapshot size so the load
  // itself never rehashes. Clears any saturation poison unless a loaded
  // count is saturated.
  void LoadRows(const CountedRelation& rel);

  // Drops every row, count, and index bucket array and returns their
  // memory, keeping only the table identity (attrs and registered
  // secondary-index column lists, so parent recipes holding index ids
  // survive). The byte-budget spill policy in SensitivityCache releases
  // least-recently-used shared nodes with this; a later LoadRows rebuilds
  // everything from a fresh snapshot.
  void Release();

  // Registers a secondary index on the given column positions (need not be
  // sorted; lookups present keys in the same order). Re-registering an
  // identical column list returns the existing id.
  int AddIndex(std::vector<int> cols);

  // Point lookup by full key row; Zero when absent.
  Count Get(std::span<const Value> key) const;
  uint32_t FindRow(std::span<const Value> key) const;

  // Sets `key`'s count to `c`: inserts when absent, erases when `c` is
  // zero. Returns the previous count.
  Count Set(std::span<const Value> key, Count c);

  // Adds (positive) or removes (negative) `c` copies: the signed
  // adjustment sources apply per change-log entry. A zero `c` is a no-op.
  // Returns false — leaving the table unchanged but flagged saturated —
  // when the adjustment is not exactly representable: the count would
  // saturate, or more copies are removed than present (a stale log).
  // A non-null `old` receives the key's count before the adjustment (read
  // off the same probe, so recording it costs nothing).
  bool Adjust(std::span<const Value> key, Count c, bool add,
              Count* old = nullptr);

  // Appends the live row ids whose `index_id` columns equal `key`.
  void LookupIndex(int index_id, std::span<const Value> key,
                   std::vector<uint32_t>* out) const;

  std::span<const Value> RowValues(uint32_t row) const {
    return {data_.data() + static_cast<size_t>(row) * arity(), arity()};
  }
  Count RowCount(uint32_t row) const { return counts_[row]; }

  // Calls fn(row_id) for every live row.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (uint32_t r = 0; r < counts_.size(); ++r) {
      if (alive_[r]) fn(r);
    }
  }

  // Heap footprint of the table: row storage, free list, and every index's
  // bucket array. The byte-budget eviction policy in SensitivityCache sums
  // this over an entry's repair state.
  size_t MemoryBytes() const;

  Stats stats() const {
    Stats s = stats_;
    s.rehashes = primary_.rehashes();
    for (const Index& index : secondary_) {
      s.rehashes += index.heads.rehashes();
    }
    return s;
  }

 private:
  struct Index {
    std::vector<int> cols;
    // Projected-key hash -> head row of the key's chain (one entry per
    // distinct key; collisions resolved by verifying the head row's
    // projected values). Duplicate-hash slots would merge into one probe
    // cluster — group members live in the links below instead.
    FlatRowIndex heads;
    // Intrusive doubly-linked chain through the key's rows; kNoRow ends.
    // prev == kNoRow marks the head. Sized like counts_.
    std::vector<uint32_t> next;
    std::vector<uint32_t> prev;
  };

  uint64_t HashCols(std::span<const Value> row,
                    std::span<const int> cols) const;
  uint64_t HashKey(std::span<const Value> key) const;
  bool KeyEquals(uint32_t row, std::span<const Value> key) const;
  // Places `key` into the row slots and every index. `cur` is the primary
  // cursor of the Locate miss that established absence.
  uint32_t InsertRow(FlatRowIndex::Cursor cur, uint64_t hash,
                     std::span<const Value> key, Count c);
  // Removes `row` (the hit `cur` refers to) from every index and frees it.
  void EraseRow(FlatRowIndex::Cursor cur);
  // Links `row` into / out of a secondary index's key chain.
  void IndexInsert(Index& index, uint32_t row);
  void IndexErase(Index& index, uint32_t row);

  AttributeSet attrs_;
  std::vector<Value> data_;    // flat row-major, arity() stride
  std::vector<Count> counts_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> free_;
  size_t live_rows_ = 0;
  bool saturated_ = false;
  FlatRowIndex primary_;
  std::vector<Index> secondary_;
  Stats stats_;
};

}  // namespace lsens

#endif  // LSENS_EXEC_DYN_TABLE_H_
