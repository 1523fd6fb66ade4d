// The flat open-addressing DynTable indexes (exec/flat_row_index.h): a
// randomized differential suite driving the flat layout against a simple
// map-based reference model through long insert/erase/rehash/
// tombstone-reuse streams, direct FlatRowIndex units, and the pinned
// single-probe stats of the DynTable hot path (one key hash and one probe
// sequence per Set/Adjust — the double-hash this layout removed must not
// come back). Runs in release, asan-ubsan, and the tsan preset.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "common/rng.h"
#include "exec/dyn_table.h"
#include "exec/flat_row_index.h"

namespace lsens {
namespace {

// --- FlatRowIndex units --------------------------------------------------

TEST(FlatRowIndexTest, LocateInsertEraseRoundTrip) {
  FlatRowIndex index;
  auto never = [](uint32_t) { return false; };
  EXPECT_EQ(index.Locate(42, never).row, FlatRowIndex::kNoRow);

  FlatRowIndex::Cursor cur = index.Locate(42, never);
  index.InsertAt(cur, 42, 7);
  EXPECT_EQ(index.size(), 1u);
  FlatRowIndex::Cursor hit =
      index.Locate(42, [](uint32_t r) { return r == 7; });
  EXPECT_EQ(hit.row, 7u);

  index.EraseAt(hit);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Locate(42, [](uint32_t r) { return r == 7; }).row,
            FlatRowIndex::kNoRow);
}

TEST(FlatRowIndexTest, TombstoneSlotIsReused) {
  FlatRowIndex index;
  index.Reserve(4);
  const size_t buckets = index.bucket_count();
  auto eq = [](uint32_t) { return true; };
  index.InsertAt(index.Locate(5, eq), 5, 1);
  FlatRowIndex::Cursor hit = index.Locate(5, eq);
  const size_t slot = hit.slot;
  index.EraseAt(hit);
  // Re-inserting the same hash lands on the tombstone, not a fresh slot,
  // and triggers no rehash.
  FlatRowIndex::Cursor cur = index.Locate(5, [](uint32_t) { return false; });
  EXPECT_EQ(cur.slot, slot);
  index.InsertAt(cur, 5, 2);
  EXPECT_EQ(index.bucket_count(), buckets);
  EXPECT_EQ(index.rehashes(), 1u);  // only the initial Reserve
}

TEST(FlatRowIndexTest, ProbeChainSurvivesMiddleErase) {
  FlatRowIndex index;
  index.Reserve(8);
  // Three entries colliding on the same bucket (equal hash, distinct
  // identities): erasing the middle one must keep the last reachable —
  // tombstones keep probe chains intact.
  auto absent = [](uint32_t) { return false; };
  for (uint32_t r = 0; r < 3; ++r) {
    index.InsertAt(index.Locate(99, absent), 99, r);
  }
  index.EraseAt(index.Locate(99, [](uint32_t r) { return r == 1; }));
  EXPECT_EQ(index.Locate(99, [](uint32_t r) { return r == 0; }).row, 0u);
  EXPECT_EQ(index.Locate(99, [](uint32_t r) { return r == 2; }).row, 2u);
  EXPECT_EQ(index.Locate(99, [](uint32_t r) { return r == 1; }).row,
            FlatRowIndex::kNoRow);
}

TEST(FlatRowIndexTest, SetRowAtRebindsInPlace) {
  FlatRowIndex index;
  auto eq_any = [](uint32_t) { return true; };
  index.InsertAt(index.Locate(7, eq_any), 7, 3);
  FlatRowIndex::Cursor cur = index.Locate(7, eq_any);
  index.SetRowAt(cur, 9);
  EXPECT_EQ(index.Locate(7, eq_any).row, 9u);
  EXPECT_EQ(index.Locate(7, eq_any).slot, cur.slot);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatRowIndexTest, RehashCompactsTombstones) {
  FlatRowIndex index;
  Rng rng(11);
  // Insert/erase far more entries than any bucket array holds: without
  // tombstone compaction on rehash the live count could not stay bounded
  // while the structure keeps answering.
  std::map<uint64_t, uint32_t> model;
  for (int step = 0; step < 4000; ++step) {
    uint64_t h = Mix64(rng.NextBounded(512) + 1);
    auto it = model.find(h);
    auto eq_model = [&](uint32_t r) { return r == it->second; };
    if (it != model.end() && rng.NextBounded(2) == 0) {
      FlatRowIndex::Cursor cur = index.Locate(h, eq_model);
      ASSERT_EQ(cur.row, it->second);
      index.EraseAt(cur);
      model.erase(it);
    } else if (it == model.end()) {
      uint32_t row = static_cast<uint32_t>(step);
      index.InsertAt(index.Locate(h, [](uint32_t) { return true; }), h,
                     row);
      model[h] = row;
    }
  }
  EXPECT_EQ(index.size(), model.size());
  EXPECT_GT(index.rehashes(), 0u);
  // Load factor invariant: live entries never exceed half the buckets.
  EXPECT_LE(2 * index.size(), index.bucket_count());
  for (const auto& [h, row] : model) {
    uint32_t expect = row;
    EXPECT_EQ(index.Locate(h, [&](uint32_t r) { return r == expect; }).row,
              expect);
  }
}

// --- DynTable differential model ----------------------------------------

// Reference model: exact counts by key, secondary lookups by scan.
struct ModelTable {
  std::map<std::vector<Value>, Count> rows;

  Count Get(const std::vector<Value>& key) const {
    auto it = rows.find(key);
    return it == rows.end() ? Count::Zero() : it->second;
  }
  void Set(const std::vector<Value>& key, Count c) {
    if (c.IsZero()) {
      rows.erase(key);
    } else {
      rows[key] = c;
    }
  }
  std::vector<std::vector<Value>> LookupByCol(int col, Value v) const {
    std::vector<std::vector<Value>> out;
    for (const auto& [key, c] : rows) {
      if (key[static_cast<size_t>(col)] == v) out.push_back(key);
    }
    return out;
  }
};

void ExpectTablesAgree(const DynTable& table, const ModelTable& model,
                       int step) {
  ASSERT_EQ(table.num_rows(), model.rows.size()) << "step " << step;
  size_t seen = 0;
  table.ForEachRow([&](uint32_t r) {
    ++seen;
    std::span<const Value> key = table.RowValues(r);
    std::vector<Value> k(key.begin(), key.end());
    EXPECT_EQ(table.RowCount(r), model.Get(k)) << "step " << step;
  });
  EXPECT_EQ(seen, model.rows.size()) << "step " << step;
}

class DynTableDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

// Long randomized op streams (upserts, signed adjustments, erasures, bulk
// reloads) against the reference model: every point read, every secondary
// lookup, and periodic full scans must agree while the flat indexes grow,
// tombstone, reuse slots, and rehash underneath.
TEST_P(DynTableDifferentialTest, MatchesMapModelThroughLongStreams) {
  Rng rng(GetParam() * 7919 + 13);
  const int kDomain = 9;  // small: collisions, deep groups, reuse
  DynTable table(AttributeSet{1, 2});
  const int by_first = table.AddIndex({0});
  const int by_second = table.AddIndex({1});
  ModelTable model;

  auto random_key = [&]() {
    return std::vector<Value>{
        static_cast<Value>(rng.NextBounded(kDomain)),
        static_cast<Value>(rng.NextBounded(kDomain))};
  };

  for (int step = 0; step < 5000; ++step) {
    std::vector<Value> key = random_key();
    switch (rng.NextBounded(10)) {
      case 0:
      case 1:
      case 2: {  // upsert (sometimes to zero = erase)
        Count c(rng.NextBounded(4));
        Count old = table.Set(key, c);
        EXPECT_EQ(old, model.Get(key)) << "step " << step;
        model.Set(key, c);
        break;
      }
      case 3:
      case 4:
      case 5: {  // signed adjustment, kept exact
        Count c(1 + rng.NextBounded(3));
        bool add = rng.NextBounded(2) == 0;
        Count old = model.Get(key);
        if (!add && old < c) add = true;  // stay unpoisoned
        Count reported;
        ASSERT_TRUE(table.Adjust(key, c, add, &reported)) << "step " << step;
        EXPECT_EQ(reported, old) << "step " << step;
        model.Set(key, add ? old + c : old.SaturatingSub(c));
        break;
      }
      case 6:
      case 7: {  // point read
        EXPECT_EQ(table.Get(key), model.Get(key)) << "step " << step;
        break;
      }
      case 8: {  // secondary lookup vs model scan
        int col = rng.NextBounded(2) == 0 ? 0 : 1;
        Value v = key[static_cast<size_t>(col)];
        std::vector<uint32_t> rows;
        table.LookupIndex(col == 0 ? by_first : by_second, {&v, 1}, &rows);
        std::vector<std::vector<Value>> got;
        for (uint32_t r : rows) {
          std::span<const Value> stored = table.RowValues(r);
          got.emplace_back(stored.begin(), stored.end());
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, model.LookupByCol(col, v)) << "step " << step;
        break;
      }
      case 9: {  // occasional bulk reload from the model snapshot
        if (rng.NextBounded(50) != 0) break;
        CountedRelation rel({1, 2});
        for (const auto& [k, c] : model.rows) rel.AppendRow(k, c);
        rel.Normalize();
        table.Load(rel);
        break;
      }
    }
    if (step % 500 == 499) ExpectTablesAgree(table, model, step);
  }
  ExpectTablesAgree(table, model, -1);
  EXPECT_FALSE(table.saturated());
  EXPECT_GT(table.stats().rehashes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynTableDifferentialTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 4));

// --- single-probe stat pins ----------------------------------------------

// The flat layout's contract: one key hash and one probe sequence resolve
// lookup, insert, and erase. The multimap layout this replaced hashed
// twice on every Set/Adjust of an existing key (find + insert/erase);
// these pins fail if that regresses.
TEST(DynTableProbeStatsTest, SetAndAdjustHashExactlyOnce) {
  DynTable table(AttributeSet{1, 2});
  table.Set(std::vector<Value>{1, 10}, Count(3));

  DynTable::Stats before = table.stats();
  table.Set(std::vector<Value>{1, 10}, Count(5));  // existing, update
  DynTable::Stats after = table.stats();
  EXPECT_EQ(after.key_hashes - before.key_hashes, 1u);
  EXPECT_EQ(after.locates - before.locates, 1u);

  before = after;
  // Reporting the previous count rides on the same probe.
  Count old;
  EXPECT_TRUE(table.Adjust(std::vector<Value>{1, 10}, Count(2), true, &old));
  EXPECT_EQ(old, Count(5));
  after = table.stats();
  EXPECT_EQ(after.key_hashes - before.key_hashes, 1u);
  EXPECT_EQ(after.locates - before.locates, 1u);

  before = after;
  table.Set(std::vector<Value>{1, 10}, Count::Zero());  // erase
  after = table.stats();
  // No secondary indexes: the erase too is one hash, one probe sequence.
  EXPECT_EQ(after.key_hashes - before.key_hashes, 1u);
  EXPECT_EQ(after.locates - before.locates, 1u);
}

TEST(DynTableProbeStatsTest, SecondaryIndexesAddOneHashEach) {
  DynTable table(AttributeSet{1, 2});
  table.AddIndex({0});
  table.AddIndex({1});

  DynTable::Stats before = table.stats();
  table.Set(std::vector<Value>{1, 10}, Count(3));  // insert
  DynTable::Stats after = table.stats();
  // Primary locate (1) plus one projected-key hash per secondary (2).
  EXPECT_EQ(after.key_hashes - before.key_hashes, 3u);
  EXPECT_EQ(after.locates - before.locates, 1u);

  before = after;
  table.Set(std::vector<Value>{1, 10}, Count::Zero());  // erase
  after = table.stats();
  EXPECT_EQ(after.key_hashes - before.key_hashes, 3u);
  EXPECT_EQ(after.locates - before.locates, 1u);
}

// --- memory accounting ---------------------------------------------------

TEST(DynTableMemoryTest, MemoryBytesTracksGrowth) {
  DynTable table(AttributeSet{1, 2});
  table.AddIndex({0});
  const size_t empty = table.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    table.Set(std::vector<Value>{i, i * 2}, Count(1));
  }
  const size_t full = table.MemoryBytes();
  EXPECT_GT(full, empty);
  // At least the row storage itself must be accounted.
  EXPECT_GE(full, 1000 * 2 * sizeof(Value));
}

TEST(DynTableMemoryTest, AccountsIndexChainsAndFreeList) {
  // Two identical tables, one carrying a secondary index: the index's
  // per-row intrusive chains (next + prev) must show up in the byte
  // count, on top of whatever the bucket array and struct storage add.
  DynTable plain(AttributeSet{1, 2});
  DynTable indexed(AttributeSet{1, 2});
  indexed.AddIndex({0});
  for (int i = 0; i < 500; ++i) {
    plain.Set(std::vector<Value>{i, i}, Count(1));
    indexed.Set(std::vector<Value>{i, i}, Count(1));
  }
  EXPECT_GE(indexed.MemoryBytes(),
            plain.MemoryBytes() + 500 * 2 * sizeof(uint32_t));

  // Registering an index on an already-populated table accounts the
  // backfilled chains immediately.
  const size_t before = plain.MemoryBytes();
  plain.AddIndex({1});
  EXPECT_GE(plain.MemoryBytes(), before + 500 * 2 * sizeof(uint32_t));

  // Erasing every row parks the slots on the free list; the slot arrays
  // keep their capacity and the free list grows, so the accounted total
  // must not shrink below the populated figure.
  const size_t full = plain.MemoryBytes();
  for (int i = 0; i < 500; ++i) {
    plain.Set(std::vector<Value>{i, i}, Count::Zero());
  }
  EXPECT_EQ(plain.num_rows(), 0u);
  EXPECT_GE(plain.MemoryBytes(), full);
}

}  // namespace
}  // namespace lsens
