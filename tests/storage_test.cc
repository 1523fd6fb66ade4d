#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/attribute_set.h"
#include "storage/catalog.h"
#include "storage/database.h"
#include "storage/dictionary.h"
#include "storage/relation.h"
#include "storage/value.h"

namespace lsens {
namespace {

TEST(AttributeSetTest, MakeSortsAndDedups) {
  EXPECT_EQ(MakeAttributeSet({3, 1, 2, 1, 3}), (AttributeSet{1, 2, 3}));
  EXPECT_TRUE(IsValidAttributeSet({1, 2, 3}));
  EXPECT_FALSE(IsValidAttributeSet({1, 1, 2}));
  EXPECT_FALSE(IsValidAttributeSet({2, 1}));
}

TEST(AttributeSetTest, SetAlgebra) {
  AttributeSet a{1, 3, 5};
  AttributeSet b{3, 4, 5};
  EXPECT_EQ(Union(a, b), (AttributeSet{1, 3, 4, 5}));
  EXPECT_EQ(Intersect(a, b), (AttributeSet{3, 5}));
  EXPECT_EQ(Difference(a, b), (AttributeSet{1}));
  EXPECT_TRUE(Contains(a, 3));
  EXPECT_FALSE(Contains(a, 4));
  EXPECT_TRUE(IsSubset({3, 5}, a));
  EXPECT_FALSE(IsSubset({3, 4}, a));
  EXPECT_TRUE(Intersects(a, b));
  EXPECT_FALSE(Intersects({1, 2}, {3, 4}));
  EXPECT_TRUE(IsSubset({}, a));
  EXPECT_FALSE(Intersects({}, a));
}

TEST(CatalogTest, InternIsIdempotent) {
  AttributeCatalog cat;
  AttrId a = cat.Intern("NK");
  AttrId b = cat.Intern("CK");
  EXPECT_NE(a, b);
  EXPECT_EQ(cat.Intern("NK"), a);
  EXPECT_EQ(cat.Lookup("NK"), a);
  EXPECT_EQ(cat.Lookup("missing"), kInvalidAttr);
  EXPECT_EQ(cat.Name(a), "NK");
  EXPECT_EQ(cat.size(), 2u);
}

TEST(DictionaryTest, RoundTrips) {
  Dictionary d;
  Value a1 = d.Intern("a1");
  Value b2 = d.Intern("b2");
  EXPECT_NE(a1, b2);
  EXPECT_EQ(d.Intern("a1"), a1);
  EXPECT_EQ(d.Lookup("a1"), a1);
  EXPECT_EQ(d.Lookup("zz"), -1);
  EXPECT_EQ(d.String(b2), "b2");
  EXPECT_TRUE(d.ContainsValue(a1));
  EXPECT_FALSE(d.ContainsValue(999));
}

TEST(DictionaryTest, HeterogeneousLookupUsesViewsDirectly) {
  // Intern/Lookup take string_views that are not null-terminated and may
  // be slices of a larger buffer; the map probes with the view itself
  // (transparent hash/eq), so the slice's bounds must be respected
  // exactly — no C-string assumptions, no temporary std::string.
  Dictionary d;
  const std::string buffer = "alphabetagamma";
  const std::string_view alpha = std::string_view(buffer).substr(0, 5);
  const std::string_view beta = std::string_view(buffer).substr(5, 4);
  Value va = d.Intern(alpha);
  Value vb = d.Intern(beta);
  EXPECT_NE(va, vb);
  EXPECT_EQ(d.Lookup(std::string_view(buffer).substr(0, 5)), va);
  EXPECT_EQ(d.Lookup("beta"), vb);
  EXPECT_EQ(d.Lookup(std::string_view(buffer)), -1);
  EXPECT_EQ(d.String(va), "alpha");
  // Embedded NULs are part of the key, not terminators.
  const std::string_view with_nul("a\0b", 3);
  Value vn = d.Intern(with_nul);
  EXPECT_EQ(d.Lookup(with_nul), vn);
  EXPECT_EQ(d.Lookup(std::string_view("a", 1)), -1);
  EXPECT_EQ(d.String(vn), std::string("a\0b", 3));
}

TEST(DictionaryTest, CodesNeverCollideWithOrdinaryIntegers) {
  Dictionary d;
  Value code = d.Intern("first");
  EXPECT_GE(code, Dictionary::kBase);
  // Small integers (typical raw data) are never "contained".
  for (Value v : {-1, 0, 1, 42, 1'000'000}) {
    EXPECT_FALSE(d.ContainsValue(v)) << v;
  }
}

TEST(RelationTest, AppendAndAccess) {
  Relation r("R", {"A", "B"});
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_EQ(r.NumRows(), 0u);
  r.AppendRow({1, 2});
  r.AppendRow({3, 4});
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.At(0, 0), 1);
  EXPECT_EQ(r.At(1, 1), 4);
  auto row = r.Row(1);
  EXPECT_EQ(row[0], 3);
  EXPECT_EQ(r.ColumnIndex("B"), 1);
  EXPECT_EQ(r.ColumnIndex("Z"), -1);
}

TEST(RelationTest, AppendRowsBulkMatchesPerRowAppend) {
  Relation bulk("R", {"A", "B"});
  Relation loop("R", {"A", "B"});
  bulk.EnableChangeLog(16);
  loop.EnableChangeLog(16);
  const std::vector<Value> flat = {1, 2, 3, 4, 5, 6};
  bulk.AppendRows(flat);
  for (size_t i = 0; i < flat.size(); i += 2) {
    loop.AppendRow(std::span<const Value>(flat.data() + i, 2));
  }
  EXPECT_TRUE(bulk.IdenticalTo(loop));
  // Versioning and the changelog observe per-row granularity, so a cache
  // holding a pre-append version can still repair across the bulk load.
  EXPECT_EQ(bulk.version(), loop.version());
  EXPECT_EQ(bulk.version(), 3u);
  std::vector<RowChange> changes;
  ASSERT_TRUE(bulk.CollectChangesSince(1, &changes));
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0].insert);
  EXPECT_EQ(changes[0].row, (std::vector<Value>{3, 4}));
  EXPECT_EQ(changes[1].row, (std::vector<Value>{5, 6}));
  // Empty bulk append is a no-op, version included.
  bulk.AppendRows({});
  EXPECT_EQ(bulk.version(), 3u);
}

TEST(RelationTest, SwapRemove) {
  Relation r("R", {"A"});
  r.AppendRow({1});
  r.AppendRow({2});
  r.AppendRow({3});
  r.SwapRemoveRow(0);  // last row replaces row 0
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.At(0, 0), 3);
  EXPECT_EQ(r.At(1, 0), 2);
  r.SwapRemoveRow(1);
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.At(0, 0), 3);
}

TEST(RelationTest, IdenticalTo) {
  Relation a("R", {"A"});
  Relation b("R", {"A"});
  a.AppendRow({1});
  b.AppendRow({1});
  EXPECT_TRUE(a.IdenticalTo(b));
  b.AppendRow({2});
  EXPECT_FALSE(a.IdenticalTo(b));
}

TEST(RelationTest, ApplyDeltaIsDeterministicWithOrWithoutLog) {
  // The serving layer publishes an epoch by replaying a turn's batches on
  // an unlogged snapshot of the logged master, so one ApplyDelta sequence
  // must leave both with the same rows in the same order and the same
  // version. Set is the one mutator whose version bump depends on the log.
  Rng rng(11);
  Relation logged("R", {"A", "B"});
  for (int i = 0; i < 20; ++i) {
    logged.AppendRow({rng.NextInRange(0, 5), rng.NextInRange(0, 5)});
  }
  logged.EnableChangeLog(8);  // small: the log also wraps mid-stream
  Relation unlogged = logged.CloneSnapshot();
  ASSERT_FALSE(unlogged.change_log_enabled());
  for (int step = 0; step < 50; ++step) {
    std::vector<std::vector<Value>> inserts(rng.NextBounded(3));
    for (auto& row : inserts) {
      row = {rng.NextInRange(0, 5), rng.NextInRange(0, 5)};
    }
    std::vector<size_t> deletes;
    const size_t n = logged.NumRows();
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBounded(8) == 0) deletes.push_back(i);
    }
    ASSERT_TRUE(logged.ApplyDelta(inserts, deletes).ok());
    ASSERT_TRUE(unlogged.ApplyDelta(inserts, deletes).ok());
    ASSERT_TRUE(unlogged.IdenticalTo(logged)) << "step " << step;
    ASSERT_EQ(unlogged.version(), logged.version()) << "step " << step;
  }

  logged.Set(0, 0, 9);
  unlogged.Set(0, 0, 9);
  EXPECT_TRUE(unlogged.IdenticalTo(logged));
  EXPECT_EQ(logged.version(), unlogged.version() + 1);
}

TEST(DictionaryTest, CatchUpToAppendsTheSourceSuffix) {
  Dictionary source;
  source.Intern("a");
  Dictionary copy = source;
  const Value b = source.Intern("b");
  const Value c = source.Intern("c");
  copy.CatchUpTo(source);
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.String(b), "b");
  EXPECT_EQ(copy.Lookup("c"), c);
  copy.CatchUpTo(source);  // already caught up: no-op
  EXPECT_EQ(copy.size(), 3u);
}

TEST(DatabaseTest, AddFindGet) {
  Database db;
  Relation* r = db.AddRelation("R", {"A"});
  EXPECT_EQ(db.Find("R"), r);
  EXPECT_EQ(db.Find("S"), nullptr);
  EXPECT_TRUE(db.Get("R").ok());
  EXPECT_EQ(db.Get("S").status().code(), Status::Code::kNotFound);
  r->AppendRow({1});
  EXPECT_EQ(db.TotalRows(), 1u);
  EXPECT_EQ(db.relation_names(), std::vector<std::string>{"R"});
}

TEST(DatabaseTest, CloneIsDeep) {
  Database db;
  Relation* r = db.AddRelation("R", {"A"});
  r->AppendRow({1});
  Database copy = db.Clone();
  copy.Find("R")->AppendRow({2});
  EXPECT_EQ(db.Find("R")->NumRows(), 1u);
  EXPECT_EQ(copy.Find("R")->NumRows(), 2u);
}

TEST(DatabaseTest, ClonePreservesCatalogAndDict) {
  Database db;
  AttrId a = db.attrs().Intern("A");
  Value v = db.dict().Intern("hello");
  Database copy = db.Clone();
  EXPECT_EQ(copy.attrs().Lookup("A"), a);
  EXPECT_EQ(copy.dict().Lookup("hello"), v);
}

// ---------------------------------------------------------------------------
// Columnar differential suite: the columnar Relation against a row-major
// reference model, through randomized mutation streams. The model replays
// the documented row-level semantics (append, set, swap-remove, delta) on a
// flat row-major buffer and keeps an unbounded change log; the relation must
// agree on contents, versions, and every change-log read at every step.
// ---------------------------------------------------------------------------

// The pre-columnar storage layout, semantics transcribed from the API docs:
// one flat row-major vector, swap-remove swaps with the last row, Set logs
// erase(old) + insert(new) and bumps the version twice, ApplyDelta deletes
// in descending index order then appends.
struct RowMajorModel {
  size_t arity = 0;
  std::vector<Value> data;  // row-major
  uint64_t version = 0;
  std::vector<RowChange> log;  // unbounded; base version 0

  size_t NumRows() const { return data.size() / arity; }
  std::vector<Value> Row(size_t i) const {
    return {data.begin() + static_cast<long>(i * arity),
            data.begin() + static_cast<long>((i + 1) * arity)};
  }
  void AppendRow(std::span<const Value> row) {
    log.push_back(RowChange{true, {row.begin(), row.end()}});
    data.insert(data.end(), row.begin(), row.end());
    ++version;
  }
  void Set(size_t row, size_t col, Value v) {
    std::vector<Value> old = Row(row);
    std::vector<Value> updated = old;
    updated[col] = v;
    log.push_back(RowChange{false, std::move(old)});
    log.push_back(RowChange{true, std::move(updated)});
    data[row * arity + col] = v;
    version += 2;
  }
  void SwapRemoveRow(size_t i) {
    const size_t n = NumRows();
    log.push_back(RowChange{false, Row(i)});
    for (size_t c = 0; c < arity; ++c) {
      data[i * arity + c] = data[(n - 1) * arity + c];
    }
    data.resize((n - 1) * arity);
    ++version;
  }
  void ApplyDelta(const std::vector<std::vector<Value>>& inserts,
                  std::vector<size_t> delete_rows) {
    std::sort(delete_rows.begin(), delete_rows.end());
    for (size_t i = delete_rows.size(); i-- > 0;) {
      SwapRemoveRow(delete_rows[i]);
    }
    for (const auto& row : inserts) AppendRow(row);
  }
};

void ExpectMatchesModel(const Relation& rel, const RowMajorModel& model) {
  ASSERT_EQ(rel.NumRows(), model.NumRows());
  ASSERT_EQ(rel.version(), model.version);
  // Row view, point view, and column view must all agree with the model.
  std::vector<Value> scratch;
  for (size_t i = 0; i < model.NumRows(); ++i) {
    const std::vector<Value> want = model.Row(i);
    ASSERT_EQ(rel.Row(i), want) << "row " << i;
    rel.RowInto(i, &scratch);
    ASSERT_EQ(scratch, want) << "row " << i;
    ASSERT_TRUE(rel.RowEquals(i, want)) << "row " << i;
    for (size_t c = 0; c < model.arity; ++c) {
      ASSERT_EQ(rel.At(i, c), want[c]) << "row " << i << " col " << c;
    }
  }
  for (size_t c = 0; c < model.arity; ++c) {
    std::span<const Value> col = rel.Column(c);
    ASSERT_EQ(col.size(), model.NumRows());
    for (size_t i = 0; i < col.size(); ++i) {
      ASSERT_EQ(col[i], model.data[i * model.arity + c])
          << "col " << c << " row " << i;
    }
  }
}

void ExpectSameChanges(const std::vector<RowChange>& got,
                       const std::vector<RowChange>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].insert, want[i].insert) << what << " entry " << i;
    EXPECT_EQ(got[i].row, want[i].row) << what << " entry " << i;
  }
}

void RunDifferentialStream(uint64_t seed) {
  Rng rng(seed);
  const size_t arity = 1 + rng.NextBounded(3);
  std::vector<std::string> names;
  for (size_t c = 0; c < arity; ++c) names.push_back("C" + std::to_string(c));
  Relation rel("R", names);
  rel.EnableChangeLog(1 << 14);  // ample: nothing falls out of the window
  RowMajorModel model;
  model.arity = arity;

  auto random_row = [&] {
    std::vector<Value> row(arity);
    for (auto& v : row) v = rng.NextInRange(-4, 4);
    return row;
  };

  for (int step = 0; step < 300; ++step) {
    const size_t n = model.NumRows();
    switch (rng.NextBounded(6)) {
      case 0: {  // single append
        std::vector<Value> row = random_row();
        rel.AppendRow(row);
        model.AppendRow(row);
        break;
      }
      case 1: {  // bulk row-major append
        const size_t rows = rng.NextBounded(4);
        std::vector<Value> flat;
        for (size_t i = 0; i < rows; ++i) {
          std::vector<Value> row = random_row();
          flat.insert(flat.end(), row.begin(), row.end());
          model.AppendRow(row);
        }
        rel.AppendRows(flat);
        break;
      }
      case 2: {  // bulk columnar append
        const size_t rows = rng.NextBounded(4);
        std::vector<std::vector<Value>> columns(arity);
        for (size_t i = 0; i < rows; ++i) {
          std::vector<Value> row = random_row();
          for (size_t c = 0; c < arity; ++c) columns[c].push_back(row[c]);
          model.AppendRow(row);
        }
        rel.AppendColumns(columns);
        break;
      }
      case 3: {  // point overwrite
        if (n == 0) break;
        const size_t row = rng.NextBounded(n);
        const size_t col = rng.NextBounded(arity);
        const Value v = rng.NextInRange(-4, 4);
        rel.Set(row, col, v);
        model.Set(row, col, v);
        break;
      }
      case 4: {  // swap-remove
        if (n == 0) break;
        const size_t row = rng.NextBounded(n);
        rel.SwapRemoveRow(row);
        model.SwapRemoveRow(row);
        break;
      }
      case 5: {  // batched delta
        std::vector<std::vector<Value>> inserts;
        for (size_t i = rng.NextBounded(3); i-- > 0;) {
          inserts.push_back(random_row());
        }
        std::vector<size_t> deletes;
        if (n > 0) {
          for (size_t d = rng.NextBounded(std::min<size_t>(n, 3) + 1);
               d-- > 0;) {
            size_t idx = rng.NextBounded(n);
            if (std::find(deletes.begin(), deletes.end(), idx) ==
                deletes.end()) {
              deletes.push_back(idx);
            }
          }
        }
        ASSERT_TRUE(rel.ApplyDelta(inserts, deletes).ok());
        model.ApplyDelta(inserts, deletes);
        break;
      }
    }
    ExpectMatchesModel(rel, model);

    // Change-log equivalence from a random anchor version: the relation's
    // log must replay exactly the model's suffix (one entry per version
    // step — Set contributes two entries and two version bumps).
    const uint64_t since = rng.NextBounded(model.version + 1);
    std::vector<RowChange> got;
    ASSERT_TRUE(rel.CollectChangesSince(since, &got));
    std::vector<RowChange> want(
        model.log.begin() + static_cast<long>(since), model.log.end());
    ExpectSameChanges(got, want, "since " + std::to_string(since));
    ASSERT_EQ(rel.NumChangesSince(since), want.size());
  }
}

TEST(ColumnarDifferentialTest, MatchesRowMajorModelSeed1) {
  RunDifferentialStream(1);
}
TEST(ColumnarDifferentialTest, MatchesRowMajorModelSeed2) {
  RunDifferentialStream(2);
}
TEST(ColumnarDifferentialTest, MatchesRowMajorModelSeed3) {
  RunDifferentialStream(3);
}

TEST(ColumnarDifferentialTest, ProjectedShardsMatchShardedProjection) {
  // CollectProjectedChangesSince must be exactly CollectChangesSince,
  // filtered, with each surviving row projected onto key_cols, in log
  // order.
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    Relation rel("R", {"A", "B", "C"});
    rel.EnableChangeLog(1 << 12);
    for (int step = 0; step < 120; ++step) {
      if (rel.NumRows() > 0 && rng.NextBounded(3) == 0) {
        rel.SwapRemoveRow(rng.NextBounded(rel.NumRows()));
      } else {
        rel.AppendRow({rng.NextInRange(-3, 3), rng.NextInRange(-3, 3),
                       rng.NextInRange(-3, 3)});
      }
    }
    const std::vector<size_t> key_cols = {0, 2};
    auto filter = [](const RowChange& ch) { return ch.row[1] >= 0; };
    for (int draw = 0; draw < 3; ++draw) {
      const uint64_t since = rng.NextBounded(rel.version() + 1);

      std::vector<RowChange> raw;
      ASSERT_TRUE(rel.CollectChangesSince(since, &raw));
      std::vector<ProjectedRowChange> got;
      size_t num_changes = 0;
      ASSERT_TRUE(rel.CollectProjectedChangesSince(since, key_cols, filter,
                                                   &got, &num_changes));
      ASSERT_EQ(num_changes, rel.NumChangesSince(since));
      ASSERT_EQ(num_changes, raw.size());

      std::vector<ProjectedRowChange> want;
      for (const RowChange& ch : raw) {
        if (!filter(ch)) continue;
        ProjectedRowChange pc;
        pc.insert = ch.insert;
        for (size_t col : key_cols) pc.key.push_back(ch.row[col]);
        want.push_back(std::move(pc));
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].insert, want[i].insert) << "entry " << i;
        EXPECT_EQ(got[i].key, want[i].key) << "entry " << i;
      }
    }
    // Same answerability contract as the flat collection.
    std::vector<ProjectedRowChange> unanswerable;
    EXPECT_FALSE(rel.CollectProjectedChangesSince(
        rel.version() + 1, key_cols, nullptr, &unanswerable, nullptr));
    EXPECT_TRUE(unanswerable.empty());
  }
}

TEST(ColumnarDifferentialTest, BatchHashMatchesScalarHash) {
  // The column-batch hash fold (seed + per-column folds) must produce
  // bit-identical hashes to the scalar per-row HashValues — hash-table
  // bucketing agrees everywhere or repair breaks.
  Rng rng(77);
  Relation rel("R", {"A", "B", "C"});
  for (int i = 0; i < 500; ++i) {
    rel.AppendRow({static_cast<Value>(rng.NextUint64() >> 1),
                   rng.NextInRange(-1000, 1000), rng.NextInRange(0, 3)});
  }
  const size_t n = rel.NumRows();
  std::vector<uint64_t> batch(n);
  HashValuesBatchSeed(batch);
  for (size_t c = 0; c < rel.arity(); ++c) {
    HashValuesBatchFold(rel.Column(c), batch);
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(batch[i], HashValues(rel.Row(i))) << "row " << i;
  }
}

TEST(ColumnarDifferentialTest, CloneSnapshotIsIndependent) {
  Database db;
  Relation* r = db.AddRelation("R", {"A", "B"});
  r->EnableChangeLog(64);
  r->AppendRow({1, 2});
  r->AppendRow({3, 4});
  r->set_column_dictionary(1, true);
  const uint64_t version_at_snapshot = r->version();

  Database snap = db.CloneSnapshot();
  const Relation* sr = snap.Find("R");
  ASSERT_NE(sr, nullptr);
  // Snapshot preserves contents, versions, and schema metadata, but drops
  // the change log (a snapshot never mutates).
  EXPECT_TRUE(sr->IdenticalTo(*r));
  EXPECT_EQ(sr->version(), version_at_snapshot);
  EXPECT_FALSE(sr->change_log_enabled());
  EXPECT_TRUE(sr->column_dictionary(1));
  EXPECT_FALSE(sr->column_dictionary(0));

  // Mutations on either side are invisible to the other: the clone copies
  // every column, not column references.
  r->Set(0, 0, 99);
  r->AppendRow({5, 6});
  EXPECT_EQ(sr->NumRows(), 2u);
  EXPECT_EQ(sr->At(0, 0), 1);
  snap.Find("R")->SwapRemoveRow(0);
  EXPECT_EQ(r->NumRows(), 3u);
  EXPECT_EQ(r->At(0, 0), 99);
}

TEST(ColumnarDifferentialTest, MemoryBytesTracksColumnsAndLog) {
  Relation rel("R", {"A", "B"});
  const size_t empty = rel.MemoryBytes();
  for (int i = 0; i < 256; ++i) rel.AppendRow({i, -i});
  const size_t loaded = rel.MemoryBytes();
  EXPECT_GE(loaded, empty + 2 * 256 * sizeof(Value));
  rel.EnableChangeLog(1024);
  for (int i = 0; i < 64; ++i) rel.AppendRow({i, i});
  EXPECT_GT(rel.MemoryBytes(), loaded);
}

TEST(DictionaryTest, MemoryBytesGrowsWithInterning) {
  Dictionary d;
  const size_t empty = d.MemoryBytes();
  for (int i = 0; i < 128; ++i) {
    d.Intern("value-" + std::to_string(i) + "-with-some-padding");
  }
  EXPECT_GT(d.MemoryBytes(), empty);
}

TEST(RelationTest, DictionaryFlagsSurviveCopies) {
  Database db;
  Relation* r = db.AddRelation("R", {"A", "B", "C"});
  r->set_column_dictionary(0, true);
  r->set_column_dictionary(2, true);
  Database copy = db.Clone();
  const Relation* cr = copy.Find("R");
  EXPECT_TRUE(cr->column_dictionary(0));
  EXPECT_FALSE(cr->column_dictionary(1));
  EXPECT_TRUE(cr->column_dictionary(2));
  // Flags are schema metadata: flipping one side never leaks to the other.
  copy.Find("R")->set_column_dictionary(1, true);
  EXPECT_FALSE(r->column_dictionary(1));
}

}  // namespace
}  // namespace lsens
