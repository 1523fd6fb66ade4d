// The incremental sensitivity subsystem: relation versioning + change
// logs, the DynTable maintenance structure, SensitivityCache behavior
// (hit/repair/fallback counters), and the streaming differential suite —
// after every prefix of a randomized insert/delete stream the cached
// result must be bit-identical to a from-scratch ComputeLocalSensitivity
// (and agree with the naive oracle on tiny instances), at thread counts
// {0, 2, 8} and across every repairable shape: paths, trees,
// attribute-sharing multiplicity pieces, disconnected forests, and cyclic
// queries through searched or explicit GHDs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/dyn_table.h"
#include "exec/exec_context.h"
#include "query/ghd.h"
#include "sensitivity/incremental.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "storage/csv.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;
using testing::MakeRandomAcyclicInstance;
using testing::MakeRandomTriangleInstance;
using testing::PaperExample;
using testing::RandomQuerySpec;

// --- bit-identity helper ------------------------------------------------

void ExpectResultsIdentical(const SensitivityResult& a,
                            const SensitivityResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.local_sensitivity, b.local_sensitivity) << context;
  EXPECT_EQ(a.argmax_atom, b.argmax_atom) << context;
  ASSERT_EQ(a.atoms.size(), b.atoms.size()) << context;
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    const AtomSensitivity& x = a.atoms[i];
    const AtomSensitivity& y = b.atoms[i];
    EXPECT_EQ(x.atom_index, y.atom_index) << context;
    EXPECT_EQ(x.relation, y.relation) << context;
    EXPECT_EQ(x.table_attrs, y.table_attrs) << context;
    EXPECT_EQ(x.free_vars, y.free_vars) << context;
    EXPECT_EQ(x.max_sensitivity, y.max_sensitivity) << context << " atom "
                                                    << i;
    EXPECT_EQ(x.argmax, y.argmax) << context << " atom " << i;
    EXPECT_EQ(x.skipped, y.skipped) << context;
    EXPECT_EQ(x.approximate, y.approximate) << context;
    ASSERT_EQ(x.table.has_value(), y.table.has_value()) << context;
    if (x.table.has_value()) {
      ASSERT_EQ(x.table->NumRows(), y.table->NumRows()) << context;
      for (size_t r = 0; r < x.table->NumRows(); ++r) {
        EXPECT_EQ(CompareRows(x.table->Row(r), y.table->Row(r)), 0)
            << context;
        EXPECT_EQ(x.table->CountAt(r), y.table->CountAt(r)) << context;
      }
    }
  }
}

// --- storage: versions, change log, ApplyDelta --------------------------

TEST(RelationVersionTest, MutationsBumpMonotonically) {
  Relation rel("R", {"a", "b"});
  EXPECT_EQ(rel.version(), 0u);
  rel.AppendRow({1, 2});
  EXPECT_EQ(rel.version(), 1u);
  rel.AppendRow({3, 4});
  rel.SwapRemoveRow(0);
  EXPECT_EQ(rel.version(), 3u);
  rel.Set(0, 1, 7);
  EXPECT_GE(rel.version(), 4u);
  uint64_t before = rel.version();
  rel.Clear();
  EXPECT_GT(rel.version(), before);
}

TEST(RelationVersionTest, ChangeLogRoundTrips) {
  Relation rel("R", {"a", "b"});
  rel.AppendRow({1, 1});
  std::vector<RowChange> changes;
  // Not enabled yet: cannot answer.
  EXPECT_FALSE(rel.CollectChangesSince(0, &changes));
  rel.EnableChangeLog(16);
  uint64_t v0 = rel.version();
  rel.AppendRow({2, 2});
  rel.SwapRemoveRow(0);  // removes (1, 1)
  ASSERT_TRUE(rel.CollectChangesSince(v0, &changes));
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0].insert);
  EXPECT_EQ(changes[0].row, (std::vector<Value>{2, 2}));
  EXPECT_FALSE(changes[1].insert);
  EXPECT_EQ(changes[1].row, (std::vector<Value>{1, 1}));
  EXPECT_EQ(rel.NumChangesSince(v0), 2u);
  // A version inside the window answers with the suffix.
  changes.clear();
  ASSERT_TRUE(rel.CollectChangesSince(v0 + 1, &changes));
  EXPECT_EQ(changes.size(), 1u);
}

TEST(RelationVersionTest, LogWindowAndClearInvalidate) {
  Relation rel("R", {"a"});
  rel.EnableChangeLog(2);
  uint64_t v0 = rel.version();
  rel.AppendRow({1});
  rel.AppendRow({2});
  rel.AppendRow({3});  // evicts the first entry
  std::vector<RowChange> changes;
  EXPECT_FALSE(rel.CollectChangesSince(v0, &changes));
  EXPECT_EQ(rel.NumChangesSince(v0), SIZE_MAX);
  ASSERT_TRUE(rel.CollectChangesSince(v0 + 1, &changes));
  EXPECT_EQ(changes.size(), 2u);
  // A future version cannot be answered either.
  EXPECT_FALSE(rel.CollectChangesSince(rel.version() + 1, &changes));
  rel.Clear();
  EXPECT_FALSE(rel.change_log_enabled());
  EXPECT_FALSE(rel.CollectChangesSince(rel.version(), &changes));
}

TEST(RelationVersionTest, SetLogsEraseTheInsert) {
  Relation rel("R", {"a", "b"});
  rel.AppendRow({1, 2});
  rel.EnableChangeLog(8);
  uint64_t v0 = rel.version();
  rel.Set(0, 1, 9);
  std::vector<RowChange> changes;
  ASSERT_TRUE(rel.CollectChangesSince(v0, &changes));
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_FALSE(changes[0].insert);
  EXPECT_EQ(changes[0].row, (std::vector<Value>{1, 2}));
  EXPECT_TRUE(changes[1].insert);
  EXPECT_EQ(changes[1].row, (std::vector<Value>{1, 9}));
}

TEST(RelationVersionTest, ApplyDeltaValidatesBeforeMutating) {
  Relation rel("R", {"a"});
  rel.AppendRow({1});
  rel.AppendRow({2});
  uint64_t v0 = rel.version();
  // Out-of-range and duplicate delete indices, arity-mismatched inserts.
  EXPECT_FALSE(rel.ApplyDelta({}, {5}).ok());
  EXPECT_FALSE(rel.ApplyDelta({}, {0, 0}).ok());
  std::vector<std::vector<Value>> bad = {{1, 2}};
  EXPECT_FALSE(rel.ApplyDelta(bad, {}).ok());
  EXPECT_EQ(rel.version(), v0);
  EXPECT_EQ(rel.NumRows(), 2u);

  std::vector<std::vector<Value>> inserts = {{7}, {8}};
  ASSERT_TRUE(rel.ApplyDelta(inserts, {0, 1}).ok());
  EXPECT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.At(0, 0), 7);
  EXPECT_EQ(rel.At(1, 0), 8);
  EXPECT_EQ(rel.version(), v0 + 4);
}

TEST(DatabaseDeltaTest, RoutesToRelations) {
  Database db;
  Relation* r = db.AddRelation("R", {"a"});
  r->AppendRow({1});
  DatabaseDelta delta;
  delta.push_back(RelationDelta{"R", {{5}}, {0}});
  ASSERT_TRUE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(db.Find("R")->At(0, 0), 5);
  ASSERT_TRUE(db.VersionOf("R").ok());
  EXPECT_EQ(*db.VersionOf("R"), 3u);
  delta[0].relation = "missing";
  EXPECT_EQ(db.ApplyDelta(delta).code(), Status::Code::kNotFound);
  EXPECT_EQ(db.VersionOf("missing").status().code(),
            Status::Code::kNotFound);
}

TEST(DatabaseDeltaTest, PoisonedBatchLeavesEveryRelationUntouched) {
  Database db;
  Relation* a = db.AddRelation("A", {"x"});
  Relation* b = db.AddRelation("B", {"x"});
  a->AppendRow({1});
  b->AppendRow({2});
  a->EnableChangeLog(8);
  uint64_t va = a->version();
  uint64_t vb = b->version();

  // A valid delta for A rides in the same batch as an invalid one for B:
  // the whole batch rejects before anything mutates — A keeps its rows,
  // version, and an empty changelog window.
  DatabaseDelta delta;
  delta.push_back(RelationDelta{"A", {{7}}, {0}});
  delta.push_back(RelationDelta{"B", {}, {5}});  // out-of-range delete
  EXPECT_FALSE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(a->version(), va);
  EXPECT_EQ(b->version(), vb);
  EXPECT_EQ(a->NumRows(), 1u);
  EXPECT_EQ(a->At(0, 0), 1);
  EXPECT_EQ(a->NumChangesSince(va), 0u);

  // Repeated-name batches validate against the row count earlier entries
  // leave behind: this delete index only exists after the first entry's
  // inserts land.
  delta.clear();
  delta.push_back(RelationDelta{"A", {{8}, {9}}, {}});  // 1 row -> 3 rows
  delta.push_back(RelationDelta{"A", {}, {2}});
  ASSERT_TRUE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(a->NumRows(), 2u);

  // ...and a later entry that overruns the simulated count rejects the
  // whole batch even though each entry is fine against the current size.
  uint64_t va2 = a->version();
  delta.clear();
  delta.push_back(RelationDelta{"A", {}, {0, 1}});  // 2 rows -> 0 rows
  delta.push_back(RelationDelta{"A", {}, {0}});     // nothing left to delete
  EXPECT_FALSE(db.ApplyDelta(delta).ok());
  EXPECT_EQ(a->version(), va2);
  EXPECT_EQ(a->NumRows(), 2u);
}

// --- DynTable -----------------------------------------------------------

TEST(DynTableTest, LoadGetSetAdjust) {
  CountedRelation rel({1, 2});
  rel.AppendRow({1, 10}, Count(3));
  rel.AppendRow({2, 20}, Count(5));
  rel.Normalize();
  DynTable table(AttributeSet{1, 2});
  table.Load(rel);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.Get(std::vector<Value>{1, 10}), Count(3));
  EXPECT_EQ(table.Get(std::vector<Value>{9, 9}), Count::Zero());

  // Adjust up, down, and down-to-erase.
  EXPECT_TRUE(table.Adjust(std::vector<Value>{1, 10}, Count(2), true));
  EXPECT_EQ(table.Get(std::vector<Value>{1, 10}), Count(5));
  EXPECT_TRUE(table.Adjust(std::vector<Value>{1, 10}, Count(5), false));
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.Get(std::vector<Value>{1, 10}), Count::Zero());
  // Removing more than present poisons.
  EXPECT_FALSE(table.Adjust(std::vector<Value>{2, 20}, Count(6), false));
  EXPECT_TRUE(table.saturated());
}

TEST(DynTableTest, SecondaryIndexesFollowMutations) {
  DynTable table(AttributeSet{1, 2});
  int by_first = table.AddIndex({0});
  table.Set(std::vector<Value>{1, 10}, Count(1));
  table.Set(std::vector<Value>{1, 11}, Count(2));
  table.Set(std::vector<Value>{2, 10}, Count(3));
  std::vector<uint32_t> rows;
  table.LookupIndex(by_first, std::vector<Value>{1}, &rows);
  EXPECT_EQ(rows.size(), 2u);
  table.Set(std::vector<Value>{1, 10}, Count::Zero());  // erase
  rows.clear();
  table.LookupIndex(by_first, std::vector<Value>{1}, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(table.RowValues(rows[0])[1], 11);
  // Indexes registered late see existing rows.
  int by_second = table.AddIndex({1});
  rows.clear();
  table.LookupIndex(by_second, std::vector<Value>{10}, &rows);
  EXPECT_EQ(rows.size(), 1u);
  // Slot reuse after erasure keeps indexes coherent.
  table.Set(std::vector<Value>{3, 30}, Count(4));
  rows.clear();
  table.LookupIndex(by_first, std::vector<Value>{3}, &rows);
  EXPECT_EQ(rows.size(), 1u);
}

// --- SensitivityCache behavior ------------------------------------------

TEST(SensitivityCacheTest, HitRepairAndLargeDeltaCounters) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_delta_fraction = 0.26;  // 8 rows: repair up to 2 changes
  SensitivityCache cache(config);
  auto r1 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  auto r2 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  ExpectResultsIdentical(*r1, *r2, "hit");

  // One-row delta: repaired, and identical to a fresh compute.
  ex.db.Find("R2")->AppendRow({1, 1});
  auto r3 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r3, *fresh, "repair");

  // A delta larger than the fraction falls back to a full recompute.
  for (int i = 0; i < 6; ++i) ex.db.Find("R1")->AppendRow({i, i});
  auto r4 = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(cache.stats().fallback_large_delta, 1u);
  fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r4, *fresh, "large-delta fallback");
}

TEST(SensitivityCacheTest, StaleLogFallsBack) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.changelog_capacity = 2;
  config.max_delta_fraction = 1000.0;  // never reject on size
  SensitivityCache cache(config);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  // Three changes to one relation overflow its 2-entry window.
  Relation* r2 = ex.db.Find("R2");
  r2->AppendRow({1, 1});
  r2->AppendRow({1, 2});
  r2->AppendRow({2, 2});
  auto r = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.stats().fallback_stale, 1u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r, *fresh, "stale fallback");
  // The rebuild re-armed the (new) window: a small delta now repairs.
  r2->AppendRow({3, 3});
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
}

TEST(SensitivityCacheTest, CyclicQueriesRepairViaGhd) {
  // Cyclic queries repair through their (searched) GHD's bag tables —
  // a data change patches, it no longer recomputes.
  Rng rng(7);
  PaperExample tri = MakeRandomTriangleInstance(rng, 6, 3);
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  auto r1 = cache.Compute(tri.query, tri.db);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_TRUE(cache.Compute(tri.query, tri.db).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  tri.db.Find(tri.query.atom(0).relation)->AppendRow({1, 1});
  auto r2 = cache.Compute(tri.query, tri.db);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
  auto fresh = ComputeLocalSensitivity(tri.query, tri.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r2, *fresh, "cyclic repair");
}

TEST(SensitivityCacheTest, TopKStaysMemoizedWithReason) {
  // Repair maintains exact tables; the top-k approximation deliberately
  // does not repair and stays version-memoized.
  PaperExample ex = MakeFigure3Example();
  TSensComputeOptions topk;
  topk.top_k = 1;
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, topk).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, topk).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  ex.db.Find("R2")->AppendRow({1, 1});
  auto r = cache.Compute(ex.query, ex.db, topk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.stats().fallback_unsupported, 1u);
  EXPECT_EQ(cache.stats().repairs, 0u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db, topk);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r, *fresh, "top-k memoized");
}

TEST(SensitivityCacheTest, KeepTablesStaysMemoizedWithReason) {
  // keep_tables results carry full multiplicity tables that repair does
  // not patch; they stay version-memoized (and recomputed on change).
  PaperExample fig1 = MakeFigure1Example();
  TSensComputeOptions keep;
  keep.keep_tables = true;
  SensitivityCache cache;
  auto kt = cache.Compute(fig1.query, fig1.db, keep);
  ASSERT_TRUE(kt.ok());
  Relation* rel = fig1.db.Find(fig1.query.atom(0).relation);
  std::vector<Value> row(rel->arity(), 1);
  rel->AppendRow(row);
  auto kt2 = cache.Compute(fig1.query, fig1.db, keep);
  ASSERT_TRUE(kt2.ok());
  EXPECT_EQ(cache.stats().fallback_unsupported, 1u);
  EXPECT_EQ(cache.stats().repairs, 0u);
  auto kt_fresh = ComputeLocalSensitivity(fig1.query, fig1.db, keep);
  ASSERT_TRUE(kt_fresh.ok());
  ExpectResultsIdentical(*kt2, *kt_fresh, "keep_tables memoized");
}

TEST(SensitivityCacheTest, DeleteHeavyStreamRepairsDownToEmpty) {
  // The delta gate measures against the pre-delta size (current rows +
  // pending changes), so single-row deletes keep repairing even as the
  // relations shrink to empty — no fraction over 1 against a shrunken
  // size, no division by an emptied relation.
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_delta_fraction = 0.2;  // the one-change floor carries each step
  SensitivityCache cache(config);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  for (const char* name : {"R1", "R2", "R3", "R4"}) {
    Relation* rel = ex.db.Find(name);
    while (rel->NumRows() > 0) {
      rel->SwapRemoveRow(rel->NumRows() - 1);
      auto cached = cache.Compute(ex.query, ex.db);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
      ASSERT_TRUE(fresh.ok());
      ExpectResultsIdentical(*cached, *fresh, std::string("shrink ") + name);
    }
  }
  EXPECT_EQ(ex.db.TotalRows(), 0u);
  // Every one of the 8 deletes repaired in place; the gate never rejected.
  EXPECT_EQ(cache.stats().repairs, 8u);
  EXPECT_EQ(cache.stats().fallback_large_delta, 0u);
  // Growth out of the emptied database repairs too.
  ex.db.Find("R2")->AppendRow({1, 1});
  auto cached = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cache.stats().repairs, 9u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*cached, *fresh, "regrow");
}

TEST(SensitivityCacheTest, DistinctOptionsGetDistinctEntries) {
  PaperExample ex = MakeFigure3Example();
  TSensComputeOptions all;
  TSensComputeOptions skip;
  skip.skip_atoms = {0};
  EXPECT_NE(SensitivityCache::Fingerprint(ex.query, all),
            SensitivityCache::Fingerprint(ex.query, skip));
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, all).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, skip).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  // The entries are distinct but their source nodes are shared: the first
  // Compute's delta pass repairs every pending node, so the second entry
  // only reassembles from already-current nodes.
  ex.db.Find("R3")->AppendRow({1, 1});
  auto a = cache.Compute(ex.query, ex.db, all);
  auto b = cache.Compute(ex.query, ex.db, skip);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  EXPECT_EQ(cache.stats().shared_assemblies, 1u);
  EXPECT_GT(cache.stats().shared_attaches, 0u);
  auto fresh_all = ComputeLocalSensitivity(ex.query, ex.db, all);
  auto fresh_skip = ComputeLocalSensitivity(ex.query, ex.db, skip);
  ASSERT_TRUE(fresh_all.ok());
  ASSERT_TRUE(fresh_skip.ok());
  ExpectResultsIdentical(*a, *fresh_all, "all-atoms entry");
  ExpectResultsIdentical(*b, *fresh_skip, "skip entry");
}

TEST(SensitivityCacheTest, SingleAtomQueryIsConstant) {
  Database db;
  Relation* rel = db.AddRelation("R", {"a", "b"});
  rel->AppendRow({1, 2});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  SensitivityCache cache;
  auto r1 = cache.Compute(q, db);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->local_sensitivity, Count(1));
  rel->AppendRow({3, 4});
  auto r2 = cache.Compute(q, db);
  ASSERT_TRUE(r2.ok());
  // Data-independent: served as a hit without consulting any change log.
  EXPECT_EQ(cache.stats().hits, 1u);
  ExpectResultsIdentical(*r1, *r2, "constant");
}

TEST(SensitivityCacheTest, SkipAtomsFlowThroughRepair) {
  PaperExample ex = MakeFigure3Example();
  TSensComputeOptions options;
  options.skip_atoms = {1};
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ex.db.Find("R1")->AppendRow({2, 1});
  auto r = cache.Compute(ex.query, ex.db, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r, *fresh, "skip_atoms");
  EXPECT_TRUE(r->atoms[1].skipped);
}

TEST(SensitivityCacheTest, LruEvictionBoundsEntries) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_entries = 1;
  SensitivityCache cache(config);
  TSensComputeOptions a;
  TSensComputeOptions b;
  b.skip_atoms = {0};  // distinct fingerprint
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, a).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, b).ok());  // evicts `a`
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, a).ok());  // recomputed
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, a).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SensitivityCacheTest, ByteBudgetSpillsStateButKeepsResult) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_state_bytes = 1;  // nothing repairable fits
  SensitivityCache cache(config);
  ExecContext ctx;
  TSensComputeOptions options;
  options.join.ctx = &ctx;

  auto r1 = cache.Compute(ex.query, ex.db, options);
  ASSERT_TRUE(r1.ok());
  // Every captured node's table was spilled straight away (the spill is
  // node-granular, so the count is one per shared node); the result
  // survives and released nodes account zero bytes.
  EXPECT_GT(cache.stats().spills, 0u);
  EXPECT_EQ(cache.stats().state_bytes, 0u);
  ASSERT_NE(ctx.FindStats("cache.spill"), nullptr);
  EXPECT_GT(ctx.FindStats("cache.spill")->rows_in, 0u);
  const uint64_t first_spills = cache.stats().spills;

  // Unchanged data: still a pure hit.
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Changed data: the spilled entry recomputes (counted separately from
  // unsupported shapes), stays correct, and is spilled again.
  ex.db.Find("R2")->AppendRow({1, 1});
  auto r2 = cache.Compute(ex.query, ex.db, options);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.stats().fallback_spilled, 1u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
  EXPECT_GT(cache.stats().spills, first_spills);
  EXPECT_EQ(cache.stats().state_bytes, 0u);
  auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*r2, *fresh, "spilled recompute");
}

// Builds a second Figure-3-shaped chain over fresh relation names inside
// the same database. The distinct relations give every node a distinct
// canonical signature, so the two queries share nothing and the byte
// budget must pick node victims across entries by recency.
ConjunctiveQuery AddDisjointChain(PaperExample& ex) {
  Dictionary& d = ex.db.dict();
  auto* s1 = ex.db.AddRelation("S1", {"A", "B"});
  auto* s2 = ex.db.AddRelation("S2", {"B", "C"});
  auto* s3 = ex.db.AddRelation("S3", {"C", "D"});
  auto* s4 = ex.db.AddRelation("S4", {"D", "E"});
  auto v = [&](const char* s) { return d.Intern(s); };
  s1->AppendRow({v("a1"), v("b1")});
  s1->AppendRow({v("a2"), v("b1")});
  s2->AppendRow({v("b1"), v("c1")});
  s2->AppendRow({v("b2"), v("c2")});
  s3->AppendRow({v("c1"), v("d1")});
  s3->AppendRow({v("c1"), v("d2")});
  s4->AppendRow({v("d1"), v("e1")});
  s4->AppendRow({v("d2"), v("e1")});
  ConjunctiveQuery q;
  q.AddAtom(ex.db, "S1", {"A", "B"});
  q.AddAtom(ex.db, "S2", {"B", "C"});
  q.AddAtom(ex.db, "S3", {"C", "D"});
  q.AddAtom(ex.db, "S4", {"D", "E"});
  return q;
}

TEST(SensitivityCacheTest, ByteBudgetSpillsLruNodesFirst) {
  PaperExample ex = MakeFigure3Example();
  ConjunctiveQuery q2 = AddDisjointChain(ex);
  // Measure one entry's state footprint with an unbounded cache.
  size_t one_entry_bytes = 0;
  {
    SensitivityCache probe;
    ASSERT_TRUE(probe.Compute(ex.query, ex.db).ok());
    one_entry_bytes = probe.stats().state_bytes;
    ASSERT_GT(one_entry_bytes, 0u);
  }

  // Budget for one entry but not two: the older entry's nodes spill, the
  // hot one keeps repairing.
  SensitivityCacheConfig config;
  config.max_state_bytes = one_entry_bytes + one_entry_bytes / 2;
  SensitivityCache cache(config);
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  ASSERT_TRUE(cache.Compute(q2, ex.db).ok());
  EXPECT_GT(cache.stats().spills, 0u);
  EXPECT_LE(cache.stats().state_bytes, config.max_state_bytes);

  // The surviving (recently used) entry still repairs in place.
  ex.db.Find("S1")->AppendRow({0, 1});
  ASSERT_TRUE(cache.Compute(q2, ex.db).ok());
  EXPECT_EQ(cache.stats().repairs, 1u);
  // The spilled one recomputes.
  ex.db.Find("R1")->AppendRow({0, 1});
  ASSERT_TRUE(cache.Compute(ex.query, ex.db).ok());
  EXPECT_EQ(cache.stats().fallback_spilled, 1u);
}

TEST(SensitivityCacheTest, RecordsExecContextOps) {
  PaperExample ex = MakeFigure3Example();
  ExecContext ctx;
  TSensComputeOptions options;
  options.join.ctx = &ctx;
  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ex.db.Find("R2")->AppendRow({1, 1});
  ASSERT_TRUE(cache.Compute(ex.query, ex.db, options).ok());
  ASSERT_NE(ctx.FindStats("cache.miss"), nullptr);
  ASSERT_NE(ctx.FindStats("cache.hit"), nullptr);
  ASSERT_NE(ctx.FindStats("cache.repair"), nullptr);
  EXPECT_EQ(ctx.FindStats("cache.repair")->calls, 1u);
  EXPECT_GT(ctx.FindStats("cache.repair")->rows_in, 0u);
}

// Peek is the epoch-aware read-only probe the serving layer uses: it hits
// only while the cached entry's relation versions match the database
// exactly, and never mutates cache state (no repair, no LRU touch, no
// stats).
TEST(SensitivityCacheTest, PeekHitsOnlyAtMatchingVersions) {
  PaperExample ex = MakeFigure3Example();
  SensitivityCache cache;
  EXPECT_FALSE(cache.Peek(ex.query, ex.db, {}));  // never computed

  auto computed = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(computed.ok());
  SensitivityResult peeked;
  ASSERT_TRUE(cache.Peek(ex.query, ex.db, {}, &peeked));
  ExpectResultsIdentical(*computed, peeked, "peek after compute");
  EXPECT_TRUE(cache.Peek(ex.query, ex.db, {}));  // out is optional

  // The execution context is excluded from the fingerprint: another
  // context still hits.
  ExecContext other_ctx;
  TSensComputeOptions other;
  other.join.ctx = &other_ctx;
  EXPECT_TRUE(cache.Peek(ex.query, ex.db, other));

  // Any version drift makes the entry stale for Peek — it does not repair.
  const uint64_t hits_before = cache.stats().hits;
  ex.db.Find("R3")->AppendRow({1, 1});
  EXPECT_FALSE(cache.Peek(ex.query, ex.db, {}));
  EXPECT_EQ(cache.stats().hits, hits_before);  // Peek never touched stats
  EXPECT_EQ(cache.stats().repairs, 0u);

  // Compute repairs the entry; Peek hits again at the new versions.
  auto repaired = cache.Compute(ex.query, ex.db);
  ASSERT_TRUE(repaired.ok());
  ASSERT_TRUE(cache.Peek(ex.query, ex.db, {}, &peeked));
  ExpectResultsIdentical(*repaired, peeked, "peek after repair");
}

// --- streaming differential suite ---------------------------------------

// Applies 1 + `extra` randomized batches (1-3 inserts/deletes each) to
// random relations of the query, mixing the direct mutators and the
// batched ApplyDelta API, so the next Compute repairs a window of that
// many batches. The generator itself is the shared seeded-stream helper in
// test_util, so this suite, plan_cache_test, and serving_test replay the
// same workload family.
void RandomMutation(Rng& rng, const ConjunctiveQuery& q, Database& db,
                    int domain, int extra = 0) {
  for (int b = 0; b <= extra; ++b) {
    testing::ApplyRandomMutation(rng, db, testing::QueryRelationNames(q),
                                 domain);
  }
}

// Parameters: (seed, extra batches between computes). With 0 every
// Compute repairs one batch; with 2 and 8 it repairs windows of 3 and 9
// batches, where one key can change several times before the repair.
class IncrementalStreamTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

// The core contract: after every prefix of a randomized update stream, the
// cached/incremental result is bit-identical to a from-scratch compute,
// and its LS agrees with the naive oracle.
TEST_P(IncrementalStreamTest, PathQueryPrefixesMatchScratchAndNaive) {
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 97 + 11);
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;  // exercise repair as hard as possible
  SensitivityCache cache(config);
  TSensComputeOptions options;
  for (int step = 0; step < 18; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "path step " + std::to_string(step));
    Database clone = ex.db.Clone();
    auto naive = NaiveLocalSensitivity(ex.query, clone);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
        << "path step " << step;
    RandomMutation(rng, ex.query, ex.db, 3, extra);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
}

TEST_P(IncrementalStreamTest, PathQueryWithPredicatesMatchesScratch) {
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 41 + 17);
  PaperExample ex = MakeFigure3Example();
  // Predicates on link variables flow into the ⊤/⊥ tracker filters; the
  // one on atom 2 must also drop non-matching delta rows at the source.
  ex.query.AddPredicate(
      1, Predicate{ex.query.atom(1).vars[0], Predicate::Op::kLe, 1});
  ex.query.AddPredicate(
      2, Predicate{ex.query.atom(2).vars[1], Predicate::Op::kNe, 0});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options;
  for (int step = 0; step < 14; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "pred step " + std::to_string(step));
    if (step % 5 == 4) {
      // Point overwrites repair through the erase+insert log pair.
      Relation* rel = ex.db.Find(ex.query.atom(1).relation);
      if (rel->NumRows() > 0) {
        rel->Set(rng.NextBounded(rel->NumRows()), 0,
                 static_cast<Value>(rng.NextBounded(3)));
      }
    } else {
      RandomMutation(rng, ex.query, ex.db, 3, extra);
    }
  }
  EXPECT_GT(cache.stats().repairs, 0u);
}

TEST_P(IncrementalStreamTest, ScrambledAtomOrderPathMatchesScratch) {
  // Atoms declared against the chain direction: PathOrder's chain and the
  // atom indexing disagree, exercising the order-sensitive reduction.
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 59 + 7);
  Database db;
  for (const char* name : {"W", "X", "Y", "Z"}) {
    Relation* rel = db.AddRelation(name, {"u", "v"});
    for (int i = 0; i < 5; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "Z", {"D", "E"});
  q.AddAtom(db, "X", {"B", "C"});
  q.AddAtom(db, "W", {"A", "B"});
  q.AddAtom(db, "Y", {"C", "D"});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options;
  for (int step = 0; step < 14; ++step) {
    auto cached = cache.Compute(q, db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(q, db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "scrambled step " + std::to_string(step));
    RandomMutation(rng, q, db, 3, extra);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
}

TEST_P(IncrementalStreamTest, RandomAcyclicPrefixesMatchScratchAndNaive) {
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 131 + 5);
  RandomQuerySpec spec;
  spec.max_rows = 6;
  TSensComputeOptions options;
  for (int trial = 0; trial < 4; ++trial) {
    PaperExample ex = MakeRandomAcyclicInstance(rng, spec);
    SensitivityCacheConfig config;
    config.max_delta_fraction = 1.0;
    SensitivityCache cache(config);
    for (int step = 0; step < 8; ++step) {
      auto cached = cache.Compute(ex.query, ex.db, options);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
      ASSERT_TRUE(fresh.ok());
      ExpectResultsIdentical(
          *cached, *fresh,
          "trial " + std::to_string(trial) + " step " + std::to_string(step));
      Database clone = ex.db.Clone();
      auto naive = NaiveLocalSensitivity(ex.query, clone);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
          << "trial " << trial << " step " << step;
      RandomMutation(rng, ex.query, ex.db, spec.domain_size + 1, extra);
    }
  }
}

TEST_P(IncrementalStreamTest, CyclicPrefixesRepairAndMatchScratchAndNaive) {
  // The triangle goes through the searched GHD: one bag holds two atoms
  // (bag-level join repair), and the per-atom multiplicity components join
  // attribute-sharing pieces. Every prefix must repair, not fall back.
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 173 + 3);
  PaperExample ex = MakeRandomTriangleInstance(rng, 6, 3);
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options;
  for (int step = 0; step < 10; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "cyclic step " + std::to_string(step));
    Database clone = ex.db.Clone();
    auto naive = NaiveLocalSensitivity(ex.query, clone);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
        << "cyclic step " << step;
    RandomMutation(rng, ex.query, ex.db, 3, extra);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

TEST_P(IncrementalStreamTest, ExplicitGhdPrefixesRepairAndMatchScratch) {
  // An explicitly supplied decomposition repairs through the same bag
  // machinery as a searched one — and fingerprints as a distinct entry.
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 239 + 21);
  PaperExample ex = MakeRandomTriangleInstance(rng, 6, 3);
  auto ghd = BuildGhd(ex.query, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok()) << ghd.status().ToString();
  TSensComputeOptions options;
  options.ghd = &*ghd;
  EXPECT_NE(SensitivityCache::Fingerprint(ex.query, options),
            SensitivityCache::Fingerprint(ex.query, {}));
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  for (int step = 0; step < 10; ++step) {
    auto cached = cache.Compute(ex.query, ex.db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "explicit ghd step " + std::to_string(step));
    RandomMutation(rng, ex.query, ex.db, 3, extra);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

TEST_P(IncrementalStreamTest, MultiPiecePrefixesRepairAndMatchScratch) {
  // M2 and M3 both bind {B, C}: the T_a pieces for atom M1 share
  // attributes and must be join-repaired, not cross-multiplied.
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 211 + 13);
  Database db;
  for (const char* name : {"M1", "M2", "M3"}) {
    Relation* rel = db.AddRelation(name, {"u", "v"});
    for (int i = 0; i < 5; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "M1", {"A", "B"});
  q.AddAtom(db, "M2", {"B", "C"});
  q.AddAtom(db, "M3", {"B", "C"});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options;
  for (int step = 0; step < 12; ++step) {
    auto cached = cache.Compute(q, db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(q, db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "multi-piece step " + std::to_string(step));
    Database clone = db.Clone();
    auto naive = NaiveLocalSensitivity(q, clone);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(cached->local_sensitivity, naive->local_sensitivity)
        << "multi-piece step " << step;
    RandomMutation(rng, q, db, 3, extra);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

TEST_P(IncrementalStreamTest, DisconnectedForestPrefixesRepairAndMatch) {
  // Two join trees plus a lone atom: a repair in one tree re-multiplies
  // the other trees' scale factors from the maintained per-tree totals.
  const auto [seed, extra] = GetParam();
  Rng rng(seed * 223 + 19);
  Database db;
  for (const char* name : {"D1", "D2", "D3", "D4", "D5"}) {
    Relation* rel = db.AddRelation(name, {"u", "v"});
    for (int i = 0; i < 4; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "D1", {"A", "B"});
  q.AddAtom(db, "D2", {"B", "C"});
  q.AddAtom(db, "D3", {"X", "Y"});
  q.AddAtom(db, "D4", {"Y", "Z"});
  q.AddAtom(db, "D5", {"U", "V"});
  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  TSensComputeOptions options;
  for (int step = 0; step < 12; ++step) {
    auto cached = cache.Compute(q, db, options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = ComputeLocalSensitivity(q, db, options);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "disconnected step " + std::to_string(step));
    RandomMutation(rng, q, db, 3, extra);
  }
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().fallback_unsupported, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IncrementalStreamTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(0, 2, 8)));

// Batches of hundreds of changes over wide key domains: each repair pass
// walks a long change-log window whose keys repeat, touching most join-key
// groups, and must match a from-scratch compute.
TEST(ShardedRepairTest, LargeBatchDeltasCrossTheShardingGate) {
  Rng rng(8675309);
  Database db;
  const int kDomain = 50;
  for (const char* name : {"S1", "S2", "S3"}) {
    Relation* rel = db.AddRelation(name, {"u", "v"});
    for (int i = 0; i < 1000; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(kDomain)),
                      static_cast<Value>(rng.NextBounded(kDomain))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "S1", {"A", "B"});
  q.AddAtom(db, "S2", {"B", "C"});
  q.AddAtom(db, "S3", {"C", "D"});

  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  for (int step = 0; step < 4; ++step) {
    auto cached = cache.Compute(q, db);
    ASSERT_TRUE(cached.ok());
    auto fresh = ComputeLocalSensitivity(q, db);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "batch vs scratch step " + std::to_string(step));
    // One batch of ~200 inserts and ~100 deletes on a rotating relation.
    Relation* rel = db.Find(q.atom(step % 3).relation);
    std::vector<std::vector<Value>> inserts;
    for (int i = 0; i < 200; ++i) {
      inserts.push_back({static_cast<Value>(rng.NextBounded(kDomain)),
                         static_cast<Value>(rng.NextBounded(kDomain))});
    }
    std::vector<size_t> deletes;
    for (size_t idx = 0; idx < 100 && idx < rel->NumRows(); ++idx) {
      deletes.push_back(idx * 7 % rel->NumRows());
    }
    std::sort(deletes.begin(), deletes.end());
    deletes.erase(std::unique(deletes.begin(), deletes.end()),
                  deletes.end());
    ASSERT_TRUE(rel->ApplyDelta(inserts, deletes).ok());
  }
  EXPECT_EQ(cache.stats().repairs, 3u);
  EXPECT_GT(cache.stats().delta_rows, 3u * 200u);
}

// A byte budget too small for any state degrades the cache to a memoizer:
// every step recomputes, every answer stays correct.
TEST(SensitivityCacheTest, ByteBudgetedStreamStaysCorrect) {
  Rng rng(2718);
  PaperExample ex = MakeFigure3Example();
  SensitivityCacheConfig config;
  config.max_state_bytes = 1;
  config.max_delta_fraction = 1.0;
  SensitivityCache cache(config);
  for (int step = 0; step < 10; ++step) {
    auto cached = cache.Compute(ex.query, ex.db);
    ASSERT_TRUE(cached.ok());
    auto fresh = ComputeLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(fresh.ok());
    ExpectResultsIdentical(*cached, *fresh,
                           "budget step " + std::to_string(step));
    RandomMutation(rng, ex.query, ex.db, 3);
  }
  EXPECT_GT(cache.stats().spills, 0u);
  EXPECT_EQ(cache.stats().repairs, 0u);  // nothing survives to repair
}

// --- asymptotic work bound ----------------------------------------------

// The acceptance bar: on a larger instance, a repaired single-row update
// processes well under 5% of the rows a full recompute touches (summed
// over every operator the ExecContext saw).
TEST(IncrementalWorkTest, SingleRowRepairDoesAsymptoticallyLessWork) {
  Rng rng(42);
  Database db;
  const int kRows = 20000;
  const int kDomain = 500;
  const char* names[] = {"P1", "P2", "P3", "P4"};
  for (const char* name : names) {
    Relation* rel = db.AddRelation(name, {"x", "y"});
    rel->Reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(kDomain)),
                      static_cast<Value>(rng.NextBounded(kDomain))});
    }
  }
  ConjunctiveQuery q;
  q.AddAtom(db, "P1", {"A", "B"});
  q.AddAtom(db, "P2", {"B", "C"});
  q.AddAtom(db, "P3", {"C", "D"});
  q.AddAtom(db, "P4", {"D", "E"});

  auto total_rows = [](const ExecContext& ctx) {
    uint64_t total = 0;
    for (const OperatorStats& s : ctx.stats()) {
      total += s.rows_in + s.rows_out;
    }
    return total;
  };

  ExecContext full_ctx;
  TSensComputeOptions full_options;
  full_options.join.ctx = &full_ctx;
  ASSERT_TRUE(ComputeLocalSensitivity(q, db, full_options).ok());
  const uint64_t full_work = total_rows(full_ctx);
  ASSERT_GT(full_work, 0u);

  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(q, db).ok());
  db.Find("P2")->AppendRow({static_cast<Value>(rng.NextBounded(kDomain)),
                            static_cast<Value>(rng.NextBounded(kDomain))});
  ExecContext repair_ctx;
  TSensComputeOptions repair_options;
  repair_options.join.ctx = &repair_ctx;
  auto repaired = cache.Compute(q, db, repair_options);
  ASSERT_TRUE(repaired.ok());
  ASSERT_EQ(cache.stats().repairs, 1u);
  const uint64_t repair_work = total_rows(repair_ctx);
  EXPECT_LT(static_cast<double>(repair_work),
            0.05 * static_cast<double>(full_work))
      << "repair " << repair_work << " rows vs full " << full_work;
  auto fresh = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*repaired, *fresh, "large instance repair");
}

// A group's count moves by its changed driver rows' term deltas; the
// repair never re-reads the group's other rows. Here group C = 0 of
// γ_C(P2 ⋈ γ_B(P1)) has 1,000 driver rows, and one P1 insert changes the
// term of exactly one of them.
TEST(IncrementalWorkTest, GroupRepairReadsOnlyChangedDriverRows) {
  Database db;
  Relation* p1 = db.AddRelation("P1", {"x", "y"});
  Relation* p2 = db.AddRelation("P2", {"x", "y"});
  Relation* p3 = db.AddRelation("P3", {"x", "y"});
  for (Value i = 0; i < 50; ++i) p1->AppendRow({i, i % 5});
  for (Value i = 0; i < 1000; ++i) p2->AppendRow({i, 0});
  for (Value i = 0; i < 50; ++i) p3->AppendRow({0, i});
  ConjunctiveQuery q;
  q.AddAtom(db, "P1", {"A", "B"});
  q.AddAtom(db, "P2", {"B", "C"});
  q.AddAtom(db, "P3", {"C", "D"});

  SensitivityCache cache;
  ASSERT_TRUE(cache.Compute(q, db).ok());
  const uint64_t build_rows = cache.stats().repair_rows;
  p1->AppendRow({7, 3});
  auto repaired = cache.Compute(q, db);
  ASSERT_TRUE(repaired.ok());
  ASSERT_EQ(cache.stats().repairs, 1u);
  EXPECT_LT(cache.stats().repair_rows - build_rows, 100u) << build_rows;
  auto fresh = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(fresh.ok());
  ExpectResultsIdentical(*repaired, *fresh, "one changed driver row");
}

}  // namespace
}  // namespace lsens
