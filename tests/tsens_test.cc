#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "query/eval.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "sensitivity/incremental.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "sensitivity/tsens_engine.h"
#include "sensitivity/tsens_path.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;

TEST(TSensTest, Figure1LocalSensitivityIsFour) {
  auto ex = MakeFigure1Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count(4));
  // Example 2.1: the most sensitive tuple is (a2, b2, c1) in R1 —
  // bound on A and B, free on C.
  const AtomSensitivity* best = result->MostSensitive();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->relation, "R1");
  ASSERT_EQ(best->argmax.size(), 2u);
  EXPECT_EQ(best->argmax[0], ex.db.dict().Lookup("a2"));
  EXPECT_EQ(best->argmax[1], ex.db.dict().Lookup("b2"));
  ASSERT_EQ(best->free_vars.size(), 1u);
  EXPECT_EQ(best->free_vars[0], ex.db.attrs().Lookup("C"));
}

TEST(TSensTest, Figure1PerRelationMaxima) {
  auto ex = MakeFigure1Example();
  TSensComputeOptions opts;
  opts.keep_tables = true;
  auto result = ComputeLocalSensitivity(ex.query, ex.db, opts);
  ASSERT_TRUE(result.ok());
  // Example 2.1 notes δ((a1,b1,c1) in R1) = 1 (downward). The other two R1
  // rows have no matching R2 pair, so removing/re-adding them changes
  // nothing.
  auto sens = TupleSensitivities(*result, ex.query, ex.db, 0);
  ASSERT_TRUE(sens.ok());
  EXPECT_EQ((*sens)[0], Count(1));       // (a1,b1,c1)
  EXPECT_EQ((*sens)[1], Count::Zero());  // (a1,b2,c1): no R2(a1,b2,·)
  EXPECT_EQ((*sens)[2], Count::Zero());  // (a2,b1,c1): no R2(a2,b1,·)
}

TEST(TSensTest, Figure1DescribeMostSensitive) {
  auto ex = MakeFigure1Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->DescribeMostSensitive(ex.db.attrs(), &ex.db.dict()),
            "R1(A=a2, B=b2, C=*) with sensitivity 4");
}

TEST(TSensTest, Figure3PathSensitivity) {
  auto ex = MakeFigure3Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Example 4.1: removing R2(b1,c1) removes all 4 outputs; LS = 4.
  EXPECT_EQ(result->local_sensitivity, Count(4));
  const AtomSensitivity* best = result->MostSensitive();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->relation, "R2");
  ASSERT_EQ(best->argmax.size(), 2u);
  EXPECT_EQ(best->argmax[0], ex.db.dict().Lookup("b1"));
  EXPECT_EQ(best->argmax[1], ex.db.dict().Lookup("c1"));
}

TEST(TSensTest, Figure3PathAndEngineAgree) {
  auto ex = MakeFigure3Example();
  std::vector<int> order = PathOrder(ex.query);
  ASSERT_FALSE(order.empty());
  auto path = TSensPath(ex.query, order, ex.db);
  ASSERT_TRUE(path.ok());

  auto forest = BuildJoinForestGYO(ex.query);
  auto engine = TSensOverGhd(ex.query, MakeTrivialGhd(ex.query, *forest),
                             ex.db);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(path->local_sensitivity, engine->local_sensitivity);
  for (int i = 0; i < ex.query.num_atoms(); ++i) {
    EXPECT_EQ(path->atoms[i].max_sensitivity,
              engine->atoms[i].max_sensitivity)
        << "atom " << i;
  }
}

// Every field of two results, multiplicity tables included.
void ExpectBitIdentical(const SensitivityResult& a, const SensitivityResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.local_sensitivity, b.local_sensitivity) << context;
  EXPECT_EQ(a.argmax_atom, b.argmax_atom) << context;
  ASSERT_EQ(a.atoms.size(), b.atoms.size()) << context;
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    const AtomSensitivity& x = a.atoms[i];
    const AtomSensitivity& y = b.atoms[i];
    const std::string at = context + " atom " + std::to_string(i);
    EXPECT_EQ(x.atom_index, y.atom_index) << at;
    EXPECT_EQ(x.relation, y.relation) << at;
    EXPECT_EQ(x.table_attrs, y.table_attrs) << at;
    EXPECT_EQ(x.free_vars, y.free_vars) << at;
    EXPECT_EQ(x.max_sensitivity, y.max_sensitivity) << at;
    EXPECT_EQ(x.argmax, y.argmax) << at;
    EXPECT_EQ(x.skipped, y.skipped) << at;
    EXPECT_EQ(x.approximate, y.approximate) << at;
    ASSERT_EQ(x.table.has_value(), y.table.has_value()) << at;
    if (!x.table.has_value()) continue;
    ASSERT_EQ(x.table->NumRows(), y.table->NumRows()) << at;
    for (size_t r = 0; r < x.table->NumRows(); ++r) {
      EXPECT_EQ(CompareRows(x.table->Row(r), y.table->Row(r)), 0) << at;
      EXPECT_EQ(x.table->CountAt(r), y.table->CountAt(r)) << at;
    }
  }
}

// The facade, the cache and a direct engine call agree on every query
// shape: ComputeLocalSensitivity runs exactly PlanSensitivity's engine,
// SensitivityCache returns the same result, and after a one-row delta the
// cache repairs exactly the shapes its policy keeps state for (top-k and
// keep_tables recompute; a single atom needs no repair).
TEST(TSensPlanTest, FacadeRunsThePlannedEngineOnEveryShape) {
  struct Case {
    std::string name;
    testing::PaperExample ex;
    std::optional<Ghd> ghd;
    DecompositionSource source = DecompositionSource::kGyo;
    bool path = false;
  };
  std::vector<Case> cases;

  Case single{"single-atom", {}, std::nullopt};
  Relation* r = single.ex.db.AddRelation("R", {"A", "B"});
  for (Value v : {1, 2, 3}) r->AppendRow({v, v % 2});
  single.ex.query.AddAtom(single.ex.db, "R", {"A", "B"});
  cases.push_back(std::move(single));

  cases.push_back({"path", MakeFigure3Example(), std::nullopt,
                   DecompositionSource::kGyo, true});
  cases.push_back({"tree", MakeFigure1Example(), std::nullopt});

  Case disconnected{"disconnected", {}, std::nullopt};
  Database& db = disconnected.ex.db;
  Relation* rr = db.AddRelation("R", {"A", "B"});
  Relation* ss = db.AddRelation("S", {"B", "C"});
  Relation* tt = db.AddRelation("T", {"X"});
  for (Value v : {1, 2, 3}) {
    rr->AppendRow({v, v % 2});
    ss->AppendRow({v % 2, v});
    tt->AppendRow({v});
  }
  disconnected.ex.query.AddAtom(db, "R", {"A", "B"});
  disconnected.ex.query.AddAtom(db, "S", {"B", "C"});
  disconnected.ex.query.AddAtom(db, "T", {"X"});
  cases.push_back(std::move(disconnected));

  Rng rng(11);
  cases.push_back({"searched-cyclic", testing::MakeRandomTriangleInstance(
                                          rng, 6, 3),
                   std::nullopt, DecompositionSource::kSearched});
  Case user_cyclic{"user-ghd-cyclic",
                   testing::MakeRandomTriangleInstance(rng, 6, 3),
                   std::nullopt, DecompositionSource::kUser};
  user_cyclic.ghd = *BuildGhd(user_cyclic.ex.query, {{0, 1}, {2}});
  cases.push_back(std::move(user_cyclic));
  Case user_acyclic{"user-ghd-acyclic", MakeFigure3Example(), std::nullopt,
                    DecompositionSource::kUser};
  user_acyclic.ghd = *BuildGhd(user_acyclic.ex.query, {{0}, {1}, {2}, {3}});
  cases.push_back(std::move(user_acyclic));

  for (Case& c : cases) {
    TSensComputeOptions base;
    base.ghd = c.ghd ? &*c.ghd : nullptr;
    TSensComputeOptions no_path = base;
    no_path.prefer_path_algorithm = false;
    TSensComputeOptions keep = base;
    keep.keep_tables = true;
    TSensComputeOptions top_k = base;
    top_k.top_k = 1;
    const std::vector<std::pair<std::string, TSensComputeOptions>> variants =
        {{"default", base}, {"no-path", no_path}, {"keep", keep},
         {"top-k", top_k}};
    for (const auto& [variant, options] : variants) {
      const std::string context = c.name + "/" + variant;
      const ConjunctiveQuery& q = c.ex.query;
      auto plan = PlanSensitivity(q, options);
      ASSERT_TRUE(plan.ok()) << context << ": " << plan.status().ToString();
      EXPECT_EQ(plan->decomposition.source, c.source) << context;
      const bool path = c.path && options.prefer_path_algorithm &&
                        !options.keep_tables;
      EXPECT_EQ(plan->engine == SensitivityEngine::kPath, path) << context;

      auto direct =
          plan->engine == SensitivityEngine::kPath
              ? TSensPath(q, plan->path_order, c.ex.db, options)
              : TSensOverGhd(q, plan->decomposition.ghd(), c.ex.db, options);
      auto facade = ComputeLocalSensitivity(q, c.ex.db, options);
      ASSERT_TRUE(direct.ok()) << context << direct.status().ToString();
      ASSERT_TRUE(facade.ok()) << context << facade.status().ToString();
      ExpectBitIdentical(*facade, *direct, context);

      SensitivityCacheConfig config;
      config.max_delta_fraction = 1.0;
      SensitivityCache cache(config);
      auto cached = cache.Compute(q, c.ex.db, options);
      ASSERT_TRUE(cached.ok()) << context << cached.status().ToString();
      ExpectBitIdentical(*cached, *facade, context + " cache");

      Relation* first = c.ex.db.Find(q.atom(0).relation);
      first->AppendRow(std::vector<Value>(first->arity(), 1));
      auto repaired = cache.Compute(q, c.ex.db, options);
      ASSERT_TRUE(repaired.ok()) << context << repaired.status().ToString();
      auto fresh = ComputeLocalSensitivity(q, c.ex.db, options);
      ASSERT_TRUE(fresh.ok()) << context << fresh.status().ToString();
      ExpectBitIdentical(*repaired, *fresh, context + " after delta");
      // A single-atom LS is data-independent, so its delta is a hit.
      const bool repairable = options.top_k == 0 && !options.keep_tables;
      const bool constant = repairable && q.num_atoms() == 1;
      EXPECT_EQ(cache.stats().hits, constant ? 1u : 0u) << context;
      EXPECT_EQ(cache.stats().repairs, repairable && !constant ? 1u : 0u)
          << context;
      EXPECT_EQ(cache.stats().fallback_unsupported, repairable ? 0u : 1u)
          << context;
    }
  }
}

TEST(TSensTest, Figure3PerAtomSensitivities) {
  auto ex = MakeFigure3Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // From Section 4.1/4.2 reasoning: δmax per relation = 2, 4, 2, 2.
  EXPECT_EQ(result->atoms[0].max_sensitivity, Count(2));
  EXPECT_EQ(result->atoms[1].max_sensitivity, Count(4));
  EXPECT_EQ(result->atoms[2].max_sensitivity, Count(2));
  EXPECT_EQ(result->atoms[3].max_sensitivity, Count(2));
}

TEST(TSensTest, SingleRelationQueryHasSensitivityOne) {
  // "The problem is trivial when there is only one relation: LS = 1."
  Database db;
  auto* r = db.AddRelation("R", {"A", "B"});
  r->AppendRow({1, 2});
  r->AppendRow({3, 4});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count::One());
}

TEST(TSensTest, EmptyOtherRelationZeroesSensitivityOfJoinPartners) {
  auto ex = MakeFigure3Example();
  ex.db.Find("R4")->Clear();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Nothing can join through R4 except a new R4 tuple itself: paths into
  // R4 still exist (via d1/d2), so LS comes from inserting into R4.
  EXPECT_EQ(result->local_sensitivity, Count(2));
  EXPECT_EQ(result->MostSensitive()->relation, "R4");
}

TEST(TSensTest, DisconnectedComponentsScaleSensitivity) {
  Database db;
  auto* r = db.AddRelation("R", {"A"});
  auto* t = db.AddRelation("T", {"X"});
  r->AppendRow({1});
  r->AppendRow({2});
  t->AppendRow({7});
  t->AppendRow({8});
  t->AppendRow({9});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  // Adding one tuple to R creates |T| = 3 new outputs.
  EXPECT_EQ(result->local_sensitivity, Count(3));
  EXPECT_EQ(result->MostSensitive()->relation, "R");
}

TEST(TSensTest, SelectionPredicatesLowerSensitivity) {
  auto ex = MakeFigure3Example();
  // Restrict R3 to C = c1 rows... both R3 rows have C=c1, so restrict D:
  // keep only (c1, d1).
  Predicate p;
  p.var = ex.db.attrs().Lookup("D");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("d1");
  ex.query.AddPredicate(2, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  // Join output halves; R2(b1,c1) now yields 2*1 = 2.
  EXPECT_EQ(result->local_sensitivity, Count(2));
}

TEST(TSensTest, PredicateOnInsertCandidateFiltersMultiplicityTable) {
  auto ex = MakeFigure3Example();
  // Only allow R2 tuples with B = b2 — the high-sensitivity candidate
  // (b1, c1) is excluded, so R2's best drops to inserting (b2, c1): 0
  // incoming paths... b2 has no incoming paths from R1? R1 has (a1,b1),
  // (a2,b1) only, so B=b2 yields no joins: R2's max sensitivity is 0.
  Predicate p;
  p.var = ex.db.attrs().Lookup("B");
  p.op = Predicate::Op::kEq;
  p.rhs = ex.db.dict().Lookup("b2");
  ex.query.AddPredicate(1, p);
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->atoms[1].max_sensitivity, Count::Zero());
  // The query output is now empty, and every other relation's sensitivity
  // is 0 too (no surviving R2 rows to join through).
  EXPECT_EQ(result->local_sensitivity, Count::Zero());
}

TEST(TSensTest, SkipAtomsExcludesFromArgmax) {
  auto ex = MakeFigure3Example();
  TSensComputeOptions opts;
  opts.skip_atoms = {1};  // skip R2, whose max is 4
  auto result = ComputeLocalSensitivity(ex.query, ex.db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->atoms[1].skipped);
  EXPECT_EQ(result->local_sensitivity, Count(2));
}

TEST(TSensTest, MaterializeMostSensitiveTuple) {
  auto ex = MakeFigure1Example();
  auto result = ComputeLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(result.ok());
  auto tuple = MaterializeMostSensitiveTuple(*result, ex.query);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->first, 0);  // R1
  ASSERT_EQ(tuple->second.size(), 3u);
  EXPECT_EQ(tuple->second[0], ex.db.dict().Lookup("a2"));
  EXPECT_EQ(tuple->second[1], ex.db.dict().Lookup("b2"));
  // Inserting the materialized tuple changes |Q| by exactly LS.
  auto delta = NaiveTupleSensitivity(ex.query, ex.db, tuple->first,
                                     tuple->second);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, result->local_sensitivity);
}

TEST(TSensTest, RejectsSelfJoins) {
  Database db;
  db.AddRelation("E", {"A", "B"});
  ConjunctiveQuery q;
  q.AddAtom(db, "E", {"A", "B"});
  q.AddAtom(db, "E", {"B", "C"});
  auto result = ComputeLocalSensitivity(q, db);
  EXPECT_EQ(result.status().code(), Status::Code::kUnsupported);
}

TEST(TSensTest, TriangleQueryViaManualGhd) {
  Database db;
  auto* e0 = db.AddRelation("E0", {"A", "B"});
  auto* e1 = db.AddRelation("E1", {"B", "C"});
  auto* e2 = db.AddRelation("E2", {"C", "A"});
  // Triangles (1,2,3) and (1,2,4); edge (1,2) participates in both.
  e0->AppendRow({1, 2});
  e1->AppendRow({2, 3});
  e1->AppendRow({2, 4});
  e2->AppendRow({3, 1});
  e2->AppendRow({4, 1});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  auto ghd = BuildGhd(q, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok());
  TSensComputeOptions opts;
  opts.ghd = &*ghd;
  auto result = ComputeLocalSensitivity(q, db, opts);
  ASSERT_TRUE(result.ok());
  // Removing edge (1,2) from E0 kills both triangles.
  EXPECT_EQ(result->local_sensitivity, Count(2));
  EXPECT_EQ(result->MostSensitive()->relation, "E0");
  // Against the oracle.
  NaiveResult naive = *NaiveLocalSensitivity(q, db, {});
  EXPECT_EQ(naive.local_sensitivity, result->local_sensitivity);
}

TEST(TSensTest, StarQueryWithCyclicMultiplicityJoin) {
  // §5.2's hard acyclic example: Q :- R1(A,B,C), R2(A,B), R3(B,C), R4(C,A).
  // The multiplicity table of R1 is a triangle join of the three botjoins.
  Database db;
  auto* r1 = db.AddRelation("R1", {"A", "B", "C"});
  auto* r2 = db.AddRelation("R2", {"A", "B"});
  auto* r3 = db.AddRelation("R3", {"B", "C"});
  auto* r4 = db.AddRelation("R4", {"C", "A"});
  r1->AppendRow({1, 2, 3});
  r2->AppendRow({1, 2});
  r2->AppendRow({1, 2});  // duplicate: multiplicity 2
  r3->AppendRow({2, 3});
  r4->AppendRow({3, 1});
  ConjunctiveQuery q;
  q.AddAtom(db, "R1", {"A", "B", "C"});
  q.AddAtom(db, "R2", {"A", "B"});
  q.AddAtom(db, "R3", {"B", "C"});
  q.AddAtom(db, "R4", {"C", "A"});
  auto result = ComputeLocalSensitivity(q, db);
  ASSERT_TRUE(result.ok());
  // Inserting another copy of (1,2,3) into R1 joins 2*1*1 = 2 ways.
  EXPECT_EQ(result->local_sensitivity, Count(2));
  NaiveResult naive = *NaiveLocalSensitivity(q, db, {});
  EXPECT_EQ(naive.local_sensitivity, result->local_sensitivity);
}

TEST(TSensTest, TopKProducesUpperBound) {
  auto ex = MakeFigure3Example();
  TSensComputeOptions exact_opts;
  auto exact = ComputeLocalSensitivity(ex.query, ex.db, exact_opts);
  ASSERT_TRUE(exact.ok());
  for (size_t k = 1; k <= 4; ++k) {
    TSensComputeOptions opts;
    opts.top_k = k;
    auto approx = ComputeLocalSensitivity(ex.query, ex.db, opts);
    ASSERT_TRUE(approx.ok());
    EXPECT_GE(approx->local_sensitivity, exact->local_sensitivity)
        << "k=" << k;
    for (int i = 0; i < ex.query.num_atoms(); ++i) {
      EXPECT_GE(approx->atoms[i].max_sensitivity,
                exact->atoms[i].max_sensitivity)
          << "k=" << k << " atom=" << i;
    }
  }
}

TEST(TSensTest, KeepTablesMatchesNaivePerTuple) {
  auto ex = MakeFigure1Example();
  TSensComputeOptions opts;
  opts.keep_tables = true;
  auto result = ComputeLocalSensitivity(ex.query, ex.db, opts);
  ASSERT_TRUE(result.ok());
  for (int atom = 0; atom < ex.query.num_atoms(); ++atom) {
    auto sens = TupleSensitivities(*result, ex.query, ex.db, atom);
    ASSERT_TRUE(sens.ok());
    // Snapshot rows first: NaiveTupleSensitivity restores contents but may
    // permute row order, which would desynchronize row indices.
    const Relation* rel = ex.db.Find(ex.query.atom(atom).relation);
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < rel->NumRows(); ++r) {
      rows.push_back(rel->Row(r));
    }
    for (size_t row = 0; row < rows.size(); ++row) {
      auto naive = NaiveTupleSensitivity(ex.query, ex.db, atom, rows[row]);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ((*sens)[row], *naive)
          << "atom " << atom << " row " << row;
    }
  }
}

TEST(DownwardSensitivityTest, Figure1DeletionOnlyView) {
  auto ex = MakeFigure1Example();
  auto down = ComputeDownwardLocalSensitivity(ex.query, ex.db);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  // The global LS (4) comes from an *insertion*; the best deletion is
  // removing R1(a1,b1,c1) (or any tuple on the single join path): δ⁻ = 1.
  EXPECT_EQ(down->local_sensitivity, Count(1));
  auto full = ComputeLocalSensitivity(ex.query, ex.db);
  EXPECT_LE(down->local_sensitivity, full->local_sensitivity);
}

TEST(DownwardSensitivityTest, MatchesDeletionOracleOnRandomInstances) {
  Rng rng(90210);
  testing::RandomQuerySpec spec;
  spec.max_atoms = 4;
  spec.max_rows = 6;
  for (int trial = 0; trial < 10; ++trial) {
    auto ex = testing::MakeRandomAcyclicInstance(rng, spec);
    auto down = ComputeDownwardLocalSensitivity(ex.query, ex.db);
    ASSERT_TRUE(down.ok());

    // Deletion-only oracle: re-evaluate after removing one copy of each
    // distinct existing tuple.
    auto base = CountQuery(ex.query, ex.db);
    ASSERT_TRUE(base.ok());
    Count best = Count::Zero();
    for (int i = 0; i < ex.query.num_atoms(); ++i) {
      Relation* rel = ex.db.Find(ex.query.atom(i).relation);
      std::vector<std::vector<Value>> rows;
      for (size_t r = 0; r < rel->NumRows(); ++r) {
        rows.push_back(rel->Row(r));
      }
      for (size_t r = 0; r < rows.size(); ++r) {
        // Remove one copy (first occurrence), evaluate, restore.
        size_t pos = SIZE_MAX;
        for (size_t s = 0; s < rel->NumRows(); ++s) {
          if (CompareRows(rel->Row(s), rows[r]) == 0) {
            pos = s;
            break;
          }
        }
        rel->SwapRemoveRow(pos);
        auto removed = CountQuery(ex.query, ex.db);
        rel->AppendRow(rows[r]);
        ASSERT_TRUE(removed.ok());
        best = std::max(best, base->SaturatingSub(*removed));
      }
    }
    EXPECT_EQ(down->local_sensitivity, best)
        << ex.query.ToString(ex.db.attrs());
  }
}

TEST(DownwardSensitivityTest, RejectsTopK) {
  auto ex = MakeFigure1Example();
  TSensComputeOptions opts;
  opts.top_k = 2;
  EXPECT_EQ(ComputeDownwardLocalSensitivity(ex.query, ex.db, opts)
                .status()
                .code(),
            Status::Code::kUnsupported);
}

TEST(NaiveTest, Figure1MatchesPaper) {
  auto ex = MakeFigure1Example();
  auto result = NaiveLocalSensitivity(ex.query, ex.db, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count(4));
  EXPECT_EQ(result->argmax_atom, 0);
  EXPECT_TRUE(result->argmax_is_insertion);
}

TEST(NaiveTest, TupleSensitivityUpAndDown) {
  auto ex = MakeFigure1Example();
  Value a1 = ex.db.dict().Lookup("a1");
  Value b1 = ex.db.dict().Lookup("b1");
  Value c1 = ex.db.dict().Lookup("c1");
  std::vector<Value> existing{a1, b1, c1};
  auto delta = NaiveTupleSensitivity(ex.query, ex.db, 0, existing);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, Count(1));
}

}  // namespace
}  // namespace lsens
