// Cross-query plan cache bench: replays a randomized update stream over a
// K-query overlapping workload (chain queries sharing a relation prefix)
// twice — once through a single shared SensitivityCache, once through K
// independent caches on an identically rebuilt database replaying the
// same stream — and reports how much repair work canonical-subtree
// sharing removed. Writes the BENCH_plan_cache.json trajectory file
// ({"k", "shared_nodes", "node_repairs", "per_entry_repairs_baseline",
// "ns_per_delta", "baseline_ns_per_delta"}).
//
// Exits non-zero (failing the CTest smoke) when sharing did not engage:
// fewer than LSENS_PLAN_SHARE_MIN shared-node attaches, or the shared
// cache's node repairs not strictly below the independent caches' total —
// the sublinear-in-K contract the plan cache exists to provide. Results
// are cross-checked against the independent caches along the way.
//
// Knobs:
//   LSENS_PLAN_K          overlapping chain queries      (default 6, >= 2)
//   LSENS_PLAN_ROWS       rows per relation              (default 20000)
//   LSENS_PLAN_DOMAIN     join-key domain                (default 500)
//   LSENS_PLAN_UPDATES    update-stream length           (default 60)
//   LSENS_PLAN_SHARE_MIN  required shared-node attaches  (default 1)
//   LSENS_BENCH_PLAN_CACHE_JSON  output path (default
//                                BENCH_plan_cache.json)

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "sensitivity/incremental.h"
#include "sensitivity/tsens.h"

namespace lsens {
namespace {

// Chain query k joins relations R0..R(k+1) on consecutive shared
// variables; every query shares R0's projection and the top fold chain
// with all longer queries, so the store deduplicates the prefix.
std::vector<ConjunctiveQuery> MakeChainQueries(Database& db, long k) {
  std::vector<ConjunctiveQuery> queries;
  for (long q = 0; q < k; ++q) {
    ConjunctiveQuery query;
    for (long a = 0; a < q + 2; ++a) {
      query.AddAtom(db, "R" + std::to_string(a),
                    {"x" + std::to_string(a), "x" + std::to_string(a + 1)});
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

Database MakeChainDb(Rng& rng, long k, long rows, long domain) {
  Database db;
  for (long a = 0; a < k + 1; ++a) {
    Relation* rel = db.AddRelation("R" + std::to_string(a), {"c0", "c1"});
    rel->Reserve(static_cast<size_t>(rows));
    for (long r = 0; r < rows; ++r) {
      rel->AppendRow(
          {static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain))),
           static_cast<Value>(
               rng.NextBounded(static_cast<uint64_t>(domain)))});
    }
  }
  return db;
}

// One single-row mutation against a random relation; driven by its own
// Rng so the shared and baseline replays see the identical stream.
void MutateOne(Rng& rng, Database& db, long num_relations, long domain) {
  Relation* rel = db.Find(
      "R" + std::to_string(rng.NextBounded(
                static_cast<uint64_t>(num_relations))));
  const size_t n = rel->NumRows();
  if (n > 1 && rng.NextBounded(2) == 0) {
    rel->SwapRemoveRow(rng.NextBounded(n));
  } else {
    rel->AppendRow(
        {static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain))),
         static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain)))});
  }
}

int Run() {
  const long k = std::max(2L, bench::EnvInt("LSENS_PLAN_K", 6));
  const long rows = bench::EnvInt("LSENS_PLAN_ROWS", 20000);
  const long domain = bench::EnvInt("LSENS_PLAN_DOMAIN", 500);
  const long updates = bench::EnvInt("LSENS_PLAN_UPDATES", 60);
  const long share_min = bench::EnvInt("LSENS_PLAN_SHARE_MIN", 1);

  bench::Banner("Cross-query plan cache",
                "shared store vs per-query caches on an overlapping "
                "chain workload");

  const uint64_t seed = 20200614;
  Rng build_rng(seed);
  Database shared_db = MakeChainDb(build_rng, k, rows, domain);
  Database baseline_db = shared_db.Clone();
  std::vector<ConjunctiveQuery> queries = MakeChainQueries(shared_db, k);

  SensitivityCacheConfig config;
  config.max_delta_fraction = 1.0;
  SensitivityCache shared(config);
  std::vector<std::unique_ptr<SensitivityCache>> independent;
  for (long q = 0; q < k; ++q) {
    independent.push_back(std::make_unique<SensitivityCache>(config));
  }
  TSensComputeOptions options;

  // Prime both sides (misses + state capture), then replay the identical
  // stream through each, timing the K-query refresh after every delta.
  for (long q = 0; q < k; ++q) {
    LSENS_CHECK(shared.Compute(queries[q], shared_db, options).ok());
    LSENS_CHECK(
        independent[q]->Compute(queries[q], baseline_db, options).ok());
  }
  std::vector<double> shared_ns;
  std::vector<double> baseline_ns;
  Rng shared_stream(seed * 31 + 1);
  Rng baseline_stream(seed * 31 + 1);
  for (long u = 0; u < updates; ++u) {
    MutateOne(shared_stream, shared_db, k + 1, domain);
    MutateOne(baseline_stream, baseline_db, k + 1, domain);
    WallTimer shared_timer;
    std::vector<uint64_t> shared_ls(static_cast<size_t>(k));
    for (long q = 0; q < k; ++q) {
      auto r = shared.Compute(queries[q], shared_db, options);
      LSENS_CHECK(r.ok());
      shared_ls[static_cast<size_t>(q)] =
          r->local_sensitivity.ToUint64Saturated();
    }
    shared_ns.push_back(shared_timer.ElapsedSeconds() * 1e9);
    WallTimer baseline_timer;
    for (long q = 0; q < k; ++q) {
      auto r = independent[q]->Compute(queries[q], baseline_db, options);
      LSENS_CHECK(r.ok());
      // Same stream, same data: the shared cache must agree exactly.
      LSENS_CHECK(r->local_sensitivity.ToUint64Saturated() ==
                  shared_ls[static_cast<size_t>(q)]);
    }
    baseline_ns.push_back(baseline_timer.ElapsedSeconds() * 1e9);
  }

  const SensitivityCacheStats& stats = shared.stats();
  uint64_t baseline_node_repairs = 0;
  for (const auto& cache : independent) {
    baseline_node_repairs += cache->stats().node_repairs;
  }
  const double ns_per_delta = bench::Median(shared_ns);
  const double baseline_ns_per_delta = bench::Median(baseline_ns);
  std::printf(
      "k=%ld rows=%ld updates=%ld\n"
      "shared:   %10.0f ns/delta  node_repairs %" PRIu64
      "  shared_nodes %" PRIu64 "  attaches %" PRIu64
      "  repairs %" PRIu64 "  assemblies %" PRIu64 "\n"
      "baseline: %10.0f ns/delta  node_repairs %" PRIu64
      " (K independent caches)\n",
      k, rows, updates, ns_per_delta, stats.node_repairs,
      stats.shared_nodes, stats.shared_attaches, stats.repairs,
      stats.shared_assemblies, baseline_ns_per_delta, baseline_node_repairs);

  const char* path = std::getenv("LSENS_BENCH_PLAN_CACHE_JSON");
  if (path == nullptr) path = "BENCH_plan_cache.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f,
                 "{\"k\": %ld, \"shared_nodes\": %" PRIu64
                 ", \"node_repairs\": %" PRIu64
                 ", \"per_entry_repairs_baseline\": %" PRIu64
                 ", \"ns_per_delta\": %.1f, "
                 "\"baseline_ns_per_delta\": %.1f}\n",
                 k, stats.shared_nodes, stats.node_repairs,
                 baseline_node_repairs, ns_per_delta, baseline_ns_per_delta);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }

  // The gate: sharing must have engaged, and the shared store's total
  // repair work must undercut K per-entry passes over the same stream.
  if (stats.shared_attaches < static_cast<uint64_t>(share_min)) {
    std::fprintf(stderr,
                 "FAIL: %" PRIu64
                 " shared-node attaches < LSENS_PLAN_SHARE_MIN=%ld\n",
                 stats.shared_attaches, share_min);
    return 1;
  }
  if (stats.node_repairs >= baseline_node_repairs) {
    std::fprintf(stderr,
                 "FAIL: shared node_repairs %" PRIu64
                 " not below per-entry baseline %" PRIu64 "\n",
                 stats.node_repairs, baseline_node_repairs);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lsens

int main() { return lsens::Run(); }
