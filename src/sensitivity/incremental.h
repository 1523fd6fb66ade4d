#ifndef LSENS_SENSITIVITY_INCREMENTAL_H_
#define LSENS_SENSITIVITY_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sensitivity/tsens.h"
#include "storage/database.h"

namespace lsens {

class ExecContext;

// Tuning knobs for SensitivityCache.
struct SensitivityCacheConfig {
  // Change-log capacity the cache installs on every relation a cached
  // query reads (only when the relation is not already logging). Deltas
  // larger than the retained window force a full recompute.
  size_t changelog_capacity = 8192;

  // Repair is only attempted when the pending change count is at most this
  // fraction of (current total rows + pending changes) across the live
  // source tables — the pre-delta size, so delete-heavy streams that
  // shrink or even empty a relation still measure the delta against the
  // work the repair will do rather than against the shrunken size. Past
  // the fraction, a from-scratch recompute is assumed cheaper than
  // group-by-group patching. Clamped to [0, 1] at construction; a floor of
  // one change keeps single-row updates repairable at any setting.
  double max_delta_fraction = 0.05;

  // Cached (query, options) entries kept; least-recently-used beyond this.
  size_t max_entries = 16;

  // Byte budget for the repairable DynTable state held in the shared node
  // store (0 = unlimited). When the total exceeds it, shared nodes are
  // *spilled* at node granularity — stale nodes first, then least-recently-
  // used — by releasing their table storage while the node's recipe (and
  // every entry's memoized result) stays, so unchanged data still hits. A
  // spilled node reloads from the evaluated table on the next dependent
  // entry's recompute.
  size_t max_state_bytes = 0;
};

// Counter block exposed for tests and reporting. The same events are also
// recorded as pseudo-operators on the caller's ExecContext ("cache.hit",
// "cache.repair", "cache.shared_assembly", "cache.node_repair",
// "cache.miss", "cache.fallback", "cache.spill") so RenderExecStats shows
// cache behavior next to the join kernels.
struct SensitivityCacheStats {
  uint64_t hits = 0;     // versions matched: cached result returned as-is
  uint64_t repairs = 0;  // this entry's pending delta repaired and returned
  uint64_t misses = 0;   // first sight of this (query, options)
  uint64_t fallback_stale = 0;        // change log could not answer
  uint64_t fallback_large_delta = 0;  // delta over max_delta_fraction
  uint64_t fallback_unsupported = 0;  // shape not repairable, recomputed
  uint64_t fallback_spilled = 0;      // state spilled by the byte budget
  uint64_t delta_rows = 0;   // change-log entries consumed by repairs
  uint64_t repair_rows = 0;  // rows touched by repairs (incl. rescans)
  uint64_t spills = 0;       // shared-node tables dropped by the budget
  uint64_t state_bytes = 0;  // current DynTable state held, in bytes

  // Cross-query sharing. Every maintained table lives in a store keyed by
  // canonical subtree signature (DataflowNode::sig); entries whose
  // repair DAGs overlap attach to the same nodes instead of duplicating
  // them, and one delta pass repairs each node exactly once no matter how
  // many entries depend on it.
  uint64_t shared_nodes = 0;      // gauge: distinct canonical nodes held
  uint64_t shared_attaches = 0;   // entry acquisitions that reused a node
  uint64_t node_repairs = 0;      // store nodes patched by delta passes
  uint64_t shared_assemblies = 0;  // entries refreshed purely from nodes
                                   // another entry's pass already repaired
};

// Memoizes ComputeLocalSensitivity results keyed by (query fingerprint,
// per-relation versions) and keeps the tables of the plan's dataflow
// (SensitivityPlan::dataflow: per-atom projections S_a, the ⊥/⊤ fold
// tables, materialized bag and multiplicity-component joins, per-tree join
// totals) in incrementally repairable form, one table per dataflow node. A
// ⊥/⊤ table or tree total that would copy its only input is that input
// (BuildGhdDataflow), so a source can also be a link table or carry a tree
// total, and no table is maintained twice. Every query shape the engines
// evaluate is repairable — acyclic trees and paths, attribute-sharing
// multiplicity components, disconnected forests (cross-tree scale factors
// re-multiplied from maintained per-tree totals), and cyclic queries via
// searched or explicitly supplied GHDs. When the underlying relations
// change between calls, the cache pulls the row-level delta from each
// relation's change log and moves only the affected join-key groups (or
// join rows) by their changed terms instead of rebuilding every table,
// falling back to a full recompute only when the delta is large, the log
// window was exceeded, a count saturates, or the options ask for what
// repair deliberately does not model: top-k approximation stays a
// version-memoized fallback. Results are bit-identical to the
// from-scratch engines in every case.
//
// Cross-query plan sharing: maintained tables are not owned per entry but
// by a store keyed by canonical subtree signature — an order-normalized,
// attribute-id-free description of the subtree (relation + keep columns +
// predicates for sources; child signatures + glue columns for fold nodes)
// that embeds child signatures verbatim, so equal signatures imply
// identical contents and column order by induction. Entries whose queries
// overlap structurally (same relations through the same projections —
// e.g. a workload of queries sharing a join prefix) attach to the same
// nodes refcounted; a single delta pass (SyncStore) walks the store once
// in dependency order and repairs each node exactly once, updating every
// attached entry's max/argmax trackers as it goes, so repair work scales
// with the number of distinct subtrees rather than the number of cached
// queries. Queries that order their variables differently derive different
// signatures and simply do not share (never incorrectly shared). Nodes
// that cannot be repaired (unanswerable log, over-budget delta,
// saturation, byte-budget spill) are marked stale with a reason; entries
// touching a stale node fall back to a full recompute, which reloads the
// node from the table the evaluator computes for it, for every dependent
// entry at once.
//
// A cache instance serves one Database: relations are addressed by name
// and validated by version, so feeding relations of equal names/versions
// from a different database is undefined. Not thread-safe; use one cache
// per serving thread (results are deterministic, so caches never disagree).
class SensitivityCache {
 public:
  explicit SensitivityCache(SensitivityCacheConfig config = {});
  ~SensitivityCache();
  SensitivityCache(const SensitivityCache&) = delete;
  SensitivityCache& operator=(const SensitivityCache&) = delete;

  // Compute-or-reuse LS(Q, D). `db` is non-const only so the cache can
  // install change logs on the query's relations; contents are never
  // modified. `options.join` supplies the stats context for full computes
  // exactly as the facade does, and for the serial delta repair pass.
  StatusOr<SensitivityResult> Compute(const ConjunctiveQuery& q, Database& db,
                                      const TSensComputeOptions& options = {});

  const SensitivityCacheStats& stats() const { return stats_; }
  void ResetStats() {
    uint64_t nodes = stats_.shared_nodes;
    uint64_t bytes = stats_.state_bytes;
    stats_ = {};
    stats_.shared_nodes = nodes;  // gauges, not counters
    stats_.state_bytes = bytes;
  }

  // Drops every entry and every shared node (stats are kept; gauges reset).
  void Clear();

  // Canonical fingerprint of (query, result-affecting options): the cache's
  // entry key, and the server's key for registered queries. The execution
  // context (join.ctx) is excluded — results do not depend on it.
  static std::string Fingerprint(const ConjunctiveQuery& q,
                                 const TSensComputeOptions& options);

 private:
  struct Entry;
  struct Store;  // canonical-signature -> shared node map (incremental.cc)

  // One global delta pass: pulls every live source node's pending change-
  // log window, applies it, and moves the affected keys' counts through
  // the store's fold nodes in dependency order — each node exactly once,
  // updating all attached trackers and running totals. Nodes it cannot
  // repair are marked stale (with a reason) instead of aborting the pass.
  void SyncStore(Database& db, ExecContext& ctx);

  // Spills shared-node tables — stale first, then LRU — until the DynTable
  // byte total fits config_.max_state_bytes (no-op when the budget is 0).
  void EnforceStateBudget(ExecContext& ctx);

  // Drops store nodes no entry references anymore (post eviction/clear).
  void SweepStore();

  SensitivityCacheConfig config_;
  SensitivityCacheStats stats_;
  std::vector<std::unique_ptr<Entry>> entries_;  // LRU by last_used tick
  std::unique_ptr<Store> store_;
  uint64_t tick_ = 0;
};

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_INCREMENTAL_H_
