#ifndef LSENS_EXEC_JOIN_H_
#define LSENS_EXEC_JOIN_H_

#include <span>

#include "exec/counted_relation.h"

namespace lsens {

class ExecContext;

// Natural-join algorithm selection. kAuto runs a covering join whenever
// one side's attributes contain the other's (the shape of every
// topjoin/botjoin and multiplicity-table join: an atom's projection with
// a table grouped on its link attributes): one merge-walk pass over the
// covering side, with no size count, no hash table and no second probe
// (CoveringJoin below). Other keyed joins go to a cost-based pick: it
// weighs hash build/probe against sort-merge, crediting sides that are
// already ordered on the join key (a sorted merge needs no sort at all),
// and consults the exact output size from the estimator only when that
// size can change the pick. The kernel that ran is recorded on the
// context as join.covering, join.hash, join.sort_merge or join.cross.
// kHash / kSortMerge force one kernel; every kernel produces the same
// normalized output (the paper describes its algorithms with sort-merge
// joins, so that kernel is also the cross-check oracle).
enum class JoinAlgorithm { kAuto, kHash, kSortMerge };

struct JoinOptions {
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
  // Execution context supplying scratch arenas and collecting operator
  // stats. Null = the thread-local default context.
  ExecContext* ctx = nullptr;
};

// The paper's r⋈ operator: natural join on the shared attributes with
// multiplicity (cnt) propagation by product. Output attributes are the
// sorted union; an empty intersection yields a cross product. The output
// is always normalized.
//
// Covering joins — a non-empty key with one side's attributes covering
// the other's — run under kAuto as CoveringJoin(covering, {covered}) (with
// equal attributes, the smaller side covers).
//
// Defaulted (top-k truncated) inputs: at most one side may carry a
// default_count, and that side's attributes must be covered by the other
// side's, so unmatched rows of the covering side pick up the default
// multiplier and no unbounded row set needs materializing. Such joins run
// the covering kernel under every algorithm. Violations CHECK-fail;
// callers arrange join orders accordingly.
CountedRelation NaturalJoin(const CountedRelation& a, const CountedRelation& b,
                            const JoinOptions& options = {});

// The natural join of `covering` with every relation in `covered`, each
// of whose attributes are a subset of covering's: covering's rows, in
// order, each with its count times its match on every covered side (a
// side's default_count() when the row's key is absent there, zero unless
// the side is top-k truncated). One multiplier per covering row takes each
// side's match in turn, rows already at zero are skipped, and one
// FilterScale writes the output, so a normalized covering side needs no
// Normalize. Each side is matched by a merge walk: directly over
// covering's rows when its key leads covering's columns and covering is
// normalized, else over one PackedSort of covering's rows on that key,
// shared by every side on the same key columns. An unnormalized covered
// side is first ordered with SortRowsBy and its runs summed. No hash
// table is built and nothing is counted. `covering` must not be
// defaulted. The output is normalized; it is the pairwise fold of the
// same relations, bit for bit. Recorded as one "join.covering" call
// (build_rows 0).
CountedRelation CoveringJoin(const CountedRelation& covering,
                             std::span<const CountedRelation* const> covered,
                             ExecContext* ctx = nullptr);

// NaturalJoin(a, b, options) for a caller that already holds the join's
// exact size, which it then does not count again. Precondition:
// `known_rows` == EstimateJoinRows(a, b) (ignored by covering joins,
// defaulted sides and joins with no shared attribute). FoldJoin passes
// the count its greedy order computed.
CountedRelation NaturalJoinSized(const CountedRelation& a,
                                 const CountedRelation& b, size_t known_rows,
                                 const JoinOptions& options = {});

// Exact number of result rows NaturalJoin(a, b) would produce, computed in
// O(|a| + |b|) with a flat hash-group table on the smaller side (key
// verification included, so the count is exact even under hash
// collisions). Used by FoldJoin's greedy join order when more than one
// candidate can win, and by the cost-based pick of a non-covering join
// when sort-merge does not win regardless of output size; covering joins
// never count.
size_t EstimateJoinRows(const CountedRelation& a, const CountedRelation& b,
                        ExecContext* ctx = nullptr);

}  // namespace lsens

#endif  // LSENS_EXEC_JOIN_H_
