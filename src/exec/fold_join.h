#ifndef LSENS_EXEC_FOLD_JOIN_H_
#define LSENS_EXEC_FOLD_JOIN_H_

#include <vector>

#include "exec/join.h"

namespace lsens {

// Joins a set of counted relations into one. Under kAuto, when a
// non-defaulted piece's attributes are the union of all the pieces'
// attributes (so it covers every other piece — the shape of the paper's
// botjoins, topjoins and multiplicity tables, where an atom's projection
// meets tables grouped on its link attributes), the smallest such piece
// drives one k-way CoveringJoin over all the others: no join order, no
// counts and no intermediate relations.
//
// Otherwise the join order is chosen greedily: the accumulator starts at
// the piece with the fewest rows (among non-defaulted pieces) and each
// step picks the remaining piece minimizing the *exact* result-row count
// (computed by EstimateJoinRows), preferring attribute-sharing pieces over
// cross products. A step with a single candidate takes it without
// counting; otherwise the winner's count is handed to its join
// (NaturalJoinSized), which then does not count again. Defaulted (top-k)
// pieces are only joined once the accumulator covers their attributes;
// the non-defaulted pieces must cover them (CHECK-failed otherwise). Both
// paths produce the same relation, bit for bit.
//
// This is the workhorse behind the paper's r⋈(X1, ..., Xp) expressions:
// botjoins/topjoins (Eq. 7–8), multiplicity tables (Eq. 6, including the
// potentially cyclic joins of §5.2's hard example), bag materialization for
// GHDs, and query-count evaluation.
//
// An empty `pieces` yields the unit relation.
CountedRelation FoldJoin(std::vector<const CountedRelation*> pieces,
                         const JoinOptions& options = {});

// FoldJoin stopped one step early: `prefix` folds every piece except
// `last`, the one the greedy order joins last (always the greedy order,
// never the covering fold), so that
// NaturalJoin(prefix, *last) == FoldJoin(pieces) bit for bit. Lets a
// caller that needs only an aggregate of the full fold (GroupMax) skip
// materializing it. Needs at least two pieces; `last` points into the
// caller's pieces. Recorded as one "fold_join" call whose rows_out is the
// prefix's row count.
struct FoldSplit {
  CountedRelation prefix;
  const CountedRelation* last;
};
FoldSplit FoldJoinButLast(std::vector<const CountedRelation*> pieces,
                          const JoinOptions& options = {});

}  // namespace lsens

#endif  // LSENS_EXEC_FOLD_JOIN_H_
