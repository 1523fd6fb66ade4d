#ifndef LSENS_EXEC_GROUP_MAX_H_
#define LSENS_EXEC_GROUP_MAX_H_

#include <optional>

#include "exec/counted_relation.h"

namespace lsens {

class ExecContext;

// The max and argmax of γ_group(a ⋈ b) without building the join: the
// one row of GroupBySum(NaturalJoin(a, b), group) that MaxCount() and
// ArgMaxRow() would pick, returned as a 0-or-1-row relation over `group`
// (empty when the join is empty). The argmax is the lexicographically
// first row attaining the max, exactly as ArgMaxRow reports it on the
// normalized table. Runs in O(|a| + |b|) plus two key sorts:
//
//   1. Pre-aggregate each side onto (side ∩ group) ∪ K, K = the join key.
//      Attributes outside group ∪ K live on one side only, so γ_group of
//      the join is unchanged; saturating sums and products of
//      non-negative counts equal min(true value, Count::Max()) in any
//      evaluation order, so the counts are bit-identical too.
//   2. Require the join-to-group mapping to be injective: K ⊆ group, or
//      one pre-aggregated side is unique on its group columns (an FK-PK
//      dependency, e.g. CK → NK in Customer). Then every group of the
//      table holds exactly one joined pair, whose count is the product
//      of the two side counts.
//   3. Merge the sides by K, multiplying the per-key side maxima.
//   4. Build the argmax from the per-key, per-side lexicographically
//      first maximal rows, interleaved in the attribute order of `group`.
//
// Returns nullopt when the shortcut does not apply: the mapping is not
// provably injective, a side carries a top-k default, or the max
// saturates at Count::Max() (pairs below the per-side maxima may then
// attain it too, so step 4 would not find the first one). Callers then
// materialize the table. `group` must be a subset of a.attrs() ∪
// b.attrs(). Recorded as the "group_max" operator row.
std::optional<CountedRelation> GroupMax(const CountedRelation& a,
                                        const CountedRelation& b,
                                        const AttributeSet& group,
                                        ExecContext* ctx = nullptr);

}  // namespace lsens

#endif  // LSENS_EXEC_GROUP_MAX_H_
