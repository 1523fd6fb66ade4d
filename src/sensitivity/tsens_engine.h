#ifndef LSENS_SENSITIVITY_TSENS_ENGINE_H_
#define LSENS_SENSITIVITY_TSENS_ENGINE_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/fold_join.h"
#include "query/ghd.h"
#include "sensitivity/result.h"
#include "storage/database.h"

namespace lsens {

// Options shared by all TSens algorithm variants.
struct TSensOptions {
  // Join kernel selection and the stats context. The engines run serially
  // on that one context.
  JoinOptions join;

  // §5.4 "Efficient approximations": when > 0, botjoins and topjoins keep
  // only the top_k highest-count rows plus the k-th largest count as a
  // default for the remaining active values. All reported sensitivities
  // become upper bounds (AtomSensitivity::approximate is set when a table
  // was affected).
  size_t top_k = 0;

  // Atoms whose multiplicity table should not be computed, e.g. relations
  // whose query variables contain a superkey so δ <= 1 by construction (the
  // paper skips Lineitem in q3 this way). Skipped atoms report
  // max_sensitivity 0 and do not participate in the argmax.
  std::vector<int> skip_atoms;
};

// The dataflow of Algorithms 1 and 2, written down once: the nodes the cold
// engines evaluate (EvaluateDataflow) and SensitivityCache maintains and
// repairs, and the per-atom assembly that reads them. Built by
// BuildGhdDataflow; PlanSensitivity carries the one a plan runs.
struct DataflowNode {
  enum class Kind {
    kSource,  // S_a = γ_attrs(σ_pred(R_a)) for atom `atom`
    kGroup,   // γ_attrs(r⋈(children)): children[0] drives, and the others
              // are keyed on columns of it
    kJoin,    // r⋈(children), over the union of their attributes
  };
  Kind kind = Kind::kSource;
  AttributeSet attrs;
  // Canonical subtree signature (format: sensitivity/tsens_engine.cc): the
  // key under which SensitivityCache shares the node's table across queries.
  std::string sig;
  int atom = -1;              // kSource
  std::vector<int> children;  // earlier nodes
  // A ⊥/⊤ table: under top_k the recursions fold a truncated copy of it. A
  // source or join can be one (AddGroup's identity rule).
  bool link = false;
  // Part of one atom's multiplicity table: reads untruncated tables.
  bool component = false;
};

// One atom's multiplicity table T_a: the cross product of its
// attribute-connectivity components, scaled (§5.4) by the total of every
// other tree of the forest.
struct DataflowAtom {
  int atom = -1;
  int tree = 0;
  bool skipped = false;         // TSensOptions::skip_atoms; no components
  std::vector<int> components;  // node per component; -1 = the unit relation
};

struct SensitivityDataflow {
  std::vector<DataflowNode> nodes;     // dependency order
  std::vector<DataflowAtom> assembly;  // every atom, in atom order
  // The node whose TotalCount is tree t's join size, per tree; empty for a
  // connected forest, which scales by nothing.
  std::vector<int> tree_totals;

  // Append a node, deriving its attributes and signature; return its index.
  // A group over one child onto all of that child's columns is the child
  // itself: AddGroup returns the child, marked `link` if asked, and appends
  // nothing.
  int AddSource(const ConjunctiveQuery& q, int atom, AttributeSet keep);
  int AddGroup(std::vector<int> children, AttributeSet group, bool link,
               bool component);
  int AddJoin(std::vector<int> children, bool component);
};

// Algorithm 2 over a GHD (acyclic queries use the trivial width-1 GHD):
// sources S_a = γ_shared(a)(σ(R_a)), then per tree ⊥ leaves to root and ⊤
// root to leaves (see TSensOverGhd), the root fold only when the forest has
// >= 2 trees, then per atom one node per multiplicity-table component. A
// single-atom bag folds in driver form (its S table drives, the other
// tables are keyed on its columns); a multi-atom bag folds as a join node
// grouped by a group node. No group node copies its only child: a
// single-atom leaf's ⊥, the ⊤ under a single-atom root with one child and a
// single-atom tree's total are its S table, and a multi-atom bag's ⊥ that
// keeps every column of the bag's join is that join node.
//
// On a path query's join tree this is Algorithm 1, in O(n log n) and
// independent of the output size: the ⊥ chain and the ⊤ chain are running
// aggregations toward and away from the root over the single link
// attributes, and each T_a splits into attribute-disjoint components, one
// per tree neighbour (⊤(a) from its parent, ⊥(c) from each child c). So
// δ_a is the product of their maxima, and the cross product J × K of the
// paper's step III is never built.
StatusOr<SensitivityDataflow> BuildGhdDataflow(
    const ConjunctiveQuery& q, const Ghd& ghd,
    const std::vector<int>& skip_atoms);

// The max of one multiplicity-table component after the atom's predicates,
// and its first attaining row (component attribute order). The row is
// shorter than the component's attributes when unknown (only a top-k
// default attains the max, or the component is empty).
struct ComponentMax {
  Count max = Count::Zero();
  std::vector<Value> argmax;
};

// Runs `df` over `db`. Under top_k the ⊥/⊤ recursions fold truncated copies
// of link tables; every atom and every tree total reads the untruncated
// tables, so the §5.4 scale factors stay exact. With `tables`, every node's
// untruncated table is moved there (by node index) for a caller that reads
// or maintains them. Otherwise a component grouping a join that no
// predicate touches is reduced to its max row (GroupMax) instead of being
// materialized, S and ⊥/⊤ tables live for the whole run, and a join or
// component table is dropped after the last node or atom reading it.
StatusOr<SensitivityResult> EvaluateDataflow(
    const ConjunctiveQuery& q, const SensitivityDataflow& df,
    const Database& db, const TSensOptions& options,
    std::vector<CountedRelation>* tables = nullptr);

// The result of `df` from its per-component maxima (`part(u, c)` for slot c
// of df.assembly[u]) and its tree totals: per atom the product of the
// scale and the maxima, the stitched argmax, and the winner reduction.
SensitivityResult AssembleSensitivity(
    const ConjunctiveQuery& q, const SensitivityDataflow& df,
    std::span<const Count> tree_totals,
    const std::function<const ComponentMax&(size_t, size_t)>& part);

// §5.4 scale factor of an atom in `tree`: a tuple added there combines with
// every full result of the other trees.
Count TreeScale(std::span<const Count> tree_totals, int tree);

// Sets result's local sensitivity and argmax atom from its atoms' maxima:
// the lowest-index atom attaining the largest nonzero maximum.
void ReduceWinner(SensitivityResult* result);

// TSens over a generalized hypertree decomposition (Algorithm 2 and its
// §5.4 GHD extension; acyclic queries use the trivial width-1 GHD).
//
// Per tree of the decomposition forest:
//   ⊥(v) = γ_{vars(v) ∩ vars(parent)} r⋈( {S_a : a ∈ v}, {⊥(c) : c child} )
//   ⊤(v) = γ_{vars(v) ∩ vars(parent)} r⋈( {S_a : a ∈ parent}, ⊤(parent),
//                                          {⊥(s) : s sibling} )
//   T_a  = γ_{shared(a)}             r⋈( ⊤(bag(a)), {⊥(c) : c child},
//                                          {S_b : b ∈ bag(a), b ≠ a} )
// where S_a is atom a's relation projected onto its shared variables with
// multiplicity counts (exclusive attributes contribute their multiplicity
// and are reported as free values of the most sensitive tuple).
//
// Disconnected queries (§5.4): T_a counts are scaled by the product of the
// other components' total join sizes.
//
// The T_a expression can factor into attribute-disjoint groups (always the
// case for path queries: ⊤ and ⊥ share nothing). The engine exploits
// γ_{X∪Y}(A × B) = γ_X(A) × γ_Y(B) to avoid materializing such cross
// products. Builds BuildGhdDataflow and runs EvaluateDataflow.
StatusOr<SensitivityResult> TSensOverGhd(const ConjunctiveQuery& q,
                                         const Ghd& ghd, const Database& db,
                                         const TSensOptions& options = {});

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_TSENS_ENGINE_H_
