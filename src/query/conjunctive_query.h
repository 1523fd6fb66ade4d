#ifndef LSENS_QUERY_CONJUNCTIVE_QUERY_H_
#define LSENS_QUERY_CONJUNCTIVE_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/attribute_set.h"
#include "storage/database.h"
#include "storage/value.h"

namespace lsens {

// A per-tuple selection predicate `var op constant` attached to an atom
// (§5.4 "Selections": conditions that can be applied to each tuple
// individually).
struct Predicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

  AttrId var = kInvalidAttr;
  Op op = Op::kEq;
  Value rhs = 0;

  bool Eval(Value lhs) const;

  // Some value from the full (integer) domain satisfying this predicate.
  // Used when extrapolating exclusive attributes of a most-sensitive tuple.
  Value SatisfyingValue() const;
};

// One atom R(x1,...,xk) of a conjunctive query: binds every column of the
// physical relation `relation` to a logical variable, positionally.
struct Atom {
  std::string relation;
  std::vector<AttrId> vars;          // size == relation arity, no repeats
  std::vector<Predicate> predicates;  // each predicate.var must be in vars

  // Sorted set of this atom's variables.
  AttributeSet VarSet() const;
};

// --- Canonical subtree signatures (cross-query plan cache) ----------------
// Order-normalized, attribute-id-free descriptions of the repair-DAG
// subtrees the incremental sensitivity subsystem maintains (S_a source
// projections and the ⊥/⊤ fold tables). Two queries that bind the same
// relations through structurally identical subtrees — same relation-local
// keep columns, same (sorted) predicates, same child subtrees glued through
// the same column pattern — produce byte-identical signatures, so
// SensitivityCache can key one shared DynTable per canonical subtree and
// let a single delta repair every dependent query. Signatures embed child
// signatures verbatim (length-prefixed), making equality exact by
// induction: equal signatures imply identical table contents *and* column
// order, with no hash-collision caveat.

// Signature of S_a = γ_keep(σ_pred(R_a)): the relation name, the relation
// column backing each keep attribute (in keep order — sharing requires the
// same column order, so table layouts line up without permutations), and
// the predicates as sorted (column, op, rhs) triples. `keep` must be a
// subset of the atom's variables.
std::string CanonicalSourceSignature(const Atom& atom,
                                     const AttributeSet& keep);

// One child subtree reference inside a composite signature: the child's
// full signature plus the column pattern gluing it to the parent (group
// nodes: the driver columns carrying its key; join nodes: the output scope
// column backing each child column).
struct CanonicalChild {
  std::string sig;
  std::vector<int> cols;
};

// Signature of a group node out = γ_group(driver ⋈ inputs...): the driver's
// signature, the driver columns forming the output key (in output order),
// and the inputs as a sorted multiset.
std::string CanonicalGroupSignature(const std::string& driver_sig,
                                    const std::vector<int>& group_cols,
                                    std::vector<CanonicalChild> inputs);

// Signature of a join node out = r⋈(pieces...): the pieces (signature plus
// scope-column pattern) as a sorted multiset.
std::string CanonicalJoinSignature(std::vector<CanonicalChild> pieces);

// A full conjunctive query without projection, Q(vars) :- R1(..),...,Rm(..),
// evaluated as a counting query under bag semantics (Section 2 of the
// paper). Selection predicates may be attached per atom (§5.4).
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;

  // Convenience builder. `vars` are attribute names interned in db.attrs().
  // Returns the atom index.
  int AddAtom(Database& db, const std::string& relation,
              const std::vector<std::string>& var_names);
  int AddAtom(Atom atom);

  void AddPredicate(int atom_index, Predicate pred);

  const std::vector<Atom>& atoms() const { return atoms_; }
  const Atom& atom(int i) const { return atoms_[static_cast<size_t>(i)]; }
  int num_atoms() const { return static_cast<int>(atoms_.size()); }

  // All variables of the query (sorted).
  AttributeSet AllVars() const;

  // Variables appearing in >= 2 atoms (sorted).
  AttributeSet SharedVars() const;

  // Shared variables of one atom: vars(i) ∩ SharedVars().
  AttributeSet SharedVarsOf(int atom_index) const;

  // Variables exclusive to atom i (appear in no other atom).
  AttributeSet ExclusiveVarsOf(int atom_index) const;

  // Structural checks usable by any evaluator: relations exist, arities
  // match, vars unique within an atom, predicates reference atom vars.
  Status Validate(const Database& db) const;

  // Additional restrictions of the TSens algorithms (§5): no self-joins,
  // i.e. no physical relation appears in two atoms.
  Status ValidateForSensitivity(const Database& db) const;

  // Datalog-ish rendering for logs and error messages.
  std::string ToString(const AttributeCatalog& attrs) const;

 private:
  std::vector<Atom> atoms_;
};

}  // namespace lsens

#endif  // LSENS_QUERY_CONJUNCTIVE_QUERY_H_
