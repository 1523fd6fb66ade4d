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
