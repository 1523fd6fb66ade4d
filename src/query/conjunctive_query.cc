#include "query/conjunctive_query.h"

#include <limits>
#include <map>
#include <set>
#include <utility>

namespace lsens {

bool Predicate::Eval(Value lhs) const {
  switch (op) {
    case Op::kEq:
      return lhs == rhs;
    case Op::kNe:
      return lhs != rhs;
    case Op::kLt:
      return lhs < rhs;
    case Op::kLe:
      return lhs <= rhs;
    case Op::kGt:
      return lhs > rhs;
    case Op::kGe:
      return lhs >= rhs;
  }
  return false;
}

Value Predicate::SatisfyingValue() const {
  switch (op) {
    case Op::kEq:
      return rhs;
    case Op::kNe:
      return rhs == 0 ? 1 : rhs - 1;
    case Op::kLt:
      return rhs == std::numeric_limits<Value>::min() ? rhs : rhs - 1;
    case Op::kLe:
      return rhs;
    case Op::kGt:
      return rhs == std::numeric_limits<Value>::max() ? rhs : rhs + 1;
    case Op::kGe:
      return rhs;
  }
  return rhs;
}

AttributeSet Atom::VarSet() const { return MakeAttributeSet(vars); }

int ConjunctiveQuery::AddAtom(Database& db, const std::string& relation,
                              const std::vector<std::string>& var_names) {
  Atom a;
  a.relation = relation;
  a.vars.reserve(var_names.size());
  for (const auto& name : var_names) a.vars.push_back(db.attrs().Intern(name));
  return AddAtom(std::move(a));
}

int ConjunctiveQuery::AddAtom(Atom atom) {
  atoms_.push_back(std::move(atom));
  return static_cast<int>(atoms_.size()) - 1;
}

void ConjunctiveQuery::AddPredicate(int atom_index, Predicate pred) {
  atoms_[static_cast<size_t>(atom_index)].predicates.push_back(pred);
}

AttributeSet ConjunctiveQuery::AllVars() const {
  std::vector<AttrId> all;
  for (const auto& a : atoms_) {
    all.insert(all.end(), a.vars.begin(), a.vars.end());
  }
  return MakeAttributeSet(std::move(all));
}

AttributeSet ConjunctiveQuery::SharedVars() const {
  std::map<AttrId, int> occurrences;
  for (const auto& a : atoms_) {
    for (AttrId v : a.VarSet()) ++occurrences[v];
  }
  AttributeSet shared;
  for (const auto& [v, n] : occurrences) {
    if (n >= 2) shared.push_back(v);
  }
  return shared;  // map iteration is sorted
}

AttributeSet ConjunctiveQuery::SharedVarsOf(int atom_index) const {
  return Intersect(atoms_[static_cast<size_t>(atom_index)].VarSet(),
                   SharedVars());
}

AttributeSet ConjunctiveQuery::ExclusiveVarsOf(int atom_index) const {
  return Difference(atoms_[static_cast<size_t>(atom_index)].VarSet(),
                    SharedVars());
}

Status ConjunctiveQuery::Validate(const Database& db) const {
  if (atoms_.empty()) return Status::InvalidArgument("query has no atoms");
  for (size_t i = 0; i < atoms_.size(); ++i) {
    const Atom& a = atoms_[i];
    const Relation* rel = db.Find(a.relation);
    if (rel == nullptr) {
      return Status::NotFound("atom " + std::to_string(i) + ": relation '" +
                              a.relation + "' not in database");
    }
    if (a.vars.size() != rel->arity()) {
      return Status::InvalidArgument(
          "atom " + std::to_string(i) + ": binds " +
          std::to_string(a.vars.size()) + " vars but relation '" +
          a.relation + "' has arity " + std::to_string(rel->arity()));
    }
    AttributeSet distinct = a.VarSet();
    if (distinct.size() != a.vars.size()) {
      return Status::Unsupported("atom " + std::to_string(i) +
                                 ": repeated variable within one atom");
    }
    for (const Predicate& p : a.predicates) {
      if (!Contains(distinct, p.var)) {
        return Status::InvalidArgument(
            "atom " + std::to_string(i) +
            ": predicate references a variable not bound by the atom");
      }
    }
  }
  return Status::OK();
}

Status ConjunctiveQuery::ValidateForSensitivity(const Database& db) const {
  LSENS_RETURN_IF_ERROR(Validate(db));
  std::set<std::string> seen;
  for (const auto& a : atoms_) {
    if (!seen.insert(a.relation).second) {
      return Status::Unsupported(
          "self-joins are not supported by TSens (relation '" + a.relation +
          "' appears twice); materialize a copy under a different name");
    }
  }
  return Status::OK();
}

std::string ConjunctiveQuery::ToString(const AttributeCatalog& attrs) const {
  std::string out = "Q :- ";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms_[i].relation;
    out += "(";
    for (size_t j = 0; j < atoms_[i].vars.size(); ++j) {
      if (j > 0) out += ",";
      out += attrs.Name(atoms_[i].vars[j]);
    }
    out += ")";
  }
  return out;
}

}  // namespace lsens
