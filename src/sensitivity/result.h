#ifndef LSENS_SENSITIVITY_RESULT_H_
#define LSENS_SENSITIVITY_RESULT_H_

#include <string>
#include <vector>

#include "common/count.h"
#include "storage/attribute_set.h"
#include "storage/catalog.h"
#include "storage/dictionary.h"

namespace lsens {

// Sensitivity summary for one atom (relation) of the query.
struct AtomSensitivity {
  int atom_index = -1;
  std::string relation;

  // Attributes of the multiplicity table T_i — the atom's shared variables.
  // A most-sensitive tuple binds these; `free_vars` (variables exclusive to
  // this atom) may take any value satisfying the atom's predicates (§5.4
  // "extrapolate a value").
  AttributeSet table_attrs;
  AttributeSet free_vars;

  // max_t δ(t, Q, D) over the representative domain of this relation.
  Count max_sensitivity;

  // Values for table_attrs attaining max_sensitivity; empty when
  // max_sensitivity is zero or attained only by a top-k default bound.
  std::vector<Value> argmax;

  // True if the caller excluded this atom (TSensOptions::skip_atoms).
  bool skipped = false;

  // True when max_sensitivity is an upper bound rather than exact
  // (top-k approximation touched this table).
  bool approximate = false;
};

// Output of the local sensitivity problem (Definition 2.3): LS(Q, D) plus a
// most sensitive tuple, and per-relation detail.
struct SensitivityResult {
  Count local_sensitivity;
  int argmax_atom = -1;                 // index into `atoms`
  std::vector<AtomSensitivity> atoms;   // one per query atom

  const AtomSensitivity* MostSensitive() const;

  // Human-readable description of the most sensitive tuple, e.g.
  // "R1(A=a2, B=b2, C=c1) with sensitivity 4". Uses `dict` to render
  // interned string values when provided.
  std::string DescribeMostSensitive(const AttributeCatalog& attrs,
                                    const Dictionary* dict = nullptr) const;
};

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_RESULT_H_
