#ifndef LSENS_SENSITIVITY_TSENS_PATH_H_
#define LSENS_SENSITIVITY_TSENS_PATH_H_

#include <vector>

#include "common/status.h"
#include "query/conjunctive_query.h"
#include "sensitivity/result.h"
#include "sensitivity/tsens_engine.h"
#include "storage/database.h"

namespace lsens {

// Algorithm 1: local sensitivity of a path join query in O(n log n),
// independent of the output size.
//
// `order` is the chain ordering of the atoms (from PathOrder()); the
// algorithm computes topjoins ⊤(R_i) as running prefix aggregations and
// botjoins ⊥(R_i) as suffix aggregations over the single link attributes,
// then takes δ_i = max ⊤(R_i) · max ⊥(R_{i+1}) per relation. The cross
// product J × K of the paper's step III is never materialized.
//
// keep_tables is not supported here (the tables are cross products the
// algorithm exists to avoid); use TSensOverGhd when tables are needed.
// Builds BuildChainDataflow and runs EvaluateDataflow.
StatusOr<SensitivityResult> TSensPath(const ConjunctiveQuery& q,
                                      const std::vector<int>& order,
                                      const Database& db,
                                      const TSensOptions& options = {});

// Algorithm 1's dataflow over the chain `order`: sources keyed on the link
// attributes, the ⊤ chain ⊤_i = γ_link(i-1)(S_{i-1} ⋈ ⊤_{i-1}) left to
// right, the ⊥ chain ⊥_i = γ_link(i-1)(S_i ⋈ ⊥_{i+1}) right to left, and
// per position, in chain order, the components ⊤_i and ⊥_{i+1} (the unit
// relation past either end).
StatusOr<SensitivityDataflow> BuildChainDataflow(
    const ConjunctiveQuery& q, const std::vector<int>& order,
    const std::vector<int>& skip_atoms);

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_TSENS_PATH_H_
