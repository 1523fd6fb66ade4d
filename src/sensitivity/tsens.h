#ifndef LSENS_SENSITIVITY_TSENS_H_
#define LSENS_SENSITIVITY_TSENS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/ghd.h"
#include "sensitivity/result.h"
#include "storage/catalog.h"
#include "sensitivity/tsens_engine.h"
#include "sensitivity/tsens_path.h"
#include "storage/database.h"

namespace lsens {

// Facade options for ComputeLocalSensitivity.
struct TSensComputeOptions : TSensOptions {
  // Use Algorithm 1 when the query is a single-attribute-link path query
  // (ignored when keep_tables is set — Algorithm 1 does not build tables).
  bool prefer_path_algorithm = true;

  // Decomposition to run over, held by pointer (never copied). When null,
  // ResolveDecomposition picks the GYO join forest, or for a cyclic query
  // SearchGhd's minimum-width atom-partition GHD (small queries only).
  const Ghd* ghd = nullptr;
};

// The engines of the facade.
enum class SensitivityEngine {
  kPath,  // TSensPath: Algorithm 1 over `path_order`
  kGhd,   // TSensOverGhd: Algorithm 2 / §5.4 over the decomposition
};

// What the facade runs, chosen only by PlanSensitivity; the facade, the
// SensitivityCache and ExplainQuery all execute or render this one plan.
struct SensitivityPlan {
  SensitivityEngine engine = SensitivityEngine::kGhd;
  std::vector<int> path_order;  // kPath: the chain from PathOrder()
  Decomposition decomposition;  // always resolved, even for kPath
  // The engine's dataflow (BuildChainDataflow for kPath, else
  // BuildGhdDataflow), for options.skip_atoms: the cold engines evaluate
  // it, and SensitivityCache maintains and repairs its nodes.
  SensitivityDataflow dataflow;
};

// ResolveDecomposition(q, options.ghd), then Algorithm 1 for the GYO forest
// of a path query of >= 2 atoms when prefer_path_algorithm is set and
// keep_tables is not, else Algorithm 2 over the decomposition.
StatusOr<SensitivityPlan> PlanSensitivity(
    const ConjunctiveQuery& q, const TSensComputeOptions& options = {});

// Entry point for the local sensitivity problem (Definition 2.3): computes
// LS(Q, D) and a most sensitive tuple. Validates, plans (PlanSensitivity)
// and runs the plan: Algorithm 1 (path queries), Algorithm 2 (acyclic
// queries via GYO join trees) or the §5.4 GHD extension (cyclic queries).
StatusOr<SensitivityResult> ComputeLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options = {});

// Renders PlanSensitivity(q, options): the query, its structure, the
// decomposition (GYO join tree with the Theorem 5.1 parameters, or a
// searched / user-supplied GHD and its width) as an ASCII tree, and the
// engine the facade will run.
std::string ExplainQuery(const ConjunctiveQuery& q,
                         const AttributeCatalog& attrs,
                         const TSensComputeOptions& options = {});

// Turns the result's most sensitive tuple into a concrete row insertable
// into its relation: bound attributes take the argmax values; free
// (exclusive) attributes take any value satisfying the atom's predicates.
// Fails if LS = 0, the argmax row is unknown (top-k default), or no single
// value satisfies all predicates on a free attribute.
StatusOr<std::pair<int, std::vector<Value>>> MaterializeMostSensitiveTuple(
    const SensitivityResult& result, const ConjunctiveQuery& q);

// Downward-only local sensitivity: max_t δ⁻(t) over the tuples *present*
// in D — the deletion-propagation view the paper contrasts with (§8).
// The result's per-atom maxima/argmaxes and tables range over the active
// domain only; insertions are not considered. Incompatible with top_k
// (exact tables are required).
StatusOr<SensitivityResult> ComputeDownwardLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options = {});

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_TSENS_H_
