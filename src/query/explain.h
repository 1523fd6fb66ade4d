#ifndef LSENS_QUERY_EXPLAIN_H_
#define LSENS_QUERY_EXPLAIN_H_

#include <string>

#include "query/conjunctive_query.h"
#include "query/ghd.h"
#include "storage/catalog.h"

namespace lsens {

class ExecContext;

// The ASCII tree for a decomposition (ExplainQuery is in sensitivity/tsens.h).
std::string RenderGhdTree(const ConjunctiveQuery& q,
                          const AttributeCatalog& attrs, const Ghd& ghd);

// The execution profile collected in `ctx` (exec/exec_context.h), one
// aligned row per operator (calls, rows in/out, hash-build rows, wall
// milliseconds). Run a query or TSens pass with TSensOptions::join.ctx /
// JoinOptions::ctx pointing at a context, then print this. Wall times of
// nested operators overlap (a join's time includes its output Normalize).
// This is the one place the query layer reads exec state — reporting only,
// kept header-light via the forward declaration above.
std::string RenderExecStats(const ExecContext& ctx);

}  // namespace lsens

#endif  // LSENS_QUERY_EXPLAIN_H_
