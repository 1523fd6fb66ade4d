#ifndef LSENS_DP_PRIVSQL_H_
#define LSENS_DP_PRIVSQL_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "dp/tsens_dp.h"
#include "query/conjunctive_query.h"
#include "query/ghd.h"
#include "storage/attribute_set.h"
#include "storage/database.h"

namespace lsens {

// PrivSQL-style baseline (§7.3): truncation by join-key *frequency* on the
// relations the FK policy makes sensitive, thresholds learned by SVT, and a
// static (elastic-with-caps) global sensitivity bound. Synopsis generation
// is disabled — the query is answered directly with the Laplace mechanism,
// exactly as the paper configures PrivSQL.
//
// Faithful weaknesses this reimplementation preserves:
//  * truncation thresholds bound frequencies, not tuple sensitivities, so
//    heavy keys that never join with the sensitive tuples get dropped too;
//  * the SVT noise for learning a relation's threshold scales with that
//    relation's *policy sensitivity* (the product of upstream caps), while
//    TSensDP's SVT queries have sensitivity 1 (the paper calls this out);
//  * the released global sensitivity comes from static frequency analysis
//    and can exceed the local sensitivity by orders of magnitude.
struct PrivSqlRule {
  int atom = -1;           // relation to truncate
  AttributeSet key_vars;   // join key whose frequency is bounded
  uint64_t max_threshold = 128;  // SVT search range for the cap
};

struct PrivSqlPolicy {
  int private_atom = -1;
  // Rules in cascade (FK) order from the private relation outward.
  std::vector<PrivSqlRule> rules;
};

struct PrivSqlOptions {
  double epsilon = 1.0;
  double threshold_fraction = 0.5;  // budget share for threshold learning
  uint64_t seed = 1;
  JoinOptions join;
  const Ghd* ghd = nullptr;  // plan; null: ResolveDecomposition's choice
};

StatusOr<DpRunResult> RunPrivSql(const ConjunctiveQuery& q, const Database& db,
                                 const PrivSqlPolicy& policy,
                                 const PrivSqlOptions& options);

// --- Serving-layer budget accounting ---------------------------------------

// A deployment-wide epsilon budget shared by concurrent serving sessions.
// Sequential composition: every released answer debits its epsilon; once
// the budget cannot cover a request, the request is refused rather than
// partially charged. All methods are thread-safe; TryCharge debits the full
// amount atomically or not at all.
class PrivSqlBudget {
 public:
  explicit PrivSqlBudget(double epsilon_total);

  double total() const { return total_; }
  double spent() const;
  double remaining() const;

  // Debits `epsilon` if it fits in the remaining budget (within a 1e-12
  // slack for accumulated float error); false leaves the budget untouched.
  // Non-positive epsilon is never chargeable.
  bool TryCharge(double epsilon);

  // Returns a charge whose run failed before releasing anything (never
  // refund a released answer). Clamped so spent() stays >= 0.
  void Refund(double epsilon);

 private:
  const double total_;
  mutable std::mutex mu_;
  double spent_ = 0.0;  // guarded by mu_
};

// Budget-tracked serving entry point: charges options.epsilon against
// `budget` before running (Unsupported "privsql budget exhausted" without
// touching the data when it does not fit), answers via RunPrivSql, and
// refunds the charge if the run fails — a failed run released nothing.
// Readers serving from an epoch snapshot pass the pinned epoch's database.
StatusOr<DpRunResult> ServePrivSql(const ConjunctiveQuery& q,
                                   const Database& db,
                                   const PrivSqlPolicy& policy,
                                   const PrivSqlOptions& options,
                                   PrivSqlBudget& budget);

}  // namespace lsens

#endif  // LSENS_DP_PRIVSQL_H_
