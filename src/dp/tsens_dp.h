#ifndef LSENS_DP_TSENS_DP_H_
#define LSENS_DP_TSENS_DP_H_

#include <cstdint>

#include "common/status.h"
#include "exec/join.h"
#include "query/conjunctive_query.h"
#include "query/ghd.h"
#include "storage/database.h"

namespace lsens {

// Common result shape for the DP mechanisms (TSensDP and the PrivSQL-style
// baseline): everything Table 2 reports for one run.
struct DpRunResult {
  double true_answer = 0.0;       // |Q(D)|
  double truncated_answer = 0.0;  // |Q(T(D, τ))|
  double noisy_answer = 0.0;      // released value (clamped at 0)
  uint64_t learned_threshold = 0;  // τ (TSensDP) / last frequency cap
  double global_sensitivity = 0.0;  // of the released query
  double bias() const {
    return true_answer > truncated_answer ? true_answer - truncated_answer
                                          : truncated_answer - true_answer;
  }
  double error() const {
    return true_answer > noisy_answer ? true_answer - noisy_answer
                                      : noisy_answer - true_answer;
  }
  double seconds = 0.0;
};

// §6.2: the TSensDP mechanism. Budget split: `threshold_fraction` of
// epsilon learns the truncation threshold (half of it releases the ℓ-
// truncated count Q̂, half runs SVT over q_i = (Q(T(D,i)) − Q̂)/i, each of
// sensitivity 1); the remainder releases Q(T(D,τ)) + Lap(τ/ε₂).
//
// Implementation note: because the query is self-join-free, every output
// tuple contains exactly one PR tuple, so PR deletions are additive and
// Q(T(D,i)) = Q(D) − Σ_{δ(t)>i} δ(t) — evaluated in O(1) per threshold
// from the sorted tuple sensitivities (unit-tested against real
// re-evaluation).
struct TSensDpOptions {
  double epsilon = 1.0;
  double threshold_fraction = 0.5;  // ε_tsens / ε
  uint64_t ell = 100;               // assumed max tuple sensitivity ℓ
  uint64_t seed = 1;
  JoinOptions join;
  const Ghd* ghd = nullptr;  // null: ResolveDecomposition's
};

StatusOr<DpRunResult> RunTSensDp(const ConjunctiveQuery& q, const Database& db,
                                 int private_atom,
                                 const TSensDpOptions& options);

}  // namespace lsens

#endif  // LSENS_DP_TSENS_DP_H_
