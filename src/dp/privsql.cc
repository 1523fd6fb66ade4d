#include "dp/privsql.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/timer.h"
#include "dp/laplace.h"
#include "dp/svt.h"
#include "dp/truncation.h"
#include "query/eval.h"
#include "query/ghd.h"
#include "sensitivity/elastic.h"

namespace lsens {

namespace {

// Maps a rule's key variables onto the relation's columns via the atom's
// positional binding.
StatusOr<std::vector<int>> KeyColumns(const Atom& atom,
                                      const AttributeSet& key_vars) {
  std::vector<int> cols;
  for (AttrId var : key_vars) {
    auto it = std::find(atom.vars.begin(), atom.vars.end(), var);
    if (it == atom.vars.end()) {
      return Status::InvalidArgument(
          "rule key variable not bound by the atom");
    }
    cols.push_back(static_cast<int>(it - atom.vars.begin()));
  }
  return cols;
}

}  // namespace

StatusOr<DpRunResult> RunPrivSql(const ConjunctiveQuery& q, const Database& db,
                                 const PrivSqlPolicy& policy,
                                 const PrivSqlOptions& options) {
  if (options.epsilon <= 0.0 || options.threshold_fraction <= 0.0 ||
      options.threshold_fraction >= 1.0) {
    return Status::InvalidArgument("need 0 < threshold_fraction < 1, eps > 0");
  }
  if (policy.private_atom < 0 || policy.private_atom >= q.num_atoms()) {
    return Status::InvalidArgument("policy needs a private atom");
  }
  WallTimer timer;
  Rng rng(options.seed);

  auto decomposition = ResolveDecomposition(q, options.ghd);
  if (!decomposition.ok()) return decomposition.status();
  const Ghd& ghd = decomposition->ghd();
  auto full = CountQuery(q, db, options.join, &ghd);
  if (!full.ok()) return full.status();
  const double q_full = full->ToDouble();

  // 1. Learn per-relation frequency caps by SVT, cascade order. The noise
  //    of rule r scales with the policy sensitivity σ_r = Π of upstream
  //    caps (removing one private tuple can touch that many keys).
  Database work = db.Clone();
  const double eps_learn = options.epsilon * options.threshold_fraction;
  const double eps_per_rule =
      policy.rules.empty() ? 0.0
                           : eps_learn / static_cast<double>(
                                             policy.rules.size());
  std::map<int, ClampedMaxFreqProvider::Cap> caps;
  double sigma = 1.0;
  uint64_t last_cap = 0;
  for (const PrivSqlRule& rule : policy.rules) {
    const Atom& atom = q.atom(rule.atom);
    auto cols = KeyColumns(atom, rule.key_vars);
    if (!cols.ok()) return cols.status();
    auto histogram =
        KeysAboveFrequency(work, atom.relation, *cols, rule.max_threshold);
    if (!histogram.ok()) return histogram.status();

    // Stop at the first frequency cap where (noisily) no keys would be
    // dropped: query = -#keys_above(f), threshold 0, sensitivity σ
    // (deleting one private tuple cascades into at most σ keys here).
    SparseVector svt(rng, eps_per_rule, /*threshold=*/0.0,
                     /*query_sensitivity=*/sigma);
    uint64_t cap = rule.max_threshold;
    for (uint64_t f = 1; f < rule.max_threshold; ++f) {
      if (svt.Check(-static_cast<double>((*histogram)[f]))) {
        cap = f;
        break;
      }
    }
    auto removed = TruncateByFrequency(work, atom.relation, *cols, cap);
    if (!removed.ok()) return removed.status();
    caps[rule.atom] = {rule.key_vars, Count(cap)};
    sigma *= static_cast<double>(cap);
    last_cap = cap;
  }

  // 2. Static global sensitivity: elastic analysis with the learned caps.
  DataMaxFreqProvider data_mf(q, db);
  ClampedMaxFreqProvider mf(data_mf, caps);
  // PrivateSQL's static view-sensitivity analysis composes one-sided
  // frequency bounds exactly like the original Flex rules, so the faithful
  // mode is the right model here (the tightened mode is our improvement,
  // benchmarked separately).
  auto elastic =
      ElasticSensitivity(q, PlanOrderFromGhd(ghd), mf,
                         ElasticMode::kFlexFaithful);
  if (!elastic.ok()) return elastic.status();
  const double gs =
      elastic->per_atom_bound[static_cast<size_t>(policy.private_atom)]
          .ToDouble();

  // 3. Answer on the truncated database.
  auto truncated = CountQuery(q, work, options.join, &ghd);
  if (!truncated.ok()) return truncated.status();

  DpRunResult out;
  out.true_answer = q_full;
  out.truncated_answer = truncated->ToDouble();
  out.learned_threshold = last_cap;
  out.global_sensitivity = gs;
  const double eps_answer = options.epsilon - eps_learn;
  out.noisy_answer =
      std::max(0.0, LaplaceMechanism(rng, out.truncated_answer, gs,
                                     eps_answer));
  out.seconds = timer.ElapsedSeconds();
  return out;
}

PrivSqlBudget::PrivSqlBudget(double epsilon_total) : total_(epsilon_total) {
  LSENS_CHECK_MSG(epsilon_total >= 0.0, "epsilon budget must be >= 0");
}

double PrivSqlBudget::spent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spent_;
}

double PrivSqlBudget::remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - spent_;
}

bool PrivSqlBudget::TryCharge(double epsilon) {
  if (epsilon <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (spent_ + epsilon > total_ + 1e-12) return false;
  spent_ += epsilon;
  return true;
}

void PrivSqlBudget::Refund(double epsilon) {
  std::lock_guard<std::mutex> lock(mu_);
  spent_ = std::max(0.0, spent_ - epsilon);
}

StatusOr<DpRunResult> ServePrivSql(const ConjunctiveQuery& q,
                                   const Database& db,
                                   const PrivSqlPolicy& policy,
                                   const PrivSqlOptions& options,
                                   PrivSqlBudget& budget) {
  if (!budget.TryCharge(options.epsilon)) {
    return Status::Unsupported(
        "privsql budget exhausted: epsilon " +
        std::to_string(options.epsilon) + " does not fit remaining " +
        std::to_string(budget.remaining()));
  }
  StatusOr<DpRunResult> result = RunPrivSql(q, db, policy, options);
  if (!result.ok()) budget.Refund(options.epsilon);
  return result;
}

}  // namespace lsens
