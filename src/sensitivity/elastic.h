#ifndef LSENS_SENSITIVITY_ELASTIC_H_
#define LSENS_SENSITIVITY_ELASTIC_H_

#include <map>
#include <memory>
#include <vector>

#include "common/count.h"
#include "common/status.h"
#include "query/conjunctive_query.h"
#include "query/ghd.h"
#include "storage/database.h"

namespace lsens {

// Source of max-frequency metadata for the Elastic analysis. The paper lets
// Elastic "pre-process the database to obtain the max frequency"; that is
// DataMaxFreqProvider. DP baselines substitute clamped providers.
class MaxFreqProvider {
 public:
  virtual ~MaxFreqProvider() = default;

  // Upper bound on the multiplicity of any single combination of values of
  // `vars` in atom `atom_index`'s relation. vars = ∅ means the row count.
  // Selection predicates are ignored — Elastic is a static analysis (§8:
  // "the elastic sensitivity algorithm will output the same value as for a
  // query without the selection operators").
  virtual Count MaxFreq(int atom_index, const AttributeSet& vars) const = 0;
};

// Computes exact max frequencies from the database instance, cached per
// (atom, vars) pair.
class DataMaxFreqProvider : public MaxFreqProvider {
 public:
  DataMaxFreqProvider(const ConjunctiveQuery& q, const Database& db);
  Count MaxFreq(int atom_index, const AttributeSet& vars) const override;

 private:
  const ConjunctiveQuery& q_;
  const Database& db_;
  mutable std::map<std::pair<int, AttributeSet>, Count> cache_;
};

// Wraps another provider and applies PrivSQL-style frequency caps: after
// truncating a relation so no `key` value occurs more than `cap` times,
// `cap` soundly bounds the frequency of any keyset that contains the key
// (frequencies of other keysets only shrink under truncation, so the inner
// bound remains valid for them).
class ClampedMaxFreqProvider : public MaxFreqProvider {
 public:
  struct Cap {
    AttributeSet key;
    Count cap;
  };

  ClampedMaxFreqProvider(const MaxFreqProvider& inner, std::map<int, Cap> caps)
      : inner_(inner), caps_(std::move(caps)) {}
  Count MaxFreq(int atom_index, const AttributeSet& vars) const override;

 private:
  const MaxFreqProvider& inner_;
  std::map<int, Cap> caps_;
};

// Result of the Elastic (Flex) static analysis at distance 0: an upper
// bound on the local sensitivity per private relation, and the max. Unlike
// TSens it cannot produce a most sensitive tuple.
struct ElasticResult {
  Count local_sensitivity_bound;
  std::vector<Count> per_atom_bound;  // atom as the sole private relation
};

// How join-output max frequencies compose up the plan.
//  * kFlexFaithful — the original Flex rule: mf of an attribute on the left
//    side multiplies the right side's join-key frequency (one derivation,
//    chosen by which side holds the queried attributes). Bounds compound
//    multiplicatively along deep plans — this is the variant whose q3
//    bounds reach 1e8 in the paper's Figure 6b.
//  * kTightened — takes the minimum of both symmetric derivations at every
//    join (each is individually sound). Often orders of magnitude tighter;
//    our default.
enum class ElasticMode { kTightened, kFlexFaithful };

// Left-deep binary join plan order: the atoms joined in sequence
// (the paper: "extend Elastic ... to take the join plan as input"; plans
// come from PlanOrderFromGhd, a post-order traversal).
StatusOr<ElasticResult> ElasticSensitivity(
    const ConjunctiveQuery& q, const std::vector<int>& join_order,
    const MaxFreqProvider& mf, ElasticMode mode = ElasticMode::kTightened);

// Convenience: takes the plan order of ResolveDecomposition(q, ghd) — the
// decomposition TSens runs over — and uses data max-frequencies.
StatusOr<ElasticResult> ElasticSensitivity(
    const ConjunctiveQuery& q, const Database& db, const Ghd* ghd = nullptr,
    ElasticMode mode = ElasticMode::kTightened);

// Post-order atom sequence ("we define the join order as a post-traversal
// of the join plan"); over an acyclic query's trivial GHD, the post-order
// of its join forest.
std::vector<int> PlanOrderFromGhd(const Ghd& ghd);

// ---- Distance-k / smooth elastic sensitivity (the full Flex mechanism) --
//
// Elastic sensitivity at distance k bounds the local sensitivity of any
// database within k tuple insertions/deletions of D; Flex models it by
// inflating every max frequency (and row count) by k.
class DistanceShiftedMaxFreqProvider : public MaxFreqProvider {
 public:
  DistanceShiftedMaxFreqProvider(const MaxFreqProvider& inner, uint64_t k)
      : inner_(inner), k_(k) {}
  Count MaxFreq(int atom_index, const AttributeSet& vars) const override {
    return inner_.MaxFreq(atom_index, vars) + Count(k_);
  }

 private:
  const MaxFreqProvider& inner_;
  uint64_t k_;
};

StatusOr<ElasticResult> ElasticSensitivityAtDistance(
    const ConjunctiveQuery& q, const std::vector<int>& join_order,
    const MaxFreqProvider& mf, uint64_t distance,
    ElasticMode mode = ElasticMode::kTightened);

// β-smooth upper bound on the local sensitivity of the private atom:
//   S*(D) = max_{k >= 0} e^{-βk} · S^(k)(D),
// the quantity Flex feeds into the smooth-sensitivity noise calibration
// (Nissim et al. [37]). S^(k) grows polynomially in k while e^{-βk} decays,
// so the scan over k terminates; max_distance is a hard cap.
struct SmoothElasticResult {
  double smooth_bound = 0.0;
  uint64_t argmax_distance = 0;
};
StatusOr<SmoothElasticResult> SmoothElasticSensitivity(
    const ConjunctiveQuery& q, const std::vector<int>& join_order,
    const MaxFreqProvider& mf, double beta, int private_atom,
    ElasticMode mode = ElasticMode::kTightened, uint64_t max_distance = 10000);

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_ELASTIC_H_
