#include "sensitivity/tsens.h"

#include <algorithm>
#include <utility>

#include "exec/exec_context.h"
#include "query/explain.h"
#include "query/join_tree.h"

namespace lsens {

StatusOr<SensitivityPlan> PlanSensitivity(const ConjunctiveQuery& q,
                                          const TSensComputeOptions& options) {
  auto decomposition = ResolveDecomposition(q, options.ghd);
  if (!decomposition.ok()) return decomposition.status();
  SensitivityPlan plan;
  plan.decomposition = *std::move(decomposition);
  auto dataflow =
      BuildGhdDataflow(q, plan.decomposition.ghd(), options.skip_atoms);
  if (!dataflow.ok()) return dataflow.status();
  plan.dataflow = *std::move(dataflow);
  return plan;
}

StatusOr<SensitivityResult> ComputeLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  // Times the facade end-to-end (planning included) so the stats report
  // shows total sensitivity wall time next to the per-operator rows.
  OpTimer op(ResolveExecContext(options.join.ctx), "tsens.compute",
             db.TotalRows());
  auto plan = PlanSensitivity(q, options);
  if (!plan.ok()) return plan.status();
  return EvaluateDataflow(q, plan->dataflow, db, options);
}

std::string ExplainQuery(const ConjunctiveQuery& q,
                         const AttributeCatalog& attrs,
                         const TSensComputeOptions& options) {
  std::string out = "query: " + q.ToString(attrs) + "\n";
  out += IsAcyclic(q) ? "structure: acyclic (GYO)\n" : "structure: cyclic\n";
  auto plan = PlanSensitivity(q, options);
  if (!plan.ok()) {
    return out + "no atom-partition GHD found: " + plan.status().ToString() +
           "\n";
  }
  const Decomposition& d = plan->decomposition;
  if (d.source == DecompositionSource::kGyo) {
    JoinTreeAnalysis analysis = AnalyzeJoinTree(q, d.ghd().forest);
    out += "join tree (max degree " + std::to_string(analysis.max_degree);
    if (analysis.path_query) out += ", path query";
    if (analysis.doubly_acyclic) out += ", doubly acyclic";
    out += "):\n";
  } else {
    out += std::string("decomposition: ") +
           DecompositionSourceName(d.source) + " (width " +
           std::to_string(d.ghd().Width()) + "):\n";
  }
  out += RenderGhdTree(q, attrs, d.ghd());
  if (d.source == DecompositionSource::kGyo) {
    return out + "algorithm: TSensOverGhd (Algorithm 2 over the GYO tree)\n";
  }
  return out + "algorithm: TSensOverGhd (§5.4 GHD extension)\n";
}

StatusOr<SensitivityResult> ComputeDownwardLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options) {
  if (options.top_k > 0) {
    return Status::Unsupported(
        "downward sensitivity needs exact multiplicity tables (top_k = 0)");
  }
  TSensComputeOptions engine_options = options;
  engine_options.keep_tables = true;
  auto full = ComputeLocalSensitivity(q, db, engine_options);
  if (!full.ok()) return full.status();

  // Restrict every atom's view to its existing rows: the max over the
  // active domain replaces the representative-domain max, and the argmax
  // becomes a concrete present tuple's shared projection.
  SensitivityResult result = *std::move(full);
  for (AtomSensitivity& atom : result.atoms) {
    if (atom.skipped) continue;
    auto per_tuple = TupleSensitivities(result, q, db, atom.atom_index,
                                        options);
    if (!per_tuple.ok()) return per_tuple.status();
    const Relation* rel = db.Find(atom.relation);
    LSENS_CHECK(rel != nullptr);

    Count best = Count::Zero();
    size_t best_row = SIZE_MAX;
    for (size_t r = 0; r < per_tuple->size(); ++r) {
      if ((*per_tuple)[r] > best) {
        best = (*per_tuple)[r];
        best_row = r;
      }
    }
    atom.max_sensitivity = best;
    atom.argmax.clear();
    if (best_row != SIZE_MAX) {
      // Project the winning row onto the table attributes.
      const Atom& spec = q.atom(atom.atom_index);
      for (AttrId var : atom.table_attrs) {
        size_t col = 0;
        while (spec.vars[col] != var) ++col;
        atom.argmax.push_back(rel->At(best_row, col));
      }
    }
  }
  ReduceWinner(&result);
  return result;
}

StatusOr<std::pair<int, std::vector<Value>>> MaterializeMostSensitiveTuple(
    const SensitivityResult& result, const ConjunctiveQuery& q) {
  const AtomSensitivity* best = result.MostSensitive();
  if (best == nullptr || result.local_sensitivity.IsZero()) {
    return Status::NotFound("local sensitivity is zero: every tuple is a"
                            " most sensitive tuple (sensitivity 0)");
  }
  if (best->argmax.size() != best->table_attrs.size()) {
    return Status::Unsupported(
        "argmax row unavailable (top-k approximation bound)");
  }
  const Atom& atom = q.atom(best->atom_index);
  std::vector<Value> tuple(atom.vars.size(), 0);
  for (size_t c = 0; c < atom.vars.size(); ++c) {
    AttrId var = atom.vars[c];
    auto it = std::lower_bound(best->table_attrs.begin(),
                               best->table_attrs.end(), var);
    if (it != best->table_attrs.end() && *it == var) {
      tuple[c] = best->argmax[static_cast<size_t>(
          it - best->table_attrs.begin())];
      continue;
    }
    // Free attribute: pick a value satisfying all predicates on it.
    std::vector<const Predicate*> preds;
    for (const Predicate& p : atom.predicates) {
      if (p.var == var) preds.push_back(&p);
    }
    Value v = 0;
    bool ok = preds.empty();
    for (const Predicate* candidate_source : preds) {
      Value candidate = candidate_source->SatisfyingValue();
      bool all = true;
      for (const Predicate* p : preds) all = all && p->Eval(candidate);
      if (all) {
        v = candidate;
        ok = true;
        break;
      }
    }
    if (!ok) {
      return Status::NotFound(
          "no single value satisfies all predicates on a free attribute");
    }
    tuple[c] = v;
  }
  return std::make_pair(best->atom_index, std::move(tuple));
}

}  // namespace lsens
