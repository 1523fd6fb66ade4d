#include "sensitivity/tsens.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

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

StatusOr<std::vector<std::vector<Count>>> TupleSensitivities(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options) {
  if (options.top_k > 0) {
    return Status::Unsupported(
        "tuple sensitivities need exact multiplicity tables (top_k = 0)");
  }
  if (Status valid = q.Validate(db); !valid.ok()) {
    return Status::InvalidArgument("query does not match the database: " +
                                   valid.message());
  }
  auto plan = PlanSensitivity(q, options);
  if (!plan.ok()) return plan.status();
  const SensitivityDataflow& df = plan->dataflow;
  std::vector<CountedRelation> tables;
  auto evaluated = EvaluateDataflow(q, df, db, options, &tables);
  if (!evaluated.ok()) return evaluated.status();
  std::vector<Count> totals;
  for (int node : df.tree_totals) {
    totals.push_back(tables[static_cast<size_t>(node)].TotalCount());
  }

  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  std::vector<std::vector<Count>> out(static_cast<size_t>(q.num_atoms()));
  for (const DataflowAtom& unit : df.assembly) {
    if (unit.skipped) continue;
    const Atom& atom = q.atom(unit.atom);
    const Relation& rel = *db.Find(atom.relation);
    // The scan reads the relation's predicate and key columns in place.
    auto column = [&](AttrId var) {
      size_t c = 0;
      while (atom.vars[c] != var) ++c;
      return rel.Column(c);
    };
    std::vector<std::span<const Value>> pred_cols;
    for (const Predicate& p : atom.predicates) {
      pred_cols.push_back(column(p.var));
    }
    // Per component: its table, and the column behind each of its
    // attributes. The unit relation counts 1 and is left out.
    struct Part {
      const CountedRelation* table = nullptr;
      std::vector<std::span<const Value>> cols;
    };
    std::vector<Part> parts;
    for (int c : unit.components) {
      if (c < 0) continue;
      Part part{&tables[static_cast<size_t>(c)], {}};
      for (AttrId var : part.table->attrs()) part.cols.push_back(column(var));
      parts.push_back(std::move(part));
    }

    OpTimer op(ctx, "tsens.tuple_sens", rel.NumRows());
    const Count scale = TreeScale(totals, unit.tree);
    std::vector<Count>& sens = out[static_cast<size_t>(unit.atom)];
    sens.assign(rel.NumRows(), Count::Zero());
    std::vector<Value> key;
    for (size_t i = 0; i < sens.size(); ++i) {
      bool pass = true;
      for (size_t p = 0; p < pred_cols.size() && pass; ++p) {
        pass = atom.predicates[p].Eval(pred_cols[p][i]);
      }
      if (!pass) continue;
      Count delta = scale;
      for (const Part& part : parts) {
        key.clear();
        for (std::span<const Value> col : part.cols) key.push_back(col[i]);
        delta *= part.table->Lookup(key);
      }
      sens[i] = delta;
    }
    op.set_rows_out(sens.size());
  }
  return out;
}

StatusOr<SensitivityResult> ComputeDownwardLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options) {
  auto per_tuple = TupleSensitivities(q, db, options);
  if (!per_tuple.ok()) return per_tuple.status();

  // Every atom's view restricted to its existing rows: the max over the
  // active domain replaces the representative-domain max, and the argmax
  // is the winning row's projection onto the table attributes.
  SensitivityResult result;
  result.atoms.resize(static_cast<size_t>(q.num_atoms()));
  for (int a = 0; a < q.num_atoms(); ++a) {
    const Atom& spec = q.atom(a);
    AtomSensitivity& atom = result.atoms[static_cast<size_t>(a)];
    atom.atom_index = a;
    atom.relation = spec.relation;
    atom.table_attrs = q.SharedVarsOf(a);
    atom.free_vars = q.ExclusiveVarsOf(a);
    atom.skipped = std::find(options.skip_atoms.begin(),
                             options.skip_atoms.end(),
                             a) != options.skip_atoms.end();
    const std::vector<Count>& sens = (*per_tuple)[static_cast<size_t>(a)];
    size_t best_row = SIZE_MAX;
    for (size_t r = 0; r < sens.size(); ++r) {
      if (sens[r] > atom.max_sensitivity) {
        atom.max_sensitivity = sens[r];
        best_row = r;
      }
    }
    if (best_row == SIZE_MAX) continue;
    const Relation* rel = db.Find(spec.relation);
    for (AttrId var : atom.table_attrs) {
      size_t col = 0;
      while (spec.vars[col] != var) ++col;
      atom.argmax.push_back(rel->At(best_row, col));
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
