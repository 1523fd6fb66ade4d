#include "sensitivity/tsens_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "exec/exec_context.h"
#include "exec/group_max.h"
#include "query/atom_scan.h"
#include "query/eval.h"

namespace lsens {

namespace {

// Applies atom `a`'s predicates whose variable lies in rel.attrs().
void ApplyPredicates(const Atom& atom, CountedRelation* rel) {
  std::vector<std::pair<int, Predicate>> checks;
  for (const Predicate& p : atom.predicates) {
    int col = rel->ColumnOf(p.var);
    if (col >= 0) checks.emplace_back(col, p);
  }
  if (checks.empty()) return;
  rel->Filter([&](std::span<const Value> row) {
    for (const auto& [col, pred] : checks) {
      if (!pred.Eval(row[static_cast<size_t>(col)])) return false;
    }
    return true;
  });
}

// True if one of `atom`'s predicates constrains an attribute of `attrs`.
bool PredicatesTouch(const Atom& atom, const AttributeSet& attrs) {
  for (const Predicate& p : atom.predicates) {
    if (Contains(attrs, p.var)) return true;
  }
  return false;
}

// A multiplicity-table component reduced to its max row: GroupMax reads
// the max and argmax of γ_group straight from the inputs of the fold's
// last join. When GroupMax declines, the already-folded prefix joins the
// last piece and is grouped in full.
CountedRelation MaxOnlyTable(std::vector<const CountedRelation*> pieces,
                             const AttributeSet& group,
                             const JoinOptions& jopts, ExecContext& ctx) {
  FoldSplit split = FoldJoinButLast(std::move(pieces), jopts);
  std::optional<CountedRelation> best =
      GroupMax(split.prefix, *split.last, group, &ctx);
  if (best.has_value()) return *std::move(best);
  return GroupBySum(NaturalJoin(split.prefix, *split.last, jopts), group,
                    &ctx);
}

// Partitions pieces into attribute-connectivity components (pieces sharing
// a variable transitively end up together; empty-attr pieces are singleton
// components acting as scalars).
std::vector<std::vector<size_t>> ConnectivityComponents(
    const std::vector<const CountedRelation*>& pieces) {
  const size_t n = pieces.size();
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (Intersects(pieces[i]->attrs(), pieces[j]->attrs())) {
        parent[find(i)] = find(j);
      }
    }
  }
  std::vector<std::vector<size_t>> components;
  std::vector<int> comp_of(n, -1);
  for (size_t i = 0; i < n; ++i) {
    size_t root = find(i);
    if (comp_of[root] == -1) {
      comp_of[root] = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[static_cast<size_t>(comp_of[root])].push_back(i);
  }
  return components;
}

}  // namespace

StatusOr<SensitivityResult> TSensOverGhd(const ConjunctiveQuery& q,
                                         const Ghd& ghd, const Database& db,
                                         const TSensOptions& options) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  const int num_atoms = q.num_atoms();
  const size_t num_bags = ghd.bags.size();

  // S_a: shared-variable projections with predicates applied.
  std::vector<CountedRelation> s;
  s.reserve(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) {
    auto rel = db.Get(q.atom(a).relation);
    if (!rel.ok()) return rel.status();
    s.push_back(ScanAtom(**rel, q.atom(a), q.SharedVarsOf(a), &ctx));
  }

  std::vector<int> bag_of(static_cast<size_t>(num_atoms), -1);
  for (size_t v = 0; v < num_bags; ++v) {
    for (int a : ghd.bags[v].atom_indices) bag_of[static_cast<size_t>(a)] =
        static_cast<int>(v);
  }
  for (int a = 0; a < num_atoms; ++a) {
    if (bag_of[static_cast<size_t>(a)] == -1) {
      return Status::InvalidArgument("GHD does not cover atom " +
                                     std::to_string(a));
    }
  }

  const size_t num_trees = ghd.forest.trees.size();
  // Capture slots are pre-sized: the passes below fill them by bag, tree
  // and atom index.
  if (options.capture != nullptr) {
    options.capture->bot_join.assign(num_bags, std::nullopt);
    options.capture->top_join.assign(num_bags, std::nullopt);
    options.capture->root_join.assign(num_trees, std::nullopt);
    options.capture->atom_components.assign(static_cast<size_t>(num_atoms),
                                            {});
  }
  std::vector<Count> tree_total(num_trees, Count::Zero());
  // ⊥ and ⊤ per bag; *_use are the (possibly top-k truncated) versions
  // consumed by the recursions, *_full the untruncated ones consumed by the
  // multiplicity-table step.
  std::vector<std::optional<CountedRelation>> bot_full(num_bags);
  std::vector<std::optional<CountedRelation>> bot_use(num_bags);
  std::vector<std::optional<CountedRelation>> top_full(num_bags);
  std::vector<std::optional<CountedRelation>> top_use(num_bags);
  bool truncation_applied = false;
  auto maybe_truncate = [&](const CountedRelation& full) {
    CountedRelation trunc = full;
    if (options.top_k > 0 && trunc.NumRows() > options.top_k) {
      trunc.TruncateTopK(options.top_k, &ctx);
      truncation_applied = true;
    }
    return trunc;
  };

  // The ⊥/⊤ recursions of each tree of the decomposition forest.
  for (size_t t = 0; t < num_trees; ++t) {
    const JoinTree& tree = ghd.forest.trees[t];
    // Botjoins, leaves to root (Eq. 7 generalized to bags).
    for (int bag : tree.PostOrder()) {
      const GhdBag& spec = ghd.bags[static_cast<size_t>(bag)];
      std::vector<const CountedRelation*> pieces;
      for (int a : spec.atom_indices) {
        pieces.push_back(&s[static_cast<size_t>(a)]);
      }
      for (int c : tree.Children(bag)) {
        pieces.push_back(&*bot_use[static_cast<size_t>(c)]);
      }
      CountedRelation folded = FoldJoin(std::move(pieces), options.join);
      int parent = tree.Parent(bag);
      if (parent == -1) {
        tree_total[t] = folded.TotalCount();
        if (options.capture != nullptr && num_trees >= 2) {
          options.capture->root_join[t] = std::move(folded);
        }
      } else {
        AttributeSet link = Intersect(
            spec.vars, ghd.bags[static_cast<size_t>(parent)].vars);
        bot_full[static_cast<size_t>(bag)] = GroupBySum(folded, link, &ctx);
        bot_use[static_cast<size_t>(bag)] =
            maybe_truncate(*bot_full[static_cast<size_t>(bag)]);
        if (options.capture != nullptr && spec.atom_indices.size() >= 2) {
          options.capture->bot_join[static_cast<size_t>(bag)] =
              std::move(folded);
        }
      }
    }
    // Topjoins, root to leaves (Eq. 8 generalized to bags).
    for (int bag : tree.PreOrder()) {
      int p = tree.Parent(bag);
      if (p == -1) continue;
      const GhdBag& spec = ghd.bags[static_cast<size_t>(bag)];
      const GhdBag& pspec = ghd.bags[static_cast<size_t>(p)];
      std::vector<const CountedRelation*> pieces;
      for (int a : pspec.atom_indices) {
        pieces.push_back(&s[static_cast<size_t>(a)]);
      }
      if (tree.Parent(p) != -1) {
        pieces.push_back(&*top_use[static_cast<size_t>(p)]);
      }
      for (int sibling : tree.Neighbors(bag)) {
        pieces.push_back(&*bot_use[static_cast<size_t>(sibling)]);
      }
      CountedRelation folded = FoldJoin(std::move(pieces), options.join);
      AttributeSet link = Intersect(spec.vars, pspec.vars);
      top_full[static_cast<size_t>(bag)] = GroupBySum(folded, link, &ctx);
      top_use[static_cast<size_t>(bag)] =
          maybe_truncate(*top_full[static_cast<size_t>(bag)]);
      if (options.capture != nullptr && pspec.atom_indices.size() >= 2) {
        options.capture->top_join[static_cast<size_t>(bag)] =
            std::move(folded);
      }
    }
  }

  // Multiplicity tables T_a (Eq. 6 generalized: within-bag co-atoms join
  // in), one per atom; the winner reduction runs afterwards in atom order.
  SensitivityResult result;
  result.local_sensitivity = Count::Zero();
  result.atoms.resize(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) {
    AtomSensitivity& out = result.atoms[static_cast<size_t>(a)];
    out.atom_index = a;
    out.relation = q.atom(a).relation;
    out.table_attrs = q.SharedVarsOf(a);
    out.free_vars = q.ExclusiveVarsOf(a);
    out.max_sensitivity = Count::Zero();
    if (std::find(options.skip_atoms.begin(), options.skip_atoms.end(), a) !=
        options.skip_atoms.end()) {
      out.skipped = true;
      continue;
    }

    const int v = bag_of[static_cast<size_t>(a)];
    const int t = ghd.forest.TreeOf(v);
    LSENS_CHECK(t >= 0);
    const JoinTree& tree = ghd.forest.trees[static_cast<size_t>(t)];

    std::vector<const CountedRelation*> pieces;
    if (tree.Parent(v) != -1) {
      pieces.push_back(&*top_full[static_cast<size_t>(v)]);
    }
    for (int c : tree.Children(v)) {
      pieces.push_back(&*bot_full[static_cast<size_t>(c)]);
    }
    for (int b : ghd.bags[static_cast<size_t>(v)].atom_indices) {
      if (b != a) pieces.push_back(&s[static_cast<size_t>(b)]);
    }

    // Scale factor from the other connected components (§5.4 disconnected
    // join trees): adding a tuple here combines with every full result of
    // the other components.
    Count scale = Count::One();
    for (size_t t2 = 0; t2 < num_trees; ++t2) {
      if (t2 != static_cast<size_t>(t)) scale *= tree_total[t2];
    }

    // Fold each attribute-connectivity component separately;
    // T_a = ⨯ components, and γ/max/argmax distribute over the product.
    std::vector<std::vector<size_t>> components =
        ConnectivityComponents(pieces);
    std::vector<CountedRelation> comp_tables;
    comp_tables.reserve(components.size());
    Count max_product = scale;
    for (const auto& comp : components) {
      std::vector<const CountedRelation*> comp_pieces;
      AttributeSet comp_attrs;
      for (size_t idx : comp) {
        comp_pieces.push_back(pieces[idx]);
        comp_attrs = Union(comp_attrs, pieces[idx]->attrs());
      }
      AttributeSet group = Intersect(out.table_attrs, comp_attrs);
      const bool group_is_full = group == comp_attrs;
      // Only the max row matters when nothing keeps the table and no
      // predicate filters its rows; a grouping fold of two or more pieces
      // then never needs materializing.
      if (!options.keep_tables && options.capture == nullptr &&
          comp.size() >= 2 && !group_is_full &&
          !PredicatesTouch(q.atom(a), group)) {
        CountedRelation table =
            MaxOnlyTable(std::move(comp_pieces), group, options.join, ctx);
        max_product *= table.MaxCount();
        comp_tables.push_back(std::move(table));
        continue;
      }
      CountedRelation folded = FoldJoin(std::move(comp_pieces), options.join);
      TSensCapture::AtomComponent* cap = nullptr;
      if (options.capture != nullptr) {
        cap = &options.capture->atom_components[static_cast<size_t>(a)]
                   .emplace_back();
        // Multi-piece folds must be kept whole (no single piece covers
        // them); grouped tables only when grouping actually projected.
        if (comp.size() >= 2) cap->join = folded;
      }
      CountedRelation table = group_is_full
                                  ? std::move(folded)
                                  : GroupBySum(folded, group, &ctx);
      if (cap != nullptr && !group_is_full) cap->table = table;
      ApplyPredicates(q.atom(a), &table);
      max_product *= table.MaxCount();
      comp_tables.push_back(std::move(table));
    }
    out.max_sensitivity = max_product;
    out.approximate = truncation_applied;

    // Stitch the argmax row from the per-component argmax rows.
    if (!out.max_sensitivity.IsZero()) {
      bool argmax_known = true;
      std::vector<Value> argmax(out.table_attrs.size(), 0);
      for (const CountedRelation& table : comp_tables) {
        size_t r = table.ArgMaxRow();
        if (table.arity() == 0) continue;  // scalar component, no values
        if (r == SIZE_MAX) {
          argmax_known = false;  // empty or attained by a top-k default
          break;
        }
        std::span<const Value> row = table.Row(r);
        for (size_t j = 0; j < table.attrs().size(); ++j) {
          auto it = std::lower_bound(out.table_attrs.begin(),
                                     out.table_attrs.end(), table.attrs()[j]);
          LSENS_CHECK(it != out.table_attrs.end() && *it == table.attrs()[j]);
          argmax[static_cast<size_t>(it - out.table_attrs.begin())] = row[j];
        }
      }
      if (argmax_known) out.argmax = std::move(argmax);
    }

    if (options.keep_tables) {
      // Materialize the cross product of the components (all pairwise
      // attribute-disjoint, so FoldJoin emits pure cross products).
      std::vector<const CountedRelation*> comp_ptrs;
      for (const auto& ct : comp_tables) comp_ptrs.push_back(&ct);
      CountedRelation table =
          comp_tables.empty() ? CountedRelation::Unit()
                              : FoldJoin(std::move(comp_ptrs), options.join);
      // FoldJoin rejects all-defaulted inputs; top-k combined with
      // keep_tables is not supported (exact tables are the point).
      table.ScaleCounts(scale, &ctx);
      if (table.attrs() != out.table_attrs) {
        // Components may be scalars (empty attrs); regroup to be safe.
        table = GroupBySum(table, Intersect(out.table_attrs, table.attrs()),
                           &ctx);
      }
      out.table = std::move(table);
    }
  }

  for (int a = 0; a < num_atoms; ++a) {
    const AtomSensitivity& out = result.atoms[static_cast<size_t>(a)];
    if (out.max_sensitivity > result.local_sensitivity ||
        (result.argmax_atom == -1 && !out.max_sensitivity.IsZero())) {
      result.local_sensitivity = out.max_sensitivity;
      result.argmax_atom = a;
    }
  }
  if (options.capture != nullptr) {
    options.capture->s_sig.clear();
    options.capture->s_sig.reserve(s.size());
    for (size_t a = 0; a < s.size(); ++a) {
      options.capture->s_sig.push_back(CanonicalSourceSignature(
          q.atom(static_cast<int>(a)), s[a].attrs()));
    }
    options.capture->s = std::move(s);
    options.capture->bot = std::move(bot_full);
    options.capture->top = std::move(top_full);
    options.capture->tree_total = tree_total;
  }
  return result;
}

StatusOr<std::vector<Count>> TupleSensitivities(const SensitivityResult& result,
                                                const ConjunctiveQuery& q,
                                                const Database& db,
                                                int atom_index,
                                                const TSensOptions& options) {
  if (atom_index < 0 || atom_index >= static_cast<int>(result.atoms.size())) {
    return Status::InvalidArgument("atom index out of range");
  }
  const AtomSensitivity& as = result.atoms[static_cast<size_t>(atom_index)];
  if (!as.table.has_value()) {
    return Status::InvalidArgument(
        "multiplicity table not stored; compute with keep_tables = true");
  }
  const Atom& atom = q.atom(atom_index);
  auto rel_or = db.Get(atom.relation);
  if (!rel_or.ok()) return rel_or.status();
  const Relation& rel = **rel_or;

  // Column routing: table attr j lives at relation column cols[j].
  std::vector<size_t> cols(as.table_attrs.size());
  for (size_t j = 0; j < as.table_attrs.size(); ++j) {
    size_t c = 0;
    while (atom.vars[c] != as.table_attrs[j]) ++c;
    cols[j] = c;
  }
  std::vector<size_t> pred_cols(atom.predicates.size());
  for (size_t p = 0; p < atom.predicates.size(); ++p) {
    size_t c = 0;
    while (atom.vars[c] != atom.predicates[p].var) ++c;
    pred_cols[p] = c;
  }

  // Per-tuple δ lookups in the multiplicity table. The scan reads the
  // relation's key and predicate columns directly — resolved to column
  // spans once here — instead of materializing row tuples.
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  OpTimer op(ctx, "tsens.tuple_sens", rel.NumRows());
  const size_t n = rel.NumRows();
  std::vector<std::span<const Value>> key_spans(cols.size());
  for (size_t j = 0; j < cols.size(); ++j) key_spans[j] = rel.Column(cols[j]);
  std::vector<std::span<const Value>> pred_spans(pred_cols.size());
  for (size_t p = 0; p < pred_cols.size(); ++p) {
    pred_spans[p] = rel.Column(pred_cols[p]);
  }
  std::vector<Count> out(n, Count::Zero());
  std::vector<Value> key(cols.size());
  for (size_t i = 0; i < n; ++i) {
    bool pass = true;
    for (size_t p = 0; p < atom.predicates.size() && pass; ++p) {
      pass = atom.predicates[p].Eval(pred_spans[p][i]);
    }
    if (!pass) continue;
    for (size_t j = 0; j < cols.size(); ++j) key[j] = key_spans[j][i];
    out[i] = as.table->Lookup(key);
  }
  op.set_rows_out(n);
  return out;
}

}  // namespace lsens
