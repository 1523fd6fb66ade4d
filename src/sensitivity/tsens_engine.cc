#include "sensitivity/tsens_engine.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "exec/exec_context.h"
#include "exec/group_max.h"
#include "query/atom_scan.h"

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

// Partitions pieces, given by their attributes, into attribute-connectivity
// components: pieces sharing a variable transitively end up together, in
// first-piece order; an empty-attr piece is a singleton component acting as
// a scalar.
std::vector<std::vector<size_t>> ConnectivityComponents(
    const std::vector<AttributeSet>& pieces) {
  const size_t n = pieces.size();
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (Intersects(pieces[i], pieces[j])) parent[find(i)] = find(j);
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

// §5.4 scale factor of an atom in `tree`: a tuple added there combines with
// every full result of the other trees.
Count TreeScale(std::span<const Count> tree_totals, int tree) {
  Count scale = Count::One();
  for (size_t t = 0; t < tree_totals.size(); ++t) {
    if (t != static_cast<size_t>(tree)) scale *= tree_totals[t];
  }
  return scale;
}

}  // namespace

int SensitivityDataflow::AddSource(const ConjunctiveQuery& q, int atom,
                                   AttributeSet keep) {
  DataflowNode node;
  node.kind = DataflowNode::Kind::kSource;
  node.sig = CanonicalSourceSignature(q.atom(atom), keep);
  node.atom = atom;
  node.attrs = std::move(keep);
  nodes.push_back(std::move(node));
  return static_cast<int>(nodes.size() - 1);
}

int SensitivityDataflow::AddGroup(std::vector<int> children,
                                  AttributeSet group, bool link,
                                  bool component) {
  const DataflowNode& driver = nodes[static_cast<size_t>(children[0])];
  std::vector<CanonicalChild> inputs;
  for (size_t i = 1; i < children.size(); ++i) {
    const DataflowNode& input = nodes[static_cast<size_t>(children[i])];
    inputs.push_back(CanonicalChild{input.sig,
                                    PositionsOf(driver.attrs, input.attrs)});
  }
  DataflowNode node;
  node.kind = DataflowNode::Kind::kGroup;
  node.sig = CanonicalGroupSignature(
      driver.sig, PositionsOf(driver.attrs, group), std::move(inputs));
  node.attrs = std::move(group);
  node.children = std::move(children);
  node.link = link;
  node.component = component;
  nodes.push_back(std::move(node));
  return static_cast<int>(nodes.size() - 1);
}

int SensitivityDataflow::AddJoin(std::vector<int> children, bool component) {
  AttributeSet scope;
  for (int c : children) {
    scope = Union(scope, nodes[static_cast<size_t>(c)].attrs);
  }
  std::vector<CanonicalChild> pieces;
  for (int c : children) {
    const DataflowNode& piece = nodes[static_cast<size_t>(c)];
    pieces.push_back(
        CanonicalChild{piece.sig, PositionsOf(scope, piece.attrs)});
  }
  DataflowNode node;
  node.kind = DataflowNode::Kind::kJoin;
  node.sig = CanonicalJoinSignature(std::move(pieces));
  node.attrs = std::move(scope);
  node.children = std::move(children);
  node.component = component;
  nodes.push_back(std::move(node));
  return static_cast<int>(nodes.size() - 1);
}

StatusOr<SensitivityDataflow> BuildGhdDataflow(
    const ConjunctiveQuery& q, const Ghd& ghd,
    const std::vector<int>& skip_atoms) {
  const int num_atoms = q.num_atoms();
  const size_t num_bags = ghd.bags.size();
  std::vector<int> bag_of(static_cast<size_t>(num_atoms), -1);
  for (size_t v = 0; v < num_bags; ++v) {
    for (int a : ghd.bags[v].atom_indices) {
      if (a < 0 || a >= num_atoms) {
        return Status::InvalidArgument("GHD names atom " + std::to_string(a) +
                                       " outside the query");
      }
      bag_of[static_cast<size_t>(a)] = static_cast<int>(v);
    }
  }
  for (int a = 0; a < num_atoms; ++a) {
    if (bag_of[static_cast<size_t>(a)] == -1) {
      return Status::InvalidArgument("GHD does not cover atom " +
                                     std::to_string(a));
    }
  }

  // S_a: shared-variable projections.
  SensitivityDataflow df;
  std::vector<int> s(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) {
    s[static_cast<size_t>(a)] = df.AddSource(q, a, q.SharedVarsOf(a));
  }
  // One bag's fold grouped onto `group`: a single-atom bag in driver form,
  // a multi-atom bag as a join node then a group node.
  auto fold = [&](const GhdBag& bag, std::vector<int> pieces,
                  AttributeSet group) {
    if (bag.atom_indices.size() == 1) {
      return df.AddGroup(std::move(pieces), std::move(group), /*link=*/true,
                         /*component=*/false);
    }
    const int join = df.AddJoin(std::move(pieces), /*component=*/false);
    return df.AddGroup({join}, std::move(group), /*link=*/true,
                       /*component=*/false);
  };
  auto bag_sources = [&](const GhdBag& bag) {
    std::vector<int> pieces;
    for (int a : bag.atom_indices) pieces.push_back(s[static_cast<size_t>(a)]);
    return pieces;
  };

  const size_t num_trees = ghd.forest.trees.size();
  std::vector<int> bot(num_bags, -1);
  std::vector<int> top(num_bags, -1);
  for (size_t t = 0; t < num_trees; ++t) {
    const JoinTree& tree = ghd.forest.trees[t];
    // ⊥(v) = γ_{vars(v) ∩ vars(parent)} r⋈({S_a : a ∈ v}, {⊥(c)}), leaves
    // to root (Eq. 7 generalized to bags). The root's full fold is the
    // tree's join size, needed only as the other trees' scale factor.
    for (int bag : tree.PostOrder()) {
      const GhdBag& spec = ghd.bags[static_cast<size_t>(bag)];
      std::vector<int> pieces = bag_sources(spec);
      for (int c : tree.Children(bag)) {
        pieces.push_back(bot[static_cast<size_t>(c)]);
      }
      const int parent = tree.Parent(bag);
      if (parent != -1) {
        bot[static_cast<size_t>(bag)] = fold(
            spec, std::move(pieces),
            Intersect(spec.vars, ghd.bags[static_cast<size_t>(parent)].vars));
      } else if (num_trees >= 2) {
        int total;
        if (spec.atom_indices.size() == 1) {
          AttributeSet all = df.nodes[static_cast<size_t>(pieces[0])].attrs;
          total = df.AddGroup(std::move(pieces), std::move(all),
                              /*link=*/false, /*component=*/false);
        } else {
          total = df.AddJoin(std::move(pieces), /*component=*/false);
        }
        df.tree_totals.push_back(total);
      }
    }
    // ⊤(v) = γ_{vars(v) ∩ vars(p)} r⋈({S_a : a ∈ p}, ⊤(p), {⊥(sibling)}),
    // root to leaves (Eq. 8 generalized to bags).
    for (int bag : tree.PreOrder()) {
      const int p = tree.Parent(bag);
      if (p == -1) continue;
      const GhdBag& pspec = ghd.bags[static_cast<size_t>(p)];
      std::vector<int> pieces = bag_sources(pspec);
      if (tree.Parent(p) != -1) pieces.push_back(top[static_cast<size_t>(p)]);
      for (int sibling : tree.Neighbors(bag)) {
        pieces.push_back(bot[static_cast<size_t>(sibling)]);
      }
      top[static_cast<size_t>(bag)] =
          fold(pspec, std::move(pieces),
               Intersect(ghd.bags[static_cast<size_t>(bag)].vars, pspec.vars));
    }
  }

  // T_a = γ_{shared(a)} r⋈(⊤(bag(a)), {⊥(c) : c child}, {S_b : b ∈ bag(a),
  // b ≠ a}) (Eq. 6 generalized), one node per attribute-connectivity
  // component: T_a = ⨯ components, and γ/max/argmax distribute over the
  // product. A component that is one piece already grouped onto T_a's
  // attributes is read in place.
  for (int a = 0; a < num_atoms; ++a) {
    DataflowAtom unit;
    unit.atom = a;
    const int v = bag_of[static_cast<size_t>(a)];
    unit.tree = ghd.forest.TreeOf(v);
    LSENS_CHECK(unit.tree >= 0);
    unit.skipped = std::find(skip_atoms.begin(), skip_atoms.end(), a) !=
                   skip_atoms.end();
    if (unit.skipped) {
      df.assembly.push_back(std::move(unit));
      continue;
    }
    const JoinTree& tree = ghd.forest.trees[static_cast<size_t>(unit.tree)];
    std::vector<int> pieces;
    if (tree.Parent(v) != -1) pieces.push_back(top[static_cast<size_t>(v)]);
    for (int c : tree.Children(v)) {
      pieces.push_back(bot[static_cast<size_t>(c)]);
    }
    for (int b : ghd.bags[static_cast<size_t>(v)].atom_indices) {
      if (b != a) pieces.push_back(s[static_cast<size_t>(b)]);
    }
    // Copies: adding component nodes below may move df.nodes.
    std::vector<AttributeSet> piece_attrs;
    for (int piece : pieces) {
      piece_attrs.push_back(df.nodes[static_cast<size_t>(piece)].attrs);
    }
    const AttributeSet table_attrs = q.SharedVarsOf(a);
    for (const std::vector<size_t>& comp :
         ConnectivityComponents(piece_attrs)) {
      std::vector<int> comp_pieces;
      AttributeSet comp_attrs;
      for (size_t idx : comp) {
        comp_pieces.push_back(pieces[idx]);
        comp_attrs = Union(comp_attrs, piece_attrs[idx]);
      }
      AttributeSet group = Intersect(table_attrs, comp_attrs);
      int node = comp_pieces.size() == 1
                     ? comp_pieces[0]
                     : df.AddJoin(std::move(comp_pieces), /*component=*/true);
      if (group != comp_attrs) {
        node = df.AddGroup({node}, std::move(group), /*link=*/false,
                           /*component=*/true);
      }
      unit.components.push_back(node);
    }
    df.assembly.push_back(std::move(unit));
  }
  return df;
}

StatusOr<SensitivityResult> EvaluateDataflow(
    const ConjunctiveQuery& q, const SensitivityDataflow& df,
    const Database& db, const TSensOptions& options,
    std::vector<CountedRelation>* tables) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  const std::vector<DataflowNode>& nodes = df.nodes;
  const size_t n = nodes.size();
  const size_t num_units = df.assembly.size();

  // Who reads each table: later nodes, and the (unit, slot) components of
  // the assembly.
  std::vector<int> num_consumers(n, 0);
  for (const DataflowNode& node : nodes) {
    for (int c : node.children) ++num_consumers[static_cast<size_t>(c)];
  }
  std::vector<std::vector<std::pair<size_t, size_t>>> readers(n);
  std::vector<size_t> pending(num_units, 0);
  for (size_t u = 0; u < num_units; ++u) {
    const std::vector<int>& comps = df.assembly[u].components;
    for (size_t c = 0; c < comps.size(); ++c) {
      if (comps[c] < 0) continue;
      readers[static_cast<size_t>(comps[c])].emplace_back(u, c);
      ++pending[u];
    }
  }

  // Only the max row matters for a component that groups a join when no
  // table is kept and no predicate filters its rows: GroupMax reads it
  // from the join's pieces and the join is never materialized.
  std::vector<bool> max_only(n, false);
  std::vector<bool> fused(n, false);  // a join only a max-only node reads
  if (tables == nullptr && !options.keep_tables) {
    for (size_t i = 0; i < n; ++i) {
      const DataflowNode& node = nodes[i];
      if (node.kind != DataflowNode::Kind::kGroup || !node.component ||
          node.children.size() != 1 || num_consumers[i] != 0 ||
          readers[i].size() != 1) {
        continue;
      }
      const size_t j = static_cast<size_t>(node.children[0]);
      const int atom = df.assembly[readers[i][0].first].atom;
      if (nodes[j].kind == DataflowNode::Kind::kJoin &&
          num_consumers[j] == 1 && !PredicatesTouch(q.atom(atom), node.attrs)) {
        max_only[i] = true;
        fused[j] = true;
      }
    }
  }
  auto reads = [&](size_t i) -> const std::vector<int>& {
    return max_only[i]
               ? nodes[static_cast<size_t>(nodes[i].children[0])].children
               : nodes[i].children;
  };
  // A join or component table is dropped after the last node reading it
  // (the assembly reads a table at the node itself). S and ⊥/⊤ tables live
  // for the whole compute, as the algorithms keep them, and a caller taking
  // the tables keeps every one.
  auto transient = [&](size_t i) {
    return tables == nullptr && nodes[i].kind != DataflowNode::Kind::kSource &&
           !nodes[i].link;
  };
  std::vector<size_t> last_use(n);
  for (size_t i = 0; i < n; ++i) last_use[i] = i;
  for (size_t i = 0; i < n; ++i) {
    if (fused[i]) continue;
    for (int c : reads(i)) {
      last_use[static_cast<size_t>(c)] =
          std::max(last_use[static_cast<size_t>(c)], i);
    }
  }
  std::vector<int> total_of(n, -1);
  for (size_t t = 0; t < df.tree_totals.size(); ++t) {
    total_of[static_cast<size_t>(df.tree_totals[t])] = static_cast<int>(t);
  }

  // Per node its table and, for a link table under top_k, the truncated
  // copy the recursions fold.
  std::vector<std::optional<CountedRelation>> full(n);
  std::vector<std::optional<CountedRelation>> cut(n);
  std::vector<Count> totals(df.tree_totals.size(), Count::Zero());
  std::vector<std::vector<ComponentMax>> parts(num_units);
  // keep_tables: each atom's filtered components, then their cross product.
  std::vector<std::vector<std::optional<CountedRelation>>> kept(num_units);
  std::vector<std::optional<CountedRelation>> t_tables(num_units);
  auto cross = [&](size_t u) {
    std::vector<const CountedRelation*> comps;
    for (const auto& table : kept[u]) {
      if (table.has_value()) comps.push_back(&*table);
    }
    // Components are pairwise attribute-disjoint: a pure cross product.
    t_tables[u] = comps.empty() ? CountedRelation::Unit()
                                : FoldJoin(std::move(comps), options.join);
    kept[u].clear();
  };
  for (size_t u = 0; u < num_units; ++u) {
    parts[u].resize(df.assembly[u].components.size());
    kept[u].resize(df.assembly[u].components.size());
    if (options.keep_tables && !df.assembly[u].skipped && pending[u] == 0) {
      cross(u);
    }
  }
  bool truncated = false;

  for (size_t i = 0; i < n; ++i) {
    if (fused[i]) continue;
    const DataflowNode& node = nodes[i];
    std::vector<const CountedRelation*> pieces;
    for (int c : reads(i)) {
      const size_t child = static_cast<size_t>(c);
      LSENS_CHECK(full[child].has_value());
      pieces.push_back(!node.component && cut[child].has_value()
                           ? &*cut[child]
                           : &*full[child]);
    }
    CountedRelation table(AttributeSet{});
    switch (node.kind) {
      case DataflowNode::Kind::kSource: {
        const Atom& atom = q.atom(node.atom);
        auto rel = db.Get(atom.relation);
        if (!rel.ok()) return rel.status();
        table = ScanAtom(**rel, atom, node.attrs, &ctx);
        break;
      }
      case DataflowNode::Kind::kJoin:
        table = FoldJoin(std::move(pieces), options.join);
        break;
      case DataflowNode::Kind::kGroup:
        if (max_only[i]) {
          table = MaxOnlyTable(std::move(pieces), node.attrs, options.join,
                               ctx);
        } else if (pieces.size() == 1) {
          table = GroupBySum(*pieces[0], node.attrs, &ctx);
        } else {
          CountedRelation folded = FoldJoin(std::move(pieces), options.join);
          table = folded.attrs() == node.attrs
                      ? std::move(folded)
                      : GroupBySum(folded, node.attrs, &ctx);
        }
        break;
    }
    if (total_of[i] >= 0) {
      totals[static_cast<size_t>(total_of[i])] = table.TotalCount();
    }
    // Each reading atom's view: the table filtered by its predicates (an
    // inserted tuple must satisfy them), reduced to its max and argmax.
    for (const auto& [u, slot] : readers[i]) {
      const Atom& atom = q.atom(df.assembly[u].atom);
      std::optional<CountedRelation> filtered;
      if (PredicatesTouch(atom, table.attrs())) {
        filtered = table;
        ApplyPredicates(atom, &*filtered);
      }
      const CountedRelation& view = filtered.has_value() ? *filtered : table;
      ComponentMax& part = parts[u][slot];
      part.max = view.MaxCount();
      const size_t r = view.ArgMaxRow();
      if (r != SIZE_MAX) {
        std::span<const Value> row = view.Row(r);
        part.argmax.assign(row.begin(), row.end());
      }
      if (options.keep_tables) {
        kept[u][slot] = filtered.has_value() ? *std::move(filtered) : table;
        if (--pending[u] == 0) cross(u);
      }
    }
    if (node.link && options.top_k > 0 && table.NumRows() > options.top_k) {
      cut[i] = table;
      cut[i]->TruncateTopK(options.top_k, &ctx);
      truncated = true;
    }
    full[i] = std::move(table);
    for (int c : reads(i)) {
      const size_t child = static_cast<size_t>(c);
      if (transient(child) && last_use[child] == i) full[child].reset();
    }
    if (transient(i) && last_use[i] == i) full[i].reset();
  }

  SensitivityResult result = AssembleSensitivity(
      q, df, totals, [&](size_t u, size_t c) -> const ComponentMax& {
        return parts[u][c];
      });
  for (size_t u = 0; u < num_units; ++u) {
    const DataflowAtom& unit = df.assembly[u];
    if (unit.skipped) continue;
    AtomSensitivity& out = result.atoms[static_cast<size_t>(unit.atom)];
    out.approximate = truncated;
    if (!options.keep_tables) continue;
    CountedRelation table = *std::move(t_tables[u]);
    // FoldJoin rejects all-defaulted inputs; top-k combined with
    // keep_tables is not supported (exact tables are the point).
    table.ScaleCounts(TreeScale(totals, unit.tree), &ctx);
    if (table.attrs() != out.table_attrs) {
      // Components may be scalars (empty attrs); regroup to be safe.
      table = GroupBySum(table, Intersect(out.table_attrs, table.attrs()),
                         &ctx);
    }
    out.table = std::move(table);
  }
  if (tables != nullptr) {
    tables->clear();
    tables->reserve(n);
    for (std::optional<CountedRelation>& table : full) {
      tables->push_back(*std::move(table));
    }
  }
  return result;
}

SensitivityResult AssembleSensitivity(
    const ConjunctiveQuery& q, const SensitivityDataflow& df,
    std::span<const Count> tree_totals,
    const std::function<const ComponentMax&(size_t, size_t)>& part) {
  SensitivityResult result;
  result.atoms.resize(static_cast<size_t>(q.num_atoms()));
  for (size_t u = 0; u < df.assembly.size(); ++u) {
    const DataflowAtom& unit = df.assembly[u];
    AtomSensitivity& out = result.atoms[static_cast<size_t>(unit.atom)];
    out.atom_index = unit.atom;
    out.relation = q.atom(unit.atom).relation;
    out.table_attrs = q.SharedVarsOf(unit.atom);
    out.free_vars = q.ExclusiveVarsOf(unit.atom);
    out.max_sensitivity = Count::Zero();
    if (unit.skipped) {
      out.skipped = true;
      continue;
    }
    // The unit relation's max is 1, and it binds no attribute.
    Count product = TreeScale(tree_totals, unit.tree);
    for (size_t c = 0; c < unit.components.size(); ++c) {
      if (unit.components[c] >= 0) product *= part(u, c).max;
    }
    out.max_sensitivity = product;
    if (product.IsZero()) continue;
    // Stitch the argmax row from the components' argmax rows.
    std::vector<Value> argmax(out.table_attrs.size(), 0);
    bool known = true;
    for (size_t c = 0; c < unit.components.size() && known; ++c) {
      if (unit.components[c] < 0) continue;
      const AttributeSet& attrs =
          df.nodes[static_cast<size_t>(unit.components[c])].attrs;
      const ComponentMax& p = part(u, c);
      known = p.argmax.size() == attrs.size();
      for (size_t j = 0; j < attrs.size() && known; ++j) {
        auto it = std::lower_bound(out.table_attrs.begin(),
                                   out.table_attrs.end(), attrs[j]);
        LSENS_CHECK(it != out.table_attrs.end() && *it == attrs[j]);
        argmax[static_cast<size_t>(it - out.table_attrs.begin())] =
            p.argmax[j];
      }
    }
    if (known) out.argmax = std::move(argmax);
  }
  ReduceWinner(&result);
  return result;
}

void ReduceWinner(SensitivityResult* result) {
  result->local_sensitivity = Count::Zero();
  result->argmax_atom = -1;
  for (size_t a = 0; a < result->atoms.size(); ++a) {
    const Count max = result->atoms[a].max_sensitivity;
    if (max > result->local_sensitivity) {
      result->local_sensitivity = max;
      result->argmax_atom = static_cast<int>(a);
    }
  }
}

StatusOr<SensitivityResult> TSensOverGhd(const ConjunctiveQuery& q,
                                         const Ghd& ghd, const Database& db,
                                         const TSensOptions& options) {
  auto df = BuildGhdDataflow(q, ghd, options.skip_atoms);
  if (!df.ok()) return df.status();
  return EvaluateDataflow(q, *df, db, options);
}

StatusOr<std::vector<Count>> TupleSensitivities(const SensitivityResult& result,
                                                const ConjunctiveQuery& q,
                                                const Database& db,
                                                int atom_index,
                                                const TSensOptions& options) {
  if (Status valid = q.Validate(db); !valid.ok()) {
    return Status::InvalidArgument("query does not match the database: " +
                                   valid.message());
  }
  if (atom_index < 0 || atom_index >= q.num_atoms() ||
      atom_index >= static_cast<int>(result.atoms.size())) {
    return Status::InvalidArgument("atom index out of range");
  }
  const AtomSensitivity& as = result.atoms[static_cast<size_t>(atom_index)];
  if (!as.table.has_value()) {
    return Status::InvalidArgument(
        "multiplicity table not stored; compute with keep_tables = true");
  }
  const Atom& atom = q.atom(atom_index);
  // The column routing below finds every table attribute among the atom's
  // variables, so a result computed for another query is refused here.
  if (as.relation != atom.relation ||
      !IsSubset(as.table_attrs, atom.VarSet())) {
    return Status::InvalidArgument(
        "result was computed for another query: atom " +
        std::to_string(atom_index) + " does not bind its table");
  }
  const Relation& rel = *db.Find(atom.relation);

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
