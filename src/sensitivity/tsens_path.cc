#include "sensitivity/tsens_path.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "query/atom_scan.h"

namespace lsens {

StatusOr<SensitivityResult> TSensPath(const ConjunctiveQuery& q,
                                      const std::vector<int>& order,
                                      const Database& db,
                                      const TSensOptions& options) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  if (options.keep_tables) {
    return Status::Unsupported(
        "TSensPath never materializes multiplicity tables; use TSensOverGhd");
  }
  const size_t m = order.size();
  if (m != static_cast<size_t>(q.num_atoms()) || m < 2) {
    return Status::InvalidArgument("order must list all >= 2 atoms");
  }

  // Link attribute between chain positions i and i+1.
  std::vector<AttrId> link(m - 1, kInvalidAttr);
  for (size_t i = 0; i + 1 < m; ++i) {
    AttributeSet common =
        Intersect(q.atom(order[i]).VarSet(), q.atom(order[i + 1]).VarSet());
    if (common.size() != 1) {
      return Status::InvalidArgument(
          "not a single-attribute-link path query at position " +
          std::to_string(i));
    }
    link[i] = common[0];
  }

  // S_i: counted projections onto the link attributes (predicates
  // applied).
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  std::vector<CountedRelation> s;
  s.reserve(m);
  std::vector<AttributeSet> keeps(m);
  for (size_t i = 0; i < m; ++i) {
    const Atom& atom = q.atom(order[i]);
    auto rel = db.Get(atom.relation);
    if (!rel.ok()) return rel.status();
    AttributeSet keep;
    if (i > 0) keep.push_back(link[i - 1]);
    if (i + 1 < m) keep.push_back(link[i]);
    keep = MakeAttributeSet(std::move(keep));
    if (!IsSubset(keep, atom.VarSet())) {
      return Status::InvalidArgument("order is not a chain over the atoms");
    }
    s.push_back(ScanAtom(**rel, atom, keep, &ctx));
    keeps[i] = std::move(keep);
  }

  bool truncation_applied = false;
  auto maybe_truncate = [&](CountedRelation* r) {
    if (options.top_k > 0 && r->NumRows() > options.top_k) {
      r->TruncateTopK(options.top_k, &ctx);
      truncation_applied = true;
    }
  };

  // Topjoins: J[i] = γ_{link[i-1]} r⋈(J[i-1], S_{i-1}); J[1] = γ(S_0).
  // (0-based: J[i] defined for i in [1, m-1].)
  std::vector<CountedRelation> topjoin;
  topjoin.reserve(m);
  topjoin.emplace_back(AttributeSet{});  // J[0] placeholder, unused
  for (size_t i = 1; i < m; ++i) topjoin.emplace_back(AttributeSet{});
  for (size_t i = 1; i < m; ++i) {
    AttributeSet group{link[i - 1]};
    CountedRelation j =
        (i == 1) ? GroupBySum(s[0], group, &ctx)
                 : GroupBySum(
                       NaturalJoin(s[i - 1], topjoin[i - 1], options.join),
                       group, &ctx);
    maybe_truncate(&j);
    topjoin[i] = std::move(j);
  }

  // Botjoins: K[i] = γ_{link[i-1]} r⋈(K[i+1], S_i); K[m-1] = γ(S_{m-1}).
  // (K[i] defined for i in [1, m-1], keyed on link[i-1].)
  std::vector<CountedRelation> botjoin(m, CountedRelation(AttributeSet{}));
  for (size_t i = m; i-- > 1;) {
    AttributeSet group{link[i - 1]};
    CountedRelation k =
        (i == m - 1)
            ? GroupBySum(s[m - 1], group, &ctx)
            : GroupBySum(NaturalJoin(s[i], botjoin[i + 1], options.join),
                         group, &ctx);
    maybe_truncate(&k);
    botjoin[i] = std::move(k);
  }

  // Per-position δ_i computations: each reads the shared ⊤/⊥ chains
  // (copying a part only to filter it) and writes its own atom slot; the
  // winner reduction afterwards walks positions in chain order.
  SensitivityResult result;
  result.local_sensitivity = Count::Zero();
  result.atoms.resize(static_cast<size_t>(q.num_atoms()));
  const CountedRelation unit = CountedRelation::Unit();
  auto compute_position = [&](size_t i) {
    const int atom_index = order[i];
    AtomSensitivity& out = result.atoms[static_cast<size_t>(atom_index)];
    out.atom_index = atom_index;
    out.relation = q.atom(atom_index).relation;
    out.table_attrs = q.SharedVarsOf(atom_index);
    out.free_vars = q.ExclusiveVarsOf(atom_index);
    out.approximate = truncation_applied;
    if (std::find(options.skip_atoms.begin(), options.skip_atoms.end(),
                  atom_index) != options.skip_atoms.end()) {
      out.skipped = true;
      return;
    }

    // δ_i = max ⊤ · max ⊥, with predicate filtering on the link values:
    // an inserted tuple must itself satisfy the atom's predicates. Both
    // parts are read in place; only a part a predicate filters is copied.
    const CountedRelation* parts[2] = {
        i == 0 ? &unit : &topjoin[i], i + 1 == m ? &unit : &botjoin[i + 1]};
    std::optional<CountedRelation> filtered[2];
    const Atom& atom = q.atom(atom_index);
    for (size_t p = 0; p < 2; ++p) {
      std::vector<std::pair<int, Predicate>> checks;
      for (const Predicate& pred : atom.predicates) {
        int col = parts[p]->ColumnOf(pred.var);
        if (col >= 0) checks.emplace_back(col, pred);
      }
      if (checks.empty()) continue;
      filtered[p] = *parts[p];
      filtered[p]->Filter([&](std::span<const Value> row) {
        for (const auto& [col, pred] : checks) {
          if (!pred.Eval(row[static_cast<size_t>(col)])) return false;
        }
        return true;
      });
      parts[p] = &*filtered[p];
    }
    const CountedRelation& top_part = *parts[0];
    const CountedRelation& bot_part = *parts[1];

    Count top_max = top_part.MaxCount();
    Count bot_max = bot_part.MaxCount();
    out.max_sensitivity = top_max * bot_max;
    if (!out.max_sensitivity.IsZero()) {
      size_t rt = top_part.ArgMaxRow();
      size_t rb = bot_part.ArgMaxRow();
      bool known = (top_part.arity() == 0 || rt != SIZE_MAX) &&
                   (bot_part.arity() == 0 || rb != SIZE_MAX);
      if (known) {
        std::vector<Value> argmax(out.table_attrs.size(), 0);
        auto place = [&](const CountedRelation& part, size_t r) {
          if (part.arity() == 0) return;
          std::span<const Value> row = part.Row(r);
          for (size_t j = 0; j < part.attrs().size(); ++j) {
            auto it = std::lower_bound(out.table_attrs.begin(),
                                       out.table_attrs.end(),
                                       part.attrs()[j]);
            LSENS_CHECK(it != out.table_attrs.end() &&
                        *it == part.attrs()[j]);
            argmax[static_cast<size_t>(it - out.table_attrs.begin())] = row[j];
          }
        };
        place(top_part, rt);
        place(bot_part, rb);
        out.argmax = std::move(argmax);
      }
    }
  };

  for (size_t i = 0; i < m; ++i) compute_position(i);

  for (size_t i = 0; i < m; ++i) {
    const int atom_index = order[i];
    const AtomSensitivity& out = result.atoms[static_cast<size_t>(atom_index)];
    if (out.skipped) continue;
    if (out.max_sensitivity > result.local_sensitivity ||
        (result.argmax_atom == -1 && !out.max_sensitivity.IsZero())) {
      result.local_sensitivity = out.max_sensitivity;
      result.argmax_atom = atom_index;
    }
  }
  if (options.capture != nullptr) {
    options.capture->s_sig.clear();
    options.capture->s_sig.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      options.capture->s_sig.push_back(
          CanonicalSourceSignature(q.atom(order[i]), keeps[i]));
    }
    options.capture->s = std::move(s);
    options.capture->top.clear();
    options.capture->bot.clear();
    options.capture->top.resize(m);
    options.capture->bot.resize(m);
    for (size_t i = 1; i < m; ++i) {
      options.capture->top[i] = std::move(topjoin[i]);
      options.capture->bot[i] = std::move(botjoin[i]);
    }
  }
  return result;
}

}  // namespace lsens
