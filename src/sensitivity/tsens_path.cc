#include "sensitivity/tsens_path.h"

#include <algorithm>
#include <utility>

namespace lsens {

StatusOr<SensitivityDataflow> BuildChainDataflow(
    const ConjunctiveQuery& q, const std::vector<int>& order,
    const std::vector<int>& skip_atoms) {
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

  // S_i: counted projections onto the link attributes.
  SensitivityDataflow df;
  std::vector<int> s(m);
  for (size_t i = 0; i < m; ++i) {
    AttributeSet keep;
    if (i > 0) keep.push_back(link[i - 1]);
    if (i + 1 < m) keep.push_back(link[i]);
    keep = MakeAttributeSet(std::move(keep));
    if (!IsSubset(keep, q.atom(order[i]).VarSet())) {
      return Status::InvalidArgument("order is not a chain over the atoms");
    }
    s[i] = df.AddSource(q, order[i], std::move(keep));
  }

  // Topjoins ⊤_i = γ_{link[i-1]} r⋈(S_{i-1}, ⊤_{i-1}), ⊤_1 = γ(S_0), and
  // botjoins ⊥_i = γ_{link[i-1]} r⋈(S_i, ⊥_{i+1}), ⊥_{m-1} = γ(S_{m-1}),
  // for i in [1, m-1].
  std::vector<int> top(m, -1);
  std::vector<int> bot(m, -1);
  for (size_t i = 1; i < m; ++i) {
    std::vector<int> children = {s[i - 1]};
    if (i >= 2) children.push_back(top[i - 1]);
    top[i] = df.AddGroup(std::move(children), AttributeSet{link[i - 1]},
                         /*link=*/true, /*component=*/false);
  }
  for (size_t i = m - 1; i >= 1; --i) {
    std::vector<int> children = {s[i]};
    if (i + 1 < m) children.push_back(bot[i + 1]);
    bot[i] = df.AddGroup(std::move(children), AttributeSet{link[i - 1]},
                         /*link=*/true, /*component=*/false);
  }

  // δ_i = max ⊤_i · max ⊥_{i+1}: ⊤ and ⊥ share no attribute, so they are
  // the two components of T_i, and its cross product is never built.
  for (size_t i = 0; i < m; ++i) {
    DataflowAtom unit;
    unit.atom = order[i];
    unit.skipped = std::find(skip_atoms.begin(), skip_atoms.end(),
                             order[i]) != skip_atoms.end();
    if (!unit.skipped) {
      unit.components = {i == 0 ? -1 : top[i], i + 1 == m ? -1 : bot[i + 1]};
    }
    df.assembly.push_back(std::move(unit));
  }
  return df;
}

StatusOr<SensitivityResult> TSensPath(const ConjunctiveQuery& q,
                                      const std::vector<int>& order,
                                      const Database& db,
                                      const TSensOptions& options) {
  if (options.keep_tables) {
    return Status::Unsupported(
        "TSensPath never materializes multiplicity tables; use TSensOverGhd");
  }
  auto df = BuildChainDataflow(q, order, options.skip_atoms);
  if (!df.ok()) return df.status();
  return EvaluateDataflow(q, *df, db, options);
}

}  // namespace lsens
