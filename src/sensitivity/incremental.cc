#include "sensitivity/incremental.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "exec/dyn_table.h"
#include "exec/exec_context.h"
#include "query/ghd.h"
#include "query/join_tree.h"

namespace lsens {

// Internal machinery. The repairable state is the plan's dataflow
// (SensitivityPlan::dataflow, the DAG the cold engines evaluate) as
// maintained tables, one per dataflow node:
//
//   sources      S_a = γ_keep(σ_pred(R_a))           one per atom / position
//   group nodes  out = γ_group(driver ⋈ inputs...)   ⊥/⊤ and component tables
//   join nodes   out[t] = Π_i pieces[i][proj_i(t)]   materialized r⋈
//
// A group node's inputs are keyed on column subsets of its driver (running
// intersection guarantees this for join trees), so a node's group `g`
// re-aggregates as
//
//   out[g] = Σ_{driver rows r, r.group = g} cnt(r) · Π_i inputs[i][r.key_i]
//
// — the exact multiset of saturating products the from-scratch FoldJoin +
// GroupBySum pipeline sums, which is why repaired tables are bit-identical
// (saturating + and · are order-independent over a fixed multiset). Repair
// applies this per changed driver row instead of re-summing the group:
// out[g] += new term − old term, with each changed key's pre-pass count
// recorded where the pass changes it; when any count involved saturates,
// the delta is not exact and the group re-aggregates as above. Where
// no single relation covers a fold — multi-atom GHD bags, multiplicity-
// table components whose pieces share attributes, the per-tree root folds
// behind the §5.4 cross-tree totals — a join node materializes the fold
// itself: pieces are normalized, so every output row combines exactly one
// row per piece and its count is a pure product, recomputable per row from
// point lookups.
//
// Cross-query sharing: nodes are not owned per cache entry. Every node is
// keyed by its canonical subtree signature (query/conjunctive_query.h) in
// one store; entries acquire nodes by signature and attach when the node
// already exists, so overlapping queries maintain each distinct subtree
// once. Node tables use canonical attribute ids {0..arity-1} — equal
// signatures guarantee equal column order by induction, so rows transfer
// positionally between queries with different AttrId vocabularies.
//
// One delta pass (SyncStore) repairs the whole store: it applies the
// relations' row deltas to the source nodes, then walks the fold nodes in
// creation order (children always precede parents) repairing only groups
// (or join rows) reachable from a changed key; newly joinable rows
// of a join node are enumerated by extending each changed piece key
// through the other pieces' secondary indexes. Per-piece max/argmax
// trackers — registered on the node by every dependent entry — maintain
// the engines' predicate-filtered MaxCount/ArgMaxRow (first, i.e.
// lexicographically smallest, row attaining the max), falling back to a
// table rescan only when the tracked argmax group itself decays.
// Disconnected forests additionally keep one running join total per tree
// root node (exact subtract-old/add-new per changed root-fold row),
// re-multiplied into every atom's scale factor at assembly. Nodes the pass
// cannot repair (unanswerable log, over-budget delta, saturation, spill)
// are marked stale with a reason that cascades to their dependents;
// entries touching a stale node recompute from scratch, and the rebuild
// reloads the node from the table the evaluator just computed for it, for
// everyone at once.
namespace incremental_detail {

namespace {

bool LexLess(std::span<const Value> a, std::span<const Value> b) {
  return CompareRows(a, b) < 0;
}

AttributeSet CanonicalAttrs(size_t arity) {
  AttributeSet attrs;
  attrs.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs.push_back(static_cast<AttrId>(i));
  }
  return attrs;
}

}  // namespace

struct SharedNode;

// One max/argmax view of a maintained table — a shared node's output, or
// the unit relation when `target` is null — filtered by an atom's
// predicates: the maintained ComponentMax of one multiplicity-table
// component, which the evaluator reads off the table it computes. `argmax`
// is the lexmin row attaining `max`, empty when the max is zero. Owned by a
// cache entry (its RepairState); registered on the target node so the
// global delta pass updates every dependent entry's trackers in one sweep.
struct Tracker : ComponentMax {
  SharedNode* target = nullptr;
  std::vector<std::pair<int, Predicate>> checks;  // (column, predicate)
  bool dirty = false;

  bool Passes(std::span<const Value> key) const {
    for (const auto& [col, pred] : checks) {
      if (!pred.Eval(key[static_cast<size_t>(col)])) return false;
    }
    return true;
  }
};

// One shared, canonically-keyed maintained table plus the recipe to repair
// it. Three kinds:
//
//   kSource — S_a = γ_keep(σ_pred(R_a)): repaired straight from the
//   relation's change log (keep_cols/preds address relation columns).
//
//   kGroup — out = γ_group(driver ⋈ inputs...). The driver is a source
//   (inputs keyed on driver columns), or a join node's output (a γ over a
//   materialized fold; inputs stay empty — the join already folded
//   everything in).
//
//   kJoin — out = r⋈(pieces...): the materialized fold of pieces no single
//   relation covers. Pieces are normalized, so every output row combines
//   exactly one row per piece and carries their saturating count product
//   over the scope = ∪ piece attrs.
//
// Children are held by shared_ptr (a node keeps its subtree alive);
// `parents` are raw back-pointers maintained by the destructor, used to
// cascade staleness upward. Entries keep shared_ptrs to every node they
// depend on, so the store can drop exactly the nodes no entry references.
struct SharedNode {
  using Kind = DataflowNode::Kind;
  enum class StaleReason { kNone, kLog, kLargeDelta, kSaturated, kSpilled };

  struct Input {
    std::shared_ptr<SharedNode> node;
    std::vector<int> driver_cols;  // driver columns forming its key
    int driver_index = -1;         // secondary index on the driver for them
  };

  // One expansion step for a changed key of an origin piece: probe this
  // piece's table on the columns it shares with the scope attributes bound
  // so far and extend each partial scope row with the matches.
  struct Expand {
    size_t piece = 0;                   // index into `pieces`
    int index = -1;                     // secondary index on its table
    std::vector<int> probe_scope_cols;  // scope columns carrying the key
  };

  struct Piece {
    std::shared_ptr<SharedNode> ref;
    std::vector<int> scope_cols;  // scope column per piece-table column
    int out_index = -1;           // index on `table` over scope_cols
    std::vector<Expand> expands;  // the other pieces, in piece order
  };

  SharedNode(Kind k, size_t arity, std::string signature)
      : sig(std::move(signature)), kind(k), table(CanonicalAttrs(arity)) {}
  SharedNode(const SharedNode&) = delete;
  SharedNode& operator=(const SharedNode&) = delete;
  ~SharedNode() {
    auto drop = [&](const std::shared_ptr<SharedNode>& child) {
      if (child == nullptr) return;
      auto& v = child->parents;
      v.erase(std::remove(v.begin(), v.end(), this), v.end());
    };
    drop(driver);
    for (const Input& in : inputs) drop(in.node);
    for (const Piece& p : pieces) drop(p.ref);
  }

  std::string sig;
  uint64_t fp = 0;  // CanonicalFingerprint(sig); stats/display only
  Kind kind;
  DynTable table;  // canonical attrs {0..arity-1}

  // kSource
  std::string relation;
  std::vector<size_t> keep_cols;  // relation column per output column
  std::vector<std::pair<size_t, Predicate>> preds;  // (relation column, p)
  uint64_t version = 0;  // relation version the table reflects

  // kGroup
  std::shared_ptr<SharedNode> driver;
  std::vector<int> group_cols;  // driver columns forming the out key
  int driver_group_index = -1;  // secondary index on the driver for them
  std::vector<Input> inputs;

  // kJoin
  std::vector<Piece> pieces;

  // §5.4: this node is a tree's root fold and `total` is its running join
  // size (TotalCount), consumed as the other trees' scale factor.
  bool track_total = false;
  Count total = Count::Zero();

  StaleReason stale = StaleReason::kNone;
  bool released = false;  // table storage dropped by the byte budget

  std::vector<SharedNode*> parents;   // fold nodes consuming this one
  std::vector<Tracker*> trackers;     // attached entry trackers
  uint64_t seq = 0;        // creation order: children precede parents
  uint64_t last_used = 0;  // LRU tick for the spill policy
  size_t accounted_bytes = 0;  // last MemoryBytes charged to state_bytes

  // Per delta pass: output keys whose count changed, for the parents,
  // sorted and unique, and each key's count before the pass.
  std::vector<std::vector<Value>> changed;
  std::vector<Count> changed_old;

  void ClearChanged() {
    changed.clear();
    changed_old.clear();
  }
};

// Marks a node unrepairable and cascades to every dependent fold node (a
// stale child makes the parent's re-aggregation read stale state). The
// first reason sticks; an already-stale node implies already-stale
// ancestors, so the walk stops there.
void MarkStale(SharedNode* node, SharedNode::StaleReason reason) {
  if (node->stale != SharedNode::StaleReason::kNone) return;
  node->stale = reason;
  for (SharedNode* p : node->parents) MarkStale(p, reason);
}

struct RepairState {
  // kConstant keeps no state; kDataflow maintains every node of the plan's
  // dataflow.
  enum class Mode { kConstant, kDataflow };

  RepairState() = default;
  RepairState(const RepairState&) = delete;
  RepairState& operator=(const RepairState&) = delete;
  ~RepairState() {
    for (auto& unit : trackers) {
      for (Tracker& t : unit) {
        if (t.target == nullptr) continue;
        auto& v = t.target->trackers;
        v.erase(std::remove(v.begin(), v.end(), &t), v.end());
      }
    }
  }

  Mode mode = Mode::kConstant;
  std::vector<std::shared_ptr<SharedNode>> nodes;  // per dataflow node
  // trackers[u][c] maintains slot c of the dataflow's assembly unit u.
  // Tracker addresses must stay stable (the target nodes point back at
  // them): the vectors are sized once in BuildState and never touched
  // again.
  std::vector<std::vector<Tracker>> trackers;
  // §5.4 disconnected forests: the node carrying each tree's running total
  // (the dataflow's tree_totals). Empty for single-tree forests.
  std::vector<std::shared_ptr<SharedNode>> total_nodes;
};

namespace {

// The cache's policy on top of the facade's plan (PlanSensitivity): top_k
// and keep_tables change what the engines compute (truncated tables /
// retained T_a's) in ways the maintained state deliberately does not
// model, so they stay version-memoized fallbacks.
bool Repairable(const TSensComputeOptions& options) {
  return options.top_k == 0 && !options.keep_tables;
}

// The repair state a repairable plan maintains. A single-atom query's
// sensitivity is data-independent (inserting one matching tuple always
// changes the count by exactly 1), so it keeps none.
RepairState::Mode RepairModeOf(const ConjunctiveQuery& q) {
  return q.num_atoms() == 1 ? RepairState::Mode::kConstant
                            : RepairState::Mode::kDataflow;
}

// Full recomputation of a tracker from its table (also the initial fill).
void RescanTracker(Tracker& t, uint64_t* rows_touched) {
  if (t.target == nullptr) return;
  const DynTable& table = t.target->table;
  t.max = Count::Zero();
  t.argmax.clear();
  table.ForEachRow([&](uint32_t r) {
    ++*rows_touched;
    std::span<const Value> key = table.RowValues(r);
    if (!t.Passes(key)) return;
    Count c = table.RowCount(r);
    if (c > t.max) {
      t.max = c;
      t.argmax.assign(key.begin(), key.end());
    } else if (c == t.max && !c.IsZero() && LexLess(key, t.argmax)) {
      t.argmax.assign(key.begin(), key.end());
    }
  });
  t.dirty = false;
}

// O(1) maintenance under one group change; marks dirty when only a rescan
// can re-establish the engines' first-attaining-row tie-break.
void UpdateTracker(Tracker& t, std::span<const Value> key, Count value) {
  if (t.dirty || t.target == nullptr || !t.Passes(key)) return;
  if (value > t.max) {
    t.max = value;
    t.argmax.assign(key.begin(), key.end());
    return;
  }
  if (!value.IsZero() && value == t.max) {
    if (t.argmax.empty() || LexLess(key, t.argmax)) {
      t.argmax.assign(key.begin(), key.end());
    }
    return;
  }
  // The tracked argmax group decreased below the recorded max: other
  // attaining groups (if any) are unknown without a rescan. (A nonzero max
  // always has its argmax recorded: the empty row of an arity-0 table.)
  if (value < t.max && CompareRows(key, t.argmax) == 0) {
    t.dirty = true;
  }
}

void Project(std::span<const Value> row, const std::vector<int>& cols,
             std::vector<Value>* out) {
  out->clear();
  for (int c : cols) out->push_back(row[static_cast<size_t>(c)]);
}

void SortUnique(std::vector<std::vector<Value>>* keys) {
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

// Sorts a source's changed keys (recorded once per adjustment, in
// adjustment order) and drops repeats, keeping each key's first recorded
// old count: its count before the pass.
void SortChanged(SharedNode* node) {
  std::vector<uint32_t> perm(node->changed.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
    return node->changed[x] < node->changed[y];
  });
  std::vector<std::vector<Value>> keys;
  std::vector<Count> olds;
  for (uint32_t p : perm) {
    if (!keys.empty() && keys.back() == node->changed[p]) continue;
    keys.push_back(std::move(node->changed[p]));
    olds.push_back(node->changed_old[p]);
  }
  node->changed.swap(keys);
  node->changed_old.swap(olds);
}

// `key`'s count in `node`'s table before the current pass: the recorded
// old count if the pass changed it, its current count otherwise.
Count CountBeforePass(const SharedNode& node, std::span<const Value> key) {
  auto it = std::lower_bound(
      node.changed.begin(), node.changed.end(), key,
      [](const std::vector<Value>& x, std::span<const Value> y) {
        return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                            y.end());
      });
  if (it != node.changed.end() && std::equal(it->begin(), it->end(),
                                             key.begin(), key.end())) {
    return node.changed_old[static_cast<size_t>(it - node.changed.begin())];
  }
  return node.table.Get(key);
}

// A group node's new count for group `group` from its current one and the
// terms of `rows` — the driver rows whose term (driver count × input
// counts) the pass changed: out[g] − Σ old terms + Σ new terms. nullopt
// when a value saturates (the delta is then not exact; the caller
// re-aggregates the group instead).
std::optional<Count> DeltaGroupCount(const SharedNode& node,
                                     std::span<const Value> group,
                                     std::span<const std::vector<Value>> rows,
                                     std::vector<Value>& key) {
  const SharedNode& driver = *node.driver;
  Count sum_old = Count::Zero();
  Count sum_new = Count::Zero();
  for (const std::vector<Value>& row : rows) {
    Count term_old = CountBeforePass(driver, row);
    Count term_new = driver.table.Get(row);
    for (const SharedNode::Input& input : node.inputs) {
      if (term_old.IsZero() && term_new.IsZero()) break;
      Project(row, input.driver_cols, &key);
      if (!term_old.IsZero()) term_old *= CountBeforePass(*input.node, key);
      if (!term_new.IsZero()) term_new *= input.node->table.Get(key);
    }
    sum_old += term_old;
    sum_new += term_new;
  }
  const Count old = node.table.Get(group);
  if (old.IsSaturated() || sum_old.IsSaturated() || sum_new.IsSaturated() ||
      old < sum_old) {
    return std::nullopt;
  }
  const Count updated = old.SaturatingSub(sum_old) + sum_new;
  if (updated.IsSaturated()) return std::nullopt;
  return updated;
}

}  // namespace

// The canonical-signature node store: one shared_ptr per live node. The
// map ref plus children refs plus entry refs make use_count() == 1 the
// exact "no entry depends on this anymore" test the sweep uses.
struct NodeStore {
  std::unordered_map<std::string, std::shared_ptr<SharedNode>> by_sig;
  uint64_t next_seq = 0;
};

}  // namespace incremental_detail

using incremental_detail::CanonicalAttrs;
using incremental_detail::DeltaGroupCount;
using incremental_detail::MarkStale;
using incremental_detail::NodeStore;
using incremental_detail::Project;
using incremental_detail::Repairable;
using incremental_detail::RepairModeOf;
using incremental_detail::RepairState;
using incremental_detail::RescanTracker;
using incremental_detail::SharedNode;
using incremental_detail::SortChanged;
using incremental_detail::SortUnique;
using incremental_detail::Tracker;
using incremental_detail::UpdateTracker;

struct SensitivityCache::Store {
  NodeStore ns;
};

struct SensitivityCache::Entry {
  std::string key;
  std::vector<std::string> relations;  // atom order (unique: no self-joins)
  std::vector<uint64_t> versions;      // parallel to `relations`
  SensitivityResult result;
  // The plan every full compute of this entry runs (GHD owned).
  SensitivityPlan plan;
  std::unique_ptr<RepairState> state;  // null: memoize-only entry
  uint64_t last_used = 0;
};

SensitivityCache::SensitivityCache(SensitivityCacheConfig config)
    : config_(config), store_(std::make_unique<Store>()) {
  // At least the entry being inserted must survive an eviction sweep.
  config_.max_entries = std::max<size_t>(1, config_.max_entries);
  // The delta gate compares change counts against fraction * (rows +
  // changes); outside [0, 1] the fraction either always or never rejects
  // in surprising ways, so clamp to the meaningful range.
  config_.max_delta_fraction =
      std::clamp(config_.max_delta_fraction, 0.0, 1.0);
  LSENS_CHECK(config_.changelog_capacity > 0);
}

SensitivityCache::~SensitivityCache() = default;

void SensitivityCache::Clear() {
  entries_.clear();
  SweepStore();
}

// Drops store nodes no entry references anymore. A node is held by the
// store map, by its parents' recipes, and by every dependent entry; once
// only the map holds it (use_count == 1) nothing can reach it. Erasing a
// parent releases its children, so iterate to the fixpoint.
void SensitivityCache::SweepStore() {
  auto& by_sig = store_->ns.by_sig;
  bool erased = true;
  while (erased) {
    erased = false;
    // lsens-lint: allow(unordered-iter) erase-to-fixpoint over a set: which
    // nodes die is determined by use_count alone and the byte gauge is a
    // commutative sum, so visit order cannot reach results or stats.
    for (auto it = by_sig.begin(); it != by_sig.end();) {
      if (it->second.use_count() == 1) {
        stats_.state_bytes -= it->second->accounted_bytes;
        it = by_sig.erase(it);
        erased = true;
      } else {
        ++it;
      }
    }
  }
  stats_.shared_nodes = by_sig.size();
}

namespace {

// Re-charges a node's DynTable footprint against the global gauge.
void RefreshNodeBytes(SharedNode& node, SensitivityCacheStats& stats) {
  stats.state_bytes -= node.accounted_bytes;
  node.accounted_bytes = node.released ? 0 : node.table.MemoryBytes();
  stats.state_bytes += node.accounted_bytes;
}

}  // namespace

// Spills shared-node tables, stale-first then least-recently-used, until
// the held DynTable bytes fit the budget. Results stay memoized (unchanged
// versions still hit) and the node recipes stay installed; a spilled node
// is stale, so the next dependent recompute reloads it from the table that
// entry's evaluation computes — for every other dependent too.
void SensitivityCache::EnforceStateBudget(ExecContext& ctx) {
  if (config_.max_state_bytes == 0) return;
  while (stats_.state_bytes > config_.max_state_bytes) {
    SharedNode* victim = nullptr;
    // lsens-lint: allow(unordered-iter) argmin under a strict total order
    // (stale beats fresh, then oldest last_used, then smallest seq): the
    // winner — and therefore the spill sequence and stats — is the same
    // whatever order the map yields candidates in.
    for (const auto& [sig, node] : store_->ns.by_sig) {
      if (node->released || node->accounted_bytes == 0) continue;
      if (victim == nullptr) {
        victim = node.get();
        continue;
      }
      const bool v_stale = victim->stale != SharedNode::StaleReason::kNone;
      const bool n_stale = node->stale != SharedNode::StaleReason::kNone;
      bool better;
      if (n_stale != v_stale) {
        better = n_stale;
      } else if (node->last_used != victim->last_used) {
        better = node->last_used < victim->last_used;
      } else {
        better = node->seq < victim->seq;  // total order: ties cannot leak
      }
      if (better) victim = node.get();
    }
    if (victim == nullptr) return;  // nothing left to spill
    ++stats_.spills;
    ctx.Record("cache.spill", victim->accounted_bytes, 0, 0, 0.0);
    victim->table.Release();
    victim->released = true;
    MarkStale(victim, SharedNode::StaleReason::kSpilled);
    RefreshNodeBytes(*victim, stats_);
  }
}

std::string SensitivityCache::Fingerprint(const ConjunctiveQuery& q,
                                          const TSensComputeOptions& options) {
  std::ostringstream out;
  for (const Atom& atom : q.atoms()) {
    out << atom.relation << '(';
    for (AttrId v : atom.vars) out << v << ',';
    out << ')';
    for (const Predicate& p : atom.predicates) {
      out << '[' << p.var << ' ' << static_cast<int>(p.op) << ' ' << p.rhs
          << ']';
    }
    out << ';';
  }
  out << "|top_k=" << options.top_k << "|keep=" << options.keep_tables;
  std::vector<int> skips = options.skip_atoms;
  std::sort(skips.begin(), skips.end());
  skips.erase(std::unique(skips.begin(), skips.end()), skips.end());
  out << "|skip=";
  for (int a : skips) out << a << ',';
  out << "|ghd=";
  if (options.ghd != nullptr) {
    for (const GhdBag& bag : options.ghd->bags) {
      out << '{';
      for (int a : bag.atom_indices) out << a << ',';
      out << '}';
    }
    // Two GHDs over identical bags can differ in forest shape, and the
    // repair state is wired to one shape — distinguish them.
    out << "|forest=";
    for (const JoinTree& tree : options.ghd->forest.trees) {
      out << '(';
      for (int b : tree.members()) out << b << ':' << tree.Parent(b) << ',';
      out << ')';
    }
  }
  return out.str();
}

namespace {

// A new shared node for dataflow node `spec`, wired to repair from the
// nodes `built` for its children (indexed like the dataflow's nodes).
std::shared_ptr<SharedNode> MakeNode(
    const ConjunctiveQuery& q, const SensitivityDataflow& df,
    const DataflowNode& spec,
    const std::vector<std::shared_ptr<SharedNode>>& built) {
  auto attrs_of = [&](int node) -> const AttributeSet& {
    return df.nodes[static_cast<size_t>(node)].attrs;
  };
  auto n = std::make_shared<SharedNode>(spec.kind, spec.attrs.size(),
                                        spec.sig);
  switch (spec.kind) {
    case SharedNode::Kind::kSource: {
      const Atom& atom = q.atom(spec.atom);
      n->relation = atom.relation;
      n->keep_cols.reserve(spec.attrs.size());
      for (AttrId a : spec.attrs) {
        size_t col = 0;
        while (atom.vars[col] != a) ++col;
        n->keep_cols.push_back(col);
      }
      n->preds.reserve(atom.predicates.size());
      for (const Predicate& p : atom.predicates) {
        size_t col = 0;
        while (atom.vars[col] != p.var) ++col;
        n->preds.emplace_back(col, p);
      }
      break;
    }
    case SharedNode::Kind::kGroup: {
      // out = γ_group(driver ⋈ inputs...), each input keyed on the driver
      // columns carrying its attributes.
      const int driver = spec.children[0];
      n->driver = built[static_cast<size_t>(driver)];
      n->group_cols = PositionsOf(attrs_of(driver), spec.attrs);
      n->driver_group_index = n->driver->table.AddIndex(n->group_cols);
      n->driver->parents.push_back(n.get());
      for (size_t i = 1; i < spec.children.size(); ++i) {
        SharedNode::Input in;
        in.node = built[static_cast<size_t>(spec.children[i])];
        in.driver_cols =
            PositionsOf(attrs_of(driver), attrs_of(spec.children[i]));
        in.driver_index = n->driver->table.AddIndex(in.driver_cols);
        in.node->parents.push_back(n.get());
        n->inputs.push_back(std::move(in));
      }
      break;
    }
    case SharedNode::Kind::kJoin: {
      // out = r⋈(pieces...) over scope = ∪ piece attrs. Expansion plans: a
      // changed key of piece i enumerates the newly joinable scope tuples
      // by extending through the other pieces in piece order, each probed
      // on the columns it shares with the scope attributes bound so far.
      const AttributeSet& scope = spec.attrs;
      for (int child : spec.children) {
        SharedNode::Piece piece;
        piece.ref = built[static_cast<size_t>(child)];
        piece.scope_cols = PositionsOf(scope, attrs_of(child));
        piece.out_index = n->table.AddIndex(piece.scope_cols);
        piece.ref->parents.push_back(n.get());
        n->pieces.push_back(std::move(piece));
      }
      for (size_t i = 0; i < n->pieces.size(); ++i) {
        AttributeSet bound = attrs_of(spec.children[i]);
        for (size_t j = 0; j < n->pieces.size(); ++j) {
          if (j == i) continue;
          const AttributeSet& pj = attrs_of(spec.children[j]);
          SharedNode::Expand e;
          e.piece = j;
          // An empty shared set degrades to the full-table chain (the
          // within-component cross-product case) — still correct, the
          // later probes filter.
          AttributeSet shared = Intersect(pj, bound);
          e.index =
              n->pieces[j].ref->table.AddIndex(PositionsOf(pj, shared));
          e.probe_scope_cols = PositionsOf(scope, shared);
          n->pieces[i].expands.push_back(std::move(e));
          bound = Union(bound, pj);
        }
      }
      break;
    }
  }
  return n;
}

// Builds one entry's RepairState against the shared store from the tables
// the evaluator computed for the plan's dataflow (moved in, by node index;
// each is released once loaded). Every node is acquired by canonical
// signature — attached when a structurally identical node already exists
// (reloaded from its table when stale or spilled, and every attached
// tracker rescanned so the non-stale ⇒ valid-trackers invariant holds),
// created and loaded otherwise. Because SyncStore runs before the
// evaluator on every path that reaches here, an existing non-stale node
// is current, which the attach verifies by its row count.
std::unique_ptr<RepairState> BuildState(const ConjunctiveQuery& q,
                                        const SensitivityDataflow& df,
                                        std::vector<CountedRelation> tables,
                                        const Database& db, NodeStore& store,
                                        SensitivityCacheStats& stats,
                                        uint64_t tick, uint64_t* rows_touched) {
  auto state = std::make_unique<RepairState>();
  state->mode = RepairState::Mode::kDataflow;
  uint64_t scan_rows = 0;
  LSENS_CHECK(tables.size() == df.nodes.size());
  state->total_nodes.resize(df.tree_totals.size());
  for (size_t i = 0; i < df.nodes.size(); ++i) {
    const DataflowNode& spec = df.nodes[i];
    const CountedRelation table = std::move(tables[i]);
    bool current = false;
    std::shared_ptr<SharedNode> node;
    auto it = store.by_sig.find(spec.sig);
    if (it != store.by_sig.end()) {
      node = it->second;
      LSENS_CHECK(node->kind == spec.kind);
      node->last_used = tick;
      ++stats.shared_attaches;
      if (node->stale != SharedNode::StaleReason::kNone) {
        node->table.LoadRows(table);
        node->released = false;
        node->stale = SharedNode::StaleReason::kNone;
        for (Tracker* t : node->trackers) RescanTracker(*t, &scan_rows);
      } else {
        // SyncStore already advanced it to the data the evaluator read.
        LSENS_CHECK(node->table.num_rows() == table.NumRows());
        current = true;
      }
    } else {
      node = MakeNode(q, df, spec, state->nodes);
      node->fp = CanonicalFingerprint(spec.sig);
      node->seq = store.next_seq++;
      node->last_used = tick;
      node->table.LoadRows(table);
      store.by_sig.emplace(spec.sig, node);
      stats.shared_nodes = store.by_sig.size();
    }
    RefreshNodeBytes(*node, stats);
    if (spec.kind == SharedNode::Kind::kSource) {
      const Relation* rel = db.Find(q.atom(spec.atom).relation);
      LSENS_CHECK(rel != nullptr);  // the evaluator just read it
      if (current) {
        LSENS_CHECK(node->version == rel->version());
      } else {
        node->version = rel->version();
      }
    }
    for (size_t t = 0; t < df.tree_totals.size(); ++t) {
      if (df.tree_totals[t] != static_cast<int>(i)) continue;
      // The total of exactly the rows just loaded (or verified current).
      node->track_total = true;
      node->total = table.TotalCount();
      state->total_nodes[t] = node;
    }
    state->nodes.push_back(std::move(node));
  }

  // Trackers, one per assembly slot, registered and filled last: the
  // tracker vectors never resize again, so the addresses handed to the
  // nodes stay valid until the RepairState destructor detaches them.
  state->trackers.resize(df.assembly.size());
  for (size_t u = 0; u < df.assembly.size(); ++u) {
    const DataflowAtom& unit = df.assembly[u];
    state->trackers[u].resize(unit.components.size());
    for (size_t c = 0; c < unit.components.size(); ++c) {
      Tracker& t = state->trackers[u][c];
      const int comp = unit.components[c];
      if (comp < 0) {
        t.max = Count::One();  // the unit relation: one empty row, count 1
        continue;
      }
      t.target = state->nodes[static_cast<size_t>(comp)].get();
      const AttributeSet& attrs = df.nodes[static_cast<size_t>(comp)].attrs;
      for (const Predicate& p : q.atom(unit.atom).predicates) {
        auto pos = std::lower_bound(attrs.begin(), attrs.end(), p.var);
        if (pos != attrs.end() && *pos == p.var) {
          t.checks.emplace_back(static_cast<int>(pos - attrs.begin()), p);
        }
      }
      t.target->trackers.push_back(&t);
      RescanTracker(t, &scan_rows);
    }
  }
  *rows_touched += scan_rows;
  return state;
}

// The result from the maintained trackers and running totals, through the
// same assembly the evaluator runs.
SensitivityResult Assemble(RepairState& state, const ConjunctiveQuery& q,
                           const SensitivityDataflow& df,
                           uint64_t* rows_touched) {
  for (std::vector<Tracker>& unit : state.trackers) {
    for (Tracker& t : unit) {
      if (t.dirty) RescanTracker(t, rows_touched);
    }
  }
  std::vector<Count> totals;
  totals.reserve(state.total_nodes.size());
  for (const auto& node : state.total_nodes) totals.push_back(node->total);
  return AssembleSensitivity(
      q, df, totals, [&](size_t u, size_t c) -> const ComponentMax& {
        return state.trackers[u][c];
      });
}

}  // namespace

// One global delta pass over the shared store: every live node is repaired
// exactly once, no matter how many entries depend on it — the point of
// canonical-subtree sharing. Stage 1 pulls each source node's pending
// change-log window and applies the row deltas; stage 2 walks the fold
// nodes in creation order (children precede parents by construction,
// across entries too) repairing only keys reachable from a changed child
// key. Attached trackers and §5.4 running totals are maintained in
// the same sweep. Nodes that cannot be repaired — unanswerable log, a
// delta over the global gate, saturation — are marked stale (cascading to
// dependents) and skipped; the pass itself never aborts.
void SensitivityCache::SyncStore(Database& db, ExecContext& ctx) {
  NodeStore& ns = store_->ns;
  if (ns.by_sig.empty()) return;
  WallTimer timer;

  // Live nodes in creation order — a valid dependency order of the DAG.
  std::vector<SharedNode*> nodes;
  nodes.reserve(ns.by_sig.size());
  // lsens-lint: allow(unordered-iter) snapshot collection only — the very
  // next statement sorts by seq, so map order never survives past this line.
  for (const auto& [sig, node] : ns.by_sig) nodes.push_back(node.get());
  std::sort(nodes.begin(), nodes.end(),
            [](const SharedNode* a, const SharedNode* b) {
              return a->seq < b->seq;
            });
  for (SharedNode* node : nodes) node->ClearChanged();

  // Pre-pass: poison checks and the global delta gate. The gate compares
  // the total pending changes across all live sources against the total
  // pre-delta rows — with a single cached query this is exactly the old
  // per-entry gate; with many, it bounds the work of the whole pass.
  size_t total_changes = 0;
  size_t total_rows = 0;
  std::vector<SharedNode*> pending;
  for (SharedNode* node : nodes) {
    if (node->stale != SharedNode::StaleReason::kNone) continue;
    if (node->table.saturated()) {
      MarkStale(node, SharedNode::StaleReason::kSaturated);
      continue;
    }
    if (node->kind != SharedNode::Kind::kSource) continue;
    const Relation* rel = db.Find(node->relation);
    if (rel == nullptr) {
      MarkStale(node, SharedNode::StaleReason::kLog);
      continue;
    }
    const size_t n = rel->NumChangesSince(node->version);
    if (n == SIZE_MAX) {
      MarkStale(node, SharedNode::StaleReason::kLog);
      continue;
    }
    total_rows += rel->NumRows();
    total_changes += n;
    if (n > 0) pending.push_back(node);
  }
  if (pending.empty()) return;
  // The baseline is the pre-delta size (current rows net of the pending
  // deltas is unknowable cheaply, but rows+changes bounds it from above),
  // so delete-heavy streams that shrink — or empty — a relation still
  // compare the delta against the work the repair will actually do. The
  // floor of 1 keeps single-row updates repairable at any fraction.
  const size_t delta_baseline = total_rows + total_changes;
  const size_t allowed_changes = std::max<size_t>(
      1, static_cast<size_t>(config_.max_delta_fraction *
                             static_cast<double>(delta_baseline)));
  if (total_changes > allowed_changes) {
    for (SharedNode* node : pending) {
      MarkStale(node, SharedNode::StaleReason::kLargeDelta);
    }
    return;
  }

  uint64_t delta_rows = 0;
  uint64_t rows_touched = 0;
  uint64_t nodes_patched = 0;

  // Stage 1 — sources: apply the row-level deltas, collecting the touched
  // keys. The change log is filtered and projected onto each source's key
  // columns in one walk (Relation::CollectProjectedChangesSince) — only
  // the key columns of passing changes are copied, never whole rows — and
  // the Adjust calls apply in log order.
  std::vector<ProjectedRowChange> changes;
  for (SharedNode* src : pending) {
    const Relation* rel = db.Find(src->relation);
    LSENS_CHECK(rel != nullptr);  // the pre-pass just found it
    auto filter = [&](const RowChange& ch) {
      for (const auto& [col, pred] : src->preds) {
        if (!pred.Eval(ch.row[col])) return false;
      }
      return true;
    };
    changes.clear();
    size_t num_changes = 0;
    LSENS_CHECK(rel->CollectProjectedChangesSince(
        src->version, src->keep_cols, filter, &changes, &num_changes));
    delta_rows += num_changes;
    bool ok = true;
    for (ProjectedRowChange& pc : changes) {
      Count old;
      ok = src->table.Adjust(pc.key, Count::One(), pc.insert, &old);
      if (!ok) break;
      src->changed.push_back(std::move(pc.key));
      src->changed_old.push_back(old);
    }
    if (!ok) {
      // Inexact adjustment (saturation / stale log): the table is poisoned
      // and everything downstream with it. The rest of the pass continues.
      MarkStale(src, SharedNode::StaleReason::kSaturated);
      src->ClearChanged();
      continue;
    }
    src->version = rel->version();
    SortChanged(src);
    // Trackers sitting directly on this S table (single-piece multiplicity
    // components): fold in each changed key's final value.
    for (const std::vector<Value>& changed : src->changed) {
      const Count value = src->table.Get(changed);
      for (Tracker* t : src->trackers) UpdateTracker(*t, changed, value);
    }
    if (!src->changed.empty()) ++nodes_patched;
  }

  // Stage 2 — fold nodes, in dependency order: collect the affected output
  // keys, then recompute each from the current (already-repaired) upstream
  // tables.
  //
  // Group nodes collect the driver rows whose term changed — the driver's
  // changed keys, plus the rows a changed input key reaches through the
  // driver's index — grouped by output key, and move each group's count by
  // those rows' term deltas (DeltaGroupCount), re-aggregating the group
  // only when a count saturates. Join nodes collect, per changed piece
  // key, the existing output rows matching it (the piece's out index) plus
  // the newly joinable scope tuples (expansion through the other pieces'
  // indexes), and recompute each row's count as the product of point
  // lookups.
  //
  // Either way the recomputation reads only upstream state: every
  // affected key's count is computed first, then applied (with tracker and
  // tree-total maintenance) in sorted key order.
  std::vector<uint32_t> rows;
  std::vector<Value> key;
  for (SharedNode* node : nodes) {
    if (node->kind == SharedNode::Kind::kSource) continue;
    if (node->stale != SharedNode::StaleReason::kNone) continue;
    // Affected output keys, sorted and unique. For a group node, group g's
    // changed driver rows are drivers[run[g] .. run[g + 1]).
    std::vector<std::vector<Value>> affected;
    std::vector<std::vector<Value>> drivers;
    std::vector<size_t> run;
    if (node->kind == SharedNode::Kind::kGroup) {
      const DynTable& driver = node->driver->table;
      std::vector<std::pair<std::vector<Value>, std::vector<Value>>> pairs;
      auto add = [&](std::span<const Value> row) {
        Project(row, node->group_cols, &key);
        pairs.emplace_back(key, std::vector<Value>(row.begin(), row.end()));
      };
      for (const std::vector<Value>& changed : node->driver->changed) {
        add(changed);
      }
      for (const SharedNode::Input& input : node->inputs) {
        for (const std::vector<Value>& changed : input.node->changed) {
          rows.clear();
          driver.LookupIndex(input.driver_index, changed, &rows);
          rows_touched += rows.size();
          for (uint32_t r : rows) add(driver.RowValues(r));
        }
      }
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      for (auto& [group, row] : pairs) {
        if (affected.empty() || affected.back() != group) {
          affected.push_back(std::move(group));
          run.push_back(drivers.size());
        }
        drivers.push_back(std::move(row));
      }
      run.push_back(drivers.size());
    } else {
      std::vector<std::vector<Value>> frontier;
      std::vector<std::vector<Value>> next;
      for (size_t pi = 0; pi < node->pieces.size(); ++pi) {
        const SharedNode::Piece& piece = node->pieces[pi];
        const DynTable& pt = piece.ref->table;
        for (const std::vector<Value>& changed : piece.ref->changed) {
          // Existing output rows built from this piece key (count change
          // or removal).
          rows.clear();
          node->table.LookupIndex(piece.out_index, changed, &rows);
          rows_touched += rows.size();
          for (uint32_t r : rows) {
            std::span<const Value> row = node->table.RowValues(r);
            affected.emplace_back(row.begin(), row.end());
          }
          // A key no longer present cannot create new join rows.
          if (pt.FindRow(changed) == DynTable::kNoRow) continue;
          std::vector<Value> seed(node->table.attrs().size(), 0);
          for (size_t c = 0; c < piece.scope_cols.size(); ++c) {
            seed[static_cast<size_t>(piece.scope_cols[c])] = changed[c];
          }
          frontier.clear();
          frontier.push_back(std::move(seed));
          for (const SharedNode::Expand& e : piece.expands) {
            const SharedNode::Piece& other = node->pieces[e.piece];
            const DynTable& ot = other.ref->table;
            next.clear();
            for (const std::vector<Value>& partial : frontier) {
              Project(partial, e.probe_scope_cols, &key);
              rows.clear();
              ot.LookupIndex(e.index, key, &rows);
              rows_touched += rows.size();
              for (uint32_t r : rows) {
                std::span<const Value> prow = ot.RowValues(r);
                std::vector<Value> extended = partial;
                for (size_t c = 0; c < other.scope_cols.size(); ++c) {
                  extended[static_cast<size_t>(other.scope_cols[c])] =
                      prow[c];
                }
                next.push_back(std::move(extended));
              }
            }
            frontier.swap(next);
            if (frontier.empty()) break;
          }
          for (std::vector<Value>& tuple : frontier) {
            affected.push_back(std::move(tuple));
          }
        }
      }
      SortUnique(&affected);
    }
    if (affected.empty()) continue;
    std::vector<Count> sums(affected.size());
    for (size_t g = 0; g < affected.size(); ++g) {
      if (node->kind == SharedNode::Kind::kGroup) {
        const std::span<const std::vector<Value>> changed_rows(
            drivers.data() + run[g], run[g + 1] - run[g]);
        rows_touched += changed_rows.size() + 1;
        const std::optional<Count> delta =
            DeltaGroupCount(*node, affected[g], changed_rows, key);
        if (delta.has_value()) {
          sums[g] = *delta;
          continue;
        }
        const DynTable& driver = node->driver->table;
        rows.clear();
        driver.LookupIndex(node->driver_group_index, affected[g], &rows);
        rows_touched += rows.size() + 1;
        Count sum = Count::Zero();
        for (uint32_t r : rows) {
          std::span<const Value> row = driver.RowValues(r);
          Count term = driver.RowCount(r);
          for (const SharedNode::Input& input : node->inputs) {
            Project(row, input.driver_cols, &key);
            term *= input.node->table.Get(key);
            if (term.IsZero()) break;
          }
          sum += term;
        }
        sums[g] = sum;
      } else {
        rows_touched += 1;
        Count product = Count::One();
        for (const SharedNode::Piece& piece : node->pieces) {
          Project(affected[g], piece.scope_cols, &key);
          product *= piece.ref->table.Get(key);
          if (product.IsZero()) break;
        }
        sums[g] = product;
      }
    }
    bool ok = true;
    for (size_t g = 0; g < affected.size() && ok; ++g) {
      Count old = node->table.Set(affected[g], sums[g]);
      if (old == sums[g]) continue;
      node->changed.push_back(affected[g]);
      node->changed_old.push_back(old);
      for (Tracker* t : node->trackers) {
        UpdateTracker(*t, affected[g], sums[g]);
      }
      if (node->track_total) {
        // Exact subtract-old/add-new; any saturation en route makes the
        // running total untrustworthy — mark stale and let a dependent
        // recompute reload the node with a fresh total.
        if (node->total.IsSaturated() || old.IsSaturated() ||
            sums[g].IsSaturated() || node->total < old) {
          ok = false;
          break;
        }
        node->total = node->total.SaturatingSub(old) + sums[g];
        if (node->total.IsSaturated()) ok = false;
      }
    }
    if (ok && node->table.saturated()) ok = false;
    if (!ok) {
      MarkStale(node, SharedNode::StaleReason::kSaturated);
      node->ClearChanged();
      continue;
    }
    if (!node->changed.empty()) ++nodes_patched;
  }

  for (SharedNode* node : nodes) RefreshNodeBytes(*node, stats_);
  stats_.delta_rows += delta_rows;
  stats_.repair_rows += rows_touched;
  stats_.node_repairs += nodes_patched;
  ctx.Record("cache.node_repair", delta_rows, rows_touched, 0,
             timer.ElapsedSeconds());
}

bool SensitivityCache::Peek(const ConjunctiveQuery& q, const Database& db,
                            const TSensComputeOptions& options,
                            SensitivityResult* out) const {
  const std::string key = Fingerprint(q, options);
  for (const auto& e : entries_) {
    if (e->key != key) continue;
    const bool constant =
        e->state != nullptr && e->state->mode == RepairState::Mode::kConstant;
    if (!constant) {
      for (size_t i = 0; i < e->relations.size(); ++i) {
        const Relation* rel = db.Find(e->relations[i]);
        if (rel == nullptr || rel->version() != e->versions[i]) return false;
      }
    }
    if (out != nullptr) *out = e->result;
    return true;
  }
  return false;
}

StatusOr<SensitivityResult> SensitivityCache::Compute(
    const ConjunctiveQuery& q, Database& db,
    const TSensComputeOptions& options) {
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  WallTimer timer;
  const std::string key = Fingerprint(q, options);

  Entry* entry = nullptr;
  for (const auto& e : entries_) {
    if (e->key == key) {
      entry = e.get();
      break;
    }
  }

  auto current_versions =
      [&](const std::vector<std::string>& relations)
      -> std::optional<std::vector<uint64_t>> {
    std::vector<uint64_t> versions;
    versions.reserve(relations.size());
    for (const std::string& name : relations) {
      const Relation* rel = db.Find(name);
      if (rel == nullptr) return std::nullopt;
      versions.push_back(rel->version());
    }
    return versions;
  };

  // The global delta pass runs at most once per Compute, and only on paths
  // that need current store state (never on a pure version hit).
  bool synced = false;
  auto sync = [&] {
    if (!synced) {
      SyncStore(db, ctx);
      synced = true;
    }
  };

  if (entry != nullptr) {
    entry->last_used = ++tick_;
    std::optional<std::vector<uint64_t>> versions =
        current_versions(entry->relations);
    // A constant-mode result is data-independent: any version is a hit.
    const bool constant =
        entry->state != nullptr &&
        entry->state->mode == RepairState::Mode::kConstant;
    // Touch the entry's shared nodes so the spill LRU tracks use by any
    // dependent entry, hits included.
    if (entry->state != nullptr) {
      for (const auto& node : entry->state->nodes) {
        node->last_used = entry->last_used;
      }
    }
    if (versions.has_value() && (constant || *versions == entry->versions)) {
      ++stats_.hits;
      ctx.Record("cache.hit", 0, 0, 0, timer.ElapsedSeconds());
      return entry->result;
    }
    if (versions.has_value() && entry->state != nullptr) {
      // This entry's own pending delta, measured before the pass: zero
      // means some earlier Compute's pass already repaired every node this
      // entry depends on, and only the per-entry assembly remains — the
      // cross-query sharing payoff.
      uint64_t entry_pending = 0;
      for (const auto& src : entry->state->nodes) {
        if (src->kind != SharedNode::Kind::kSource) continue;
        if (src->stale != SharedNode::StaleReason::kNone) {
          entry_pending = 1;  // falls back below; exact count irrelevant
          continue;
        }
        const Relation* rel = db.Find(src->relation);
        if (rel == nullptr) continue;
        const size_t n = rel->NumChangesSince(src->version);
        if (n != SIZE_MAX) entry_pending += n;
      }
      sync();
      bool spilled = false;
      bool large = false;
      bool stale = false;
      auto scan = [&](const std::shared_ptr<SharedNode>& node) {
        switch (node->stale) {
          case SharedNode::StaleReason::kNone:
            break;
          case SharedNode::StaleReason::kSpilled:
            spilled = true;
            break;
          case SharedNode::StaleReason::kLargeDelta:
            large = true;
            break;
          default:
            stale = true;
        }
      };
      for (const auto& node : entry->state->nodes) scan(node);
      if (!spilled && !large && !stale) {
        uint64_t rows_touched = 0;
        entry->result = Assemble(*entry->state, q, entry->plan.dataflow,
                                 &rows_touched);
        stats_.repair_rows += rows_touched;
        entry->versions = *std::move(versions);
        if (entry_pending > 0) {
          ++stats_.repairs;
          ctx.Record("cache.repair", entry_pending, rows_touched, 0,
                     timer.ElapsedSeconds());
        } else {
          ++stats_.shared_assemblies;
          ctx.Record("cache.shared_assembly", 0, rows_touched, 0,
                     timer.ElapsedSeconds());
        }
        EnforceStateBudget(ctx);
        return entry->result;
      }
      // Something this entry depends on is stale: full recompute below,
      // classified by the most telling reason.
      if (spilled) {
        ++stats_.fallback_spilled;
      } else if (large) {
        ++stats_.fallback_large_delta;
      } else {
        ++stats_.fallback_stale;
      }
    } else if (versions.has_value()) {
      ++stats_.fallback_unsupported;
    }
  }

  // Full compute (first sight, or fallback), keeping the evaluated tables
  // as repairable state when the options allow it. A fallback runs the plan
  // stored with the entry; first sight plans here, once. The store syncs
  // *before* the evaluator runs, so every non-stale shared node is current
  // when BuildState attaches it to the freshly evaluated table.
  std::optional<SensitivityPlan> fresh_plan;
  if (entry == nullptr) {
    LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
    auto planned = PlanSensitivity(q, options);
    if (!planned.ok()) return planned.status();
    fresh_plan = *std::move(planned);
    // The entry outlives the caller's GHD: keep a copy.
    Decomposition& d = fresh_plan->decomposition;
    if (d.user != nullptr) {
      d.owned = *d.user;
      d.user = nullptr;
    }
  }
  const SensitivityPlan& plan = entry != nullptr ? entry->plan : *fresh_plan;
  const bool repairable = Repairable(options);
  std::unique_ptr<RepairState> state;
  uint64_t build_rows = 0;
  auto run_full = [&]() -> StatusOr<SensitivityResult> {
    if (!repairable || RepairModeOf(q) == RepairState::Mode::kConstant) {
      auto r = EvaluateDataflow(q, plan.dataflow, db, options);
      if (r.ok() && repairable) {
        state = std::make_unique<RepairState>();  // kConstant
      }
      return r;
    }
    sync();
    std::vector<CountedRelation> tables;
    StatusOr<SensitivityResult> r =
        EvaluateDataflow(q, plan.dataflow, db, options, &tables);
    if (r.ok()) {
      // Install change logs first so the acquired sources start from a
      // loggable version.
      for (const Atom& atom : q.atoms()) {
        Relation* rel = db.Find(atom.relation);
        LSENS_CHECK(rel != nullptr);
        if (!rel->change_log_enabled()) {
          rel->EnableChangeLog(config_.changelog_capacity);
        }
      }
      state = BuildState(q, plan.dataflow, std::move(tables), db, store_->ns,
                         stats_, ++tick_, &build_rows);
    }
    return r;
  };
  StatusOr<SensitivityResult> computed = run_full();
  if (!computed.ok()) return computed.status();

  std::vector<std::string> relations;
  relations.reserve(static_cast<size_t>(q.num_atoms()));
  for (const Atom& atom : q.atoms()) relations.push_back(atom.relation);
  std::optional<std::vector<uint64_t>> versions = current_versions(relations);
  LSENS_CHECK(versions.has_value());  // the evaluator just read them

  if (entry == nullptr) {
    ++stats_.misses;
    entries_.push_back(std::make_unique<Entry>());
    entry = entries_.back().get();
    entry->key = key;
    entry->plan = *std::move(fresh_plan);
    entry->last_used = ++tick_;
    if (entries_.size() > config_.max_entries) {
      size_t evict = 0;
      for (size_t i = 1; i + 1 < entries_.size(); ++i) {
        if (entries_[i]->last_used < entries_[evict]->last_used) evict = i;
      }
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(evict));
      entry = entries_.back().get();
    }
    ctx.Record("cache.miss", 0, 0, 0, timer.ElapsedSeconds());
  } else {
    ctx.Record("cache.fallback", 0, 0, 0, timer.ElapsedSeconds());
  }
  entry->relations = std::move(relations);
  entry->versions = *std::move(versions);
  entry->result = *std::move(computed);
  entry->state = std::move(state);  // old state's nodes released below
  stats_.repair_rows += build_rows;
  SweepStore();

  // Cross-check at (re)build time: the assembled-from-trackers result must
  // equal the evaluator's, so every later repair starts from verified
  // state.
  if (entry->state != nullptr &&
      entry->state->mode != RepairState::Mode::kConstant) {
    uint64_t ignored = 0;
    SensitivityResult assembled =
        Assemble(*entry->state, q, entry->plan.dataflow, &ignored);
    LSENS_CHECK(assembled.local_sensitivity ==
                entry->result.local_sensitivity);
    LSENS_CHECK(assembled.argmax_atom == entry->result.argmax_atom);
    for (size_t a = 0; a < assembled.atoms.size(); ++a) {
      LSENS_CHECK(assembled.atoms[a].max_sensitivity ==
                  entry->result.atoms[a].max_sensitivity);
      LSENS_CHECK(assembled.atoms[a].argmax == entry->result.atoms[a].argmax);
    }
  }
  EnforceStateBudget(ctx);
  return entry->result;
}

}  // namespace lsens
