#include "test_util.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace lsens::testing {

PaperExample MakeFigure1Example() {
  PaperExample ex;
  Dictionary& d = ex.db.dict();
  auto* r1 = ex.db.AddRelation("R1", {"A", "B", "C"});
  auto* r2 = ex.db.AddRelation("R2", {"A", "B", "D"});
  auto* r3 = ex.db.AddRelation("R3", {"A", "E"});
  auto* r4 = ex.db.AddRelation("R4", {"B", "F"});
  auto v = [&](const char* s) { return d.Intern(s); };
  r1->AppendRow({v("a1"), v("b1"), v("c1")});
  r1->AppendRow({v("a1"), v("b2"), v("c1")});
  r1->AppendRow({v("a2"), v("b1"), v("c1")});
  r2->AppendRow({v("a1"), v("b1"), v("d1")});
  r2->AppendRow({v("a2"), v("b2"), v("d2")});
  r3->AppendRow({v("a1"), v("e1")});
  r3->AppendRow({v("a2"), v("e1")});
  r3->AppendRow({v("a2"), v("e2")});
  r4->AppendRow({v("b1"), v("f1")});
  r4->AppendRow({v("b2"), v("f1")});
  r4->AppendRow({v("b2"), v("f2")});
  ex.query.AddAtom(ex.db, "R1", {"A", "B", "C"});
  ex.query.AddAtom(ex.db, "R2", {"A", "B", "D"});
  ex.query.AddAtom(ex.db, "R3", {"A", "E"});
  ex.query.AddAtom(ex.db, "R4", {"B", "F"});
  return ex;
}

PaperExample MakeFigure3Example() {
  PaperExample ex;
  Dictionary& d = ex.db.dict();
  auto* r1 = ex.db.AddRelation("R1", {"A", "B"});
  auto* r2 = ex.db.AddRelation("R2", {"B", "C"});
  auto* r3 = ex.db.AddRelation("R3", {"C", "D"});
  auto* r4 = ex.db.AddRelation("R4", {"D", "E"});
  auto v = [&](const char* s) { return d.Intern(s); };
  r1->AppendRow({v("a1"), v("b1")});
  r1->AppendRow({v("a2"), v("b1")});
  r2->AppendRow({v("b1"), v("c1")});
  r2->AppendRow({v("b2"), v("c2")});
  r3->AppendRow({v("c1"), v("d1")});
  r3->AppendRow({v("c1"), v("d2")});
  r4->AppendRow({v("d1"), v("e1")});
  r4->AppendRow({v("d2"), v("e1")});
  ex.query.AddAtom(ex.db, "R1", {"A", "B"});
  ex.query.AddAtom(ex.db, "R2", {"B", "C"});
  ex.query.AddAtom(ex.db, "R3", {"C", "D"});
  ex.query.AddAtom(ex.db, "R4", {"D", "E"});
  return ex;
}

PaperExample MakeRandomAcyclicInstance(Rng& rng,
                                       const RandomQuerySpec& spec) {
  PaperExample ex;
  const int num_atoms = static_cast<int>(
      rng.NextInRange(spec.min_atoms, spec.max_atoms));

  // Build the query as a random join tree: atom i > 0 shares a nonempty
  // subset of a random earlier atom's variables and may add fresh ones.
  int next_attr = 0;
  std::vector<std::vector<std::string>> atom_vars;
  for (int i = 0; i < num_atoms; ++i) {
    std::vector<std::string> vars;
    if (i == 0) {
      int count = static_cast<int>(
          rng.NextInRange(1, spec.max_attrs_per_atom));
      for (int c = 0; c < count; ++c) {
        vars.push_back("x" + std::to_string(next_attr++));
      }
    } else {
      int parent = static_cast<int>(rng.NextInRange(0, i - 1));
      const auto& pvars = atom_vars[static_cast<size_t>(parent)];
      // Nonempty random subset of the parent's variables.
      size_t take = 1 + rng.NextBounded(pvars.size());
      std::vector<size_t> idx(pvars.size());
      for (size_t j = 0; j < idx.size(); ++j) idx[j] = j;
      for (size_t j = 0; j < take; ++j) {
        size_t pick = j + rng.NextBounded(idx.size() - j);
        std::swap(idx[j], idx[pick]);
        vars.push_back(pvars[idx[j]]);
      }
      if (spec.allow_exclusive_attrs &&
          static_cast<int>(vars.size()) < spec.max_attrs_per_atom &&
          rng.NextDouble() < 0.5) {
        vars.push_back("x" + std::to_string(next_attr++));
      }
    }
    atom_vars.push_back(std::move(vars));
  }

  for (int i = 0; i < num_atoms; ++i) {
    const auto& vars = atom_vars[static_cast<size_t>(i)];
    std::string name = "R" + std::to_string(i);
    auto* rel = ex.db.AddRelation(name, vars);
    int rows = static_cast<int>(rng.NextInRange(0, spec.max_rows));
    std::vector<Value> row(vars.size());
    for (int r = 0; r < rows; ++r) {
      for (auto& cell : row) {
        cell = static_cast<Value>(rng.NextBounded(
            static_cast<uint64_t>(spec.domain_size)));
      }
      rel->AppendRow(row);
    }
    int atom = ex.query.AddAtom(ex.db, name, vars);
    for (const auto& var : vars) {
      if (rng.NextDouble() < spec.predicate_probability) {
        Predicate p;
        p.var = ex.db.attrs().Lookup(var);
        int op = static_cast<int>(rng.NextBounded(6));
        p.op = static_cast<Predicate::Op>(op);
        p.rhs = static_cast<Value>(
            rng.NextBounded(static_cast<uint64_t>(spec.domain_size)));
        ex.query.AddPredicate(atom, p);
      }
    }
  }
  return ex;
}

PaperExample MakeRandomTriangleInstance(Rng& rng, int max_rows,
                                        int domain_size) {
  PaperExample ex;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> vars;
    if (i == 0) vars = {"A", "B"};
    if (i == 1) vars = {"B", "C"};
    if (i == 2) vars = {"C", "A"};
    std::string name = "E" + std::to_string(i);
    auto* rel = ex.db.AddRelation(name, vars);
    int rows = static_cast<int>(rng.NextInRange(0, max_rows));
    for (int r = 0; r < rows; ++r) {
      Value x = static_cast<Value>(
          rng.NextBounded(static_cast<uint64_t>(domain_size)));
      Value y = static_cast<Value>(
          rng.NextBounded(static_cast<uint64_t>(domain_size)));
      rel->AppendRow({x, y});
    }
    ex.query.AddAtom(ex.db, name, vars);
  }
  return ex;
}

BagInstance MakeRandomBagInstance(Rng& rng, int trees) {
  BagInstance inst;
  int next_var = 0;
  int next_rel = 0;
  for (int t = 0; t < trees; ++t) {
    const int num_bags = static_cast<int>(rng.NextInRange(1, 3));
    std::vector<std::vector<std::string>> pools;
    for (int b = 0; b < num_bags; ++b) {
      std::vector<std::string> pool;
      if (b > 0) {
        const auto& parent = pools[rng.NextBounded(pools.size())];
        for (const std::string& v : parent) {
          if (rng.NextDouble() < 0.5) pool.push_back(v);
        }
        if (pool.empty()) {
          pool.push_back(parent[rng.NextBounded(parent.size())]);
        }
      }
      const int fresh = static_cast<int>(rng.NextInRange(b == 0 ? 2 : 1, 3));
      for (int f = 0; f < fresh; ++f) {
        pool.push_back("v" + std::to_string(next_var++));
      }
      pools.push_back(pool);

      const int num_atoms = static_cast<int>(rng.NextInRange(1, 3));
      std::vector<std::vector<std::string>> atom_vars(
          static_cast<size_t>(num_atoms));
      for (const std::string& v : pool) {
        // Every pool variable lands in one random atom, and sometimes in
        // another one too.
        atom_vars[rng.NextBounded(atom_vars.size())].push_back(v);
        auto& extra = atom_vars[rng.NextBounded(atom_vars.size())];
        if (rng.NextDouble() < 0.5 &&
            std::find(extra.begin(), extra.end(), v) == extra.end()) {
          extra.push_back(v);
        }
      }
      std::vector<int> bag;
      for (auto& vars : atom_vars) {
        if (vars.empty()) vars.push_back(pool[rng.NextBounded(pool.size())]);
        const std::string name = "R" + std::to_string(next_rel++);
        Relation* rel = inst.db.AddRelation(name, vars);
        const int rows = static_cast<int>(rng.NextInRange(0, 8));
        const bool keyed = vars.size() >= 2 && rng.NextDouble() < 0.5;
        std::vector<Value> row(vars.size());
        for (int r = 0; r < rows; ++r) {
          for (Value& cell : row) {
            cell = static_cast<Value>(rng.NextBounded(4));
          }
          if (keyed) row[0] = r;
          rel->AppendRow(row);
          // Duplicates raise multiplicities (bag semantics).
          if (rng.NextDouble() < 0.2) rel->AppendRow(row);
        }
        const int atom = inst.query.AddAtom(inst.db, name, vars);
        for (const std::string& v : vars) {
          if (rng.NextDouble() < 0.1) {
            Predicate p;
            p.var = inst.db.attrs().Lookup(v);
            p.op = static_cast<Predicate::Op>(rng.NextBounded(6));
            p.rhs = static_cast<Value>(rng.NextBounded(4));
            inst.query.AddPredicate(atom, p);
          }
        }
        bag.push_back(atom);
      }
      inst.bags.push_back(std::move(bag));
    }
  }
  return inst;
}

namespace {

// Appends up to `max_rows` random rows over [0, domain_size) to `rel`.
void FillRandomRows(Rng& rng, Relation* rel, int max_rows, int domain_size) {
  const int rows = static_cast<int>(rng.NextInRange(0, max_rows));
  std::vector<Value> row(rel->arity());
  for (int r = 0; r < rows; ++r) {
    for (Value& cell : row) {
      cell = static_cast<Value>(
          rng.NextBounded(static_cast<uint64_t>(domain_size)));
    }
    rel->AppendRow(row);
  }
}

}  // namespace

BagInstance MakeRandomCycleInstance(Rng& rng, int length, int max_rows,
                                    int domain_size, bool predicates) {
  LSENS_CHECK(length >= 3);
  BagInstance inst;
  for (int i = 0; i < length; ++i) {
    const std::vector<std::string> vars = {
        "v" + std::to_string(i), "v" + std::to_string((i + 1) % length)};
    const std::string name = "C" + std::to_string(i);
    FillRandomRows(rng, inst.db.AddRelation(name, vars), max_rows,
                   domain_size);
    const int atom = inst.query.AddAtom(inst.db, name, vars);
    if (predicates && rng.NextDouble() < 0.25) {
      Predicate p;
      p.var = inst.db.attrs().Lookup(vars[rng.NextBounded(2)]);
      p.op = static_cast<Predicate::Op>(rng.NextBounded(6));
      p.rhs = static_cast<Value>(
          rng.NextBounded(static_cast<uint64_t>(domain_size)));
      inst.query.AddPredicate(atom, p);
    }
  }
  // Any two arcs of a cycle form an acyclic pair of bags.
  const int start = static_cast<int>(rng.NextBounded(
      static_cast<uint64_t>(length)));
  const int split = static_cast<int>(rng.NextInRange(1, length - 1));
  inst.bags.resize(2);
  for (int k = 0; k < length; ++k) {
    inst.bags[k < split ? 0 : 1].push_back((start + k) % length);
  }
  return inst;
}

BagInstance MakeRandomQ3Instance(Rng& rng, int max_rows, int domain_size) {
  BagInstance inst;
  const std::vector<std::pair<std::string, std::vector<std::string>>> atoms =
      {{"Region", {"RK"}},         {"Nation", {"RK", "NK"}},
       {"Supplier", {"NK", "SK"}}, {"Partsupp", {"SK", "PK"}},
       {"Part", {"PK"}},           {"Customer", {"NK", "CK"}},
       {"Orders", {"CK", "OK"}},   {"Lineitem", {"OK", "SK", "PK"}}};
  for (const auto& [name, vars] : atoms) {
    FillRandomRows(rng, inst.db.AddRelation(name, vars), max_rows,
                   domain_size);
    inst.query.AddAtom(inst.db, name, vars);
  }
  inst.bags = {{0, 1, 7}, {6, 5}, {2, 4}, {3}};
  return inst;
}

PaperExample MakeRandomScrambledPath(Rng& rng) {
  const int m = static_cast<int>(rng.NextInRange(2, 7));
  std::vector<int> declared(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) declared[static_cast<size_t>(i)] = i;
  for (int i = m - 1; i > 0; --i) {
    std::swap(declared[static_cast<size_t>(i)],
              declared[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
  }
  PaperExample ex;
  for (int i : declared) {
    std::vector<std::string> vars{"x" + std::to_string(i),
                                  "x" + std::to_string(i + 1)};
    if (rng.NextBounded(2) == 1) std::swap(vars[0], vars[1]);
    auto* rel = ex.db.AddRelation("R" + std::to_string(i), vars);
    int rows = static_cast<int>(rng.NextInRange(0, 7));
    for (int r = 0; r < rows; ++r) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(3)),
                      static_cast<Value>(rng.NextBounded(3))});
    }
    ex.query.AddAtom(ex.db, "R" + std::to_string(i), vars);
  }
  return ex;
}

PaperExample MakeStreamInstance(Rng& rng, StreamShape shape) {
  switch (shape) {
    case StreamShape::kPath:
      return MakeFigure3Example();
    case StreamShape::kTree: {
      RandomQuerySpec spec;
      spec.min_atoms = 3;
      spec.max_atoms = 4;
      spec.predicate_probability = 0.0;
      return MakeRandomAcyclicInstance(rng, spec);
    }
    case StreamShape::kTriangle:
      return MakeRandomTriangleInstance(rng, /*max_rows=*/6,
                                        /*domain_size=*/3);
  }
  LSENS_CHECK_MSG(false, "unknown StreamShape");
  return {};
}

std::vector<std::string> QueryRelationNames(const ConjunctiveQuery& q) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(q.num_atoms()));
  for (int i = 0; i < q.num_atoms(); ++i) {
    names.push_back(q.atom(i).relation);
  }
  return names;
}

namespace {

std::vector<Value> RandomRow(Rng& rng, size_t arity, int domain) {
  std::vector<Value> row(arity);
  for (Value& v : row) {
    v = static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain)));
  }
  return row;
}

}  // namespace

DatabaseDelta MakeRandomDelta(Rng& rng, const Database& db,
                              const std::vector<std::string>& relations,
                              int domain, size_t max_ops) {
  LSENS_CHECK(!relations.empty() && max_ops > 0);
  const Relation* rel =
      db.Find(relations[rng.NextBounded(relations.size())]);
  LSENS_CHECK(rel != nullptr);
  RelationDelta rd;
  rd.relation = rel->name();
  const size_t ops = 1 + rng.NextBounded(max_ops);
  const size_t n = rel->NumRows();
  for (size_t i = 0; i < ops; ++i) {
    if (n > rd.delete_rows.size() && rng.NextBounded(2) == 0) {
      // Distinct random indices: retry a few times, then skip.
      for (int attempt = 0; attempt < 4; ++attempt) {
        size_t idx = rng.NextBounded(n);
        if (std::find(rd.delete_rows.begin(), rd.delete_rows.end(), idx) ==
            rd.delete_rows.end()) {
          rd.delete_rows.push_back(idx);
          break;
        }
      }
    } else {
      rd.inserts.push_back(RandomRow(rng, rel->arity(), domain));
    }
  }
  DatabaseDelta delta;
  delta.push_back(std::move(rd));
  return delta;
}

void ApplyRandomMutation(Rng& rng, Database& db,
                         const std::vector<std::string>& relations,
                         int domain, size_t max_ops) {
  LSENS_CHECK(!relations.empty() && max_ops > 0);
  if (rng.NextBounded(2) == 0) {
    // Batched path: one atomic DatabaseDelta.
    DatabaseDelta delta = MakeRandomDelta(rng, db, relations, domain, max_ops);
    LSENS_CHECK(db.ApplyDelta(delta).ok());
    return;
  }
  Relation* rel = db.Find(relations[rng.NextBounded(relations.size())]);
  LSENS_CHECK(rel != nullptr);
  const size_t ops = 1 + rng.NextBounded(max_ops);
  for (size_t i = 0; i < ops; ++i) {
    if (rel->NumRows() > 0 && rng.NextBounded(2) == 0) {
      rel->SwapRemoveRow(rng.NextBounded(rel->NumRows()));
    } else {
      rel->AppendRow(RandomRow(rng, rel->arity(), domain));
    }
  }
}

}  // namespace lsens::testing
