#ifndef LSENS_TESTS_TEST_UTIL_H_
#define LSENS_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "query/conjunctive_query.h"
#include "storage/database.h"

namespace lsens::testing {

// Fixture data for the paper's running examples.
struct PaperExample {
  Database db;
  ConjunctiveQuery query;
};

// Figure 1: R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F); |Q(D)| = 1,
// LS = 4 with most sensitive tuple R1(a2, b2, c1).
PaperExample MakeFigure1Example();

// Figure 3 (clean variant): Qpath-4(A..E) :- R1(A,B),R2(B,C),R3(C,D),R4(D,E)
// with R1 = {(a1,b1),(a2,b1)}, R2 = {(b1,c1),(b2,c2)},
// R3 = {(c1,d1),(c1,d2)}, R4 = {(d1,e1),(d2,e1)}; |Q(D)| = 4 and the most
// sensitive tuple is R2(b1, c1) with sensitivity 4.
PaperExample MakeFigure3Example();

// Random-instance generators for property-based tests. Values are drawn
// from a small domain so joins collide; duplicate rows are possible (bag
// semantics must handle them).
struct RandomQuerySpec {
  int min_atoms = 2;
  int max_atoms = 5;
  int max_attrs_per_atom = 3;
  int max_rows = 8;
  int domain_size = 3;
  double predicate_probability = 0.15;
  bool allow_exclusive_attrs = true;
};

// Generates a random acyclic query (built as an explicit join tree: each
// atom shares a nonempty attribute subset with its parent) plus a random
// database instance for it.
PaperExample MakeRandomAcyclicInstance(Rng& rng, const RandomQuerySpec& spec);

// Generates a random instance of the triangle query
// Q(A,B,C) :- R1(A,B), R2(B,C), R3(C,A)  (cyclic).
PaperExample MakeRandomTriangleInstance(Rng& rng, int max_rows,
                                        int domain_size);

// --- Random GHD shapes ----------------------------------------------------
// Cyclic and multi-atom-bag instances for the engine oracles: each comes
// with the atom bags of a valid GHD, for BuildGhd.

struct BagInstance {
  Database db;
  ConjunctiveQuery query;
  std::vector<std::vector<int>> bags;
};

// A random query over a random forest of `trees` bag trees, with the bag
// partition that is a valid GHD by construction: each bag's variable pool
// inherits a nonempty subset of its parent bag's pool plus fresh
// variables (so every variable's bags form a connected subtree), and the
// bag's 1-3 atoms together cover the pool, possibly cyclically. About
// half the relations are keyed on their first column (an FK-PK
// dependency, which is what makes GroupMax's grouping injective). Values
// lie in [0, 4); about one variable in ten carries a random predicate.
BagInstance MakeRandomBagInstance(Rng& rng, int trees);

// The cycle C0(v0,v1), C1(v1,v2), ..., C{n-1}(v{n-1},v0) of `length` >= 3
// binary atoms, each with up to `max_rows` rows over [0, domain_size),
// and the two bags of a random split of the cycle into two arcs. With
// `predicates`, about one atom in four carries a random comparison.
BagInstance MakeRandomCycleInstance(Rng& rng, int length, int max_rows,
                                    int domain_size, bool predicates);

// TPC-H q3's shape on random data: Region(RK), Nation(RK,NK),
// Supplier(NK,SK), Partsupp(SK,PK), Part(PK), Customer(NK,CK),
// Orders(CK,OK), Lineitem(OK,SK,PK), in that atom order, with Figure 5a's
// bags {R,N,L} {O,C} {S,P} {PS}. Up to `max_rows` rows per relation over
// [0, domain_size).
BagInstance MakeRandomQ3Instance(Rng& rng, int max_rows, int domain_size);

// The path R0(x0,x1), R1(x1,x2), ... of 2-6 binary atoms, declared in
// random order with each relation's two columns in random order, and up to
// 6 rows per relation over [0, 3).
PaperExample MakeRandomScrambledPath(Rng& rng);

// --- Seeded stream workloads ---------------------------------------------
// Shared by the streaming suites (incremental_test, plan_cache_test,
// serving_test): one seed determines both the instance build and the delta
// stream, so every suite replays the identical workload family instead of
// keeping its own diverging copy of the generator.

// Query shapes the streaming suites replay.
enum class StreamShape { kPath, kTree, kTriangle };

// A db+query instance for `shape`: path = the Figure 3 running example
// (non-trivial by construction), tree = a random acyclic instance,
// triangle = a random cyclic instance.
PaperExample MakeStreamInstance(Rng& rng, StreamShape shape);

// The query's relation names in atom order (an atom per element, so
// relations mentioned by more atoms are mutated proportionally more often).
std::vector<std::string> QueryRelationNames(const ConjunctiveQuery& q);

// One randomized batch of 1..max_ops inserts/deletes against a single
// random relation of `relations`, returned as a DatabaseDelta that applies
// cleanly through Database::ApplyDelta (delete indices are distinct and in
// range for the relation's current size).
DatabaseDelta MakeRandomDelta(Rng& rng, const Database& db,
                              const std::vector<std::string>& relations,
                              int domain, size_t max_ops = 3);

// Applies one randomized batch (1..max_ops inserts/deletes) to a random
// relation of `relations`, mixing the direct mutators
// (AppendRow/SwapRemoveRow) and the batched ApplyDelta path so streams
// exercise both changelog producers.
void ApplyRandomMutation(Rng& rng, Database& db,
                         const std::vector<std::string>& relations,
                         int domain, size_t max_ops = 3);

}  // namespace lsens::testing

#endif  // LSENS_TESTS_TEST_UTIL_H_
