#ifndef LSENS_STORAGE_DATABASE_H_
#define LSENS_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/dictionary.h"
#include "storage/relation.h"

namespace lsens {

// A batched update to one relation: rows to append plus indices (into the
// pre-delta relation) of rows to remove. See Relation::ApplyDelta.
struct RelationDelta {
  std::string relation;
  std::vector<std::vector<Value>> inserts;
  std::vector<size_t> delete_rows;
};

// A batched update across relations, applied in order.
using DatabaseDelta = std::vector<RelationDelta>;

// A database instance: a set of named relations plus the shared attribute
// catalog (query variables) and an optional value dictionary for symbolic
// domains. Relations are stored by unique name; self-joins are expressed by
// materializing a second copy under a different name (the paper's model).
class Database {
 public:
  Database() = default;

  // Movable, not copyable (relations can be large); use Clone() when a
  // deep copy is genuinely needed (e.g. truncation mechanisms).
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Database Clone() const;

  // Deep copy for an immutable epoch snapshot: contents and version
  // counters are preserved (so the snapshot's VersionVector still names the
  // epoch it was taken at), but change logs are not copied (see
  // Relation::CloneSnapshot). The snapshot may still take ApplyDelta: the
  // serving layer brings a retired snapshot forward that way, and ApplyDelta
  // bumps versions identically with or without a log.
  Database CloneSnapshot() const;

  // Adds an empty relation; CHECK-fails if the name already exists.
  Relation* AddRelation(std::string name,
                        std::vector<std::string> column_names);

  // Lookup; nullptr if absent.
  Relation* Find(const std::string& name);
  const Relation* Find(const std::string& name) const;

  // Lookup; Status if absent.
  StatusOr<const Relation*> Get(const std::string& name) const;

  const std::vector<std::string>& relation_names() const { return names_; }

  // Applies every RelationDelta in order, all-or-nothing for the whole
  // batch: the full list is validated first (against the row counts each
  // relation will have when its turn comes, so one relation may appear in
  // several deltas), and only a fully valid batch mutates anything. A
  // rejected batch leaves every relation untouched — no version bumps, no
  // changelog entries.
  Status ApplyDelta(const DatabaseDelta& delta);

  // The named relation's monotone version counter (see Relation::version);
  // Status if the relation is absent. Caches key their entries on these.
  StatusOr<uint64_t> VersionOf(const std::string& relation) const;

  size_t TotalRows() const;

  // Bytes held by every relation's columns and change logs (see
  // Relation::MemoryBytes) plus the value dictionary; the serving layer's
  // epoch accounting.
  size_t MemoryBytes() const;

  // Every relation's (name, version) in insertion order — the identity of
  // the database state an epoch snapshot captures. Two databases with equal
  // names whose version vectors match have seen the same mutation counts.
  std::vector<std::pair<std::string, uint64_t>> VersionVector() const;

  AttributeCatalog& attrs() { return attrs_; }
  const AttributeCatalog& attrs() const { return attrs_; }
  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

 private:
  // Catalog, dictionary and relation names; no relations yet.
  Database CopyWithoutRelations() const;

  std::vector<std::string> names_;  // insertion order, for stable iteration
  // lsens-lint: allow(unordered-iter) lookup-only by name; every walk over
  // the database routes through names_ so iteration order is insertion
  // order, never hash order.
  std::unordered_map<std::string, std::unique_ptr<Relation>> relations_;
  AttributeCatalog attrs_;
  Dictionary dict_;
};

}  // namespace lsens

#endif  // LSENS_STORAGE_DATABASE_H_
