// Incremental sensitivity maintenance under update streams: replays
// randomized single-row insert/delete streams over the path, acyclic-tree,
// TPC-H q1, cyclic-triangle (searched GHD), and disconnected-forest
// workloads, checking a SensitivityCache repair against a from-scratch
// ComputeLocalSensitivity along the way. Also runs the repair-index
// microbench: the flat open-addressing DynTable against the
// unordered_multimap-indexed layout it replaced, on the same op stream.
// Reports wall-clock per repaired update, full-recompute wall clock, and
// the rows-processed ratio (summed over every ExecContext operator), and
// writes the BENCH_incremental.json trajectory file.
//
// Exits non-zero (failing the CTest smoke) when a repairable stream's
// rows-touched ratio exceeds LSENS_INC_MAX_ROW_RATIO — the pinned
// asymptotic-work threshold — when any stream hits an unsupported-shape
// fallback (every bench shape is repairable), or when the flat/multimap
// checksums diverge.
//
// Knobs:
//   LSENS_INC_ROWS          rows per synthetic relation   (default 100000)
//   LSENS_INC_TRI_ROWS      rows per triangle relation    (default
//                           LSENS_INC_ROWS / 20; the bag join is quadratic)
//   LSENS_INC_DOMAIN        synthetic join-key domain     (default 1000)
//   LSENS_INC_UPDATES       stream length                 (default 200)
//   LSENS_INC_CHECK_EVERY   full-recompute cadence        (default 25)
//   LSENS_INC_TPCH_SCALE    TPC-H scale factor            (default 0.02)
//   LSENS_INC_MAX_ROW_RATIO rows-touched ratio ceiling    (default 0.05)
//   LSENS_INC_INDEX_ROWS    microbench table rows         (default 100000)
//   LSENS_INC_INDEX_OPS     microbench op-stream length   (default 300000)
//   LSENS_INC_INDEX_DOMAIN  microbench per-column domain  (default 400)
//   LSENS_BENCH_INC_JSON    output path                   (default
//                           BENCH_incremental.json)

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "exec/dyn_table.h"
#include "exec/exec_context.h"
#include "sensitivity/incremental.h"
#include "sensitivity/tsens.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace lsens {
namespace {

struct StreamResult {
  std::string name;
  size_t rows = 0;
  long updates = 0;
  double repair_ns = 0;       // median wall per repaired update
  double full_ns = 0;         // median wall per from-scratch compute
  double repair_rows = 0;     // median rows processed per repaired update
  double full_rows = 0;       // rows processed by one full compute
  uint64_t repairs = 0;
  uint64_t fallbacks = 0;
  uint64_t fallback_unsupported = 0;  // must stay 0: every shape repairs
};

uint64_t TotalRows(const ExecContext& ctx) {
  uint64_t total = 0;
  for (const OperatorStats& s : ctx.stats()) total += s.rows_in + s.rows_out;
  return total;
}

// One random single-row mutation: duplicate a random existing row (keeps
// the join-key distribution realistic) or delete a random row.
void MutateOne(Rng& rng, const ConjunctiveQuery& q, Database& db) {
  const Atom& atom = q.atom(
      static_cast<int>(rng.NextBounded(static_cast<uint64_t>(q.num_atoms()))));
  Relation* rel = db.Find(atom.relation);
  const size_t n = rel->NumRows();
  if (n > 1 && rng.NextBounded(2) == 0) {
    rel->SwapRemoveRow(rng.NextBounded(n));
  } else if (n > 0) {
    std::vector<Value> row = rel->Row(rng.NextBounded(n));
    rel->AppendRow(row);
  }
}

StreamResult ReplayStream(const std::string& name, const ConjunctiveQuery& q,
                          Database& db, const TSensComputeOptions& options,
                          long updates, long check_every, Rng rng) {
  StreamResult out;
  out.name = name;
  for (const Atom& atom : q.atoms()) {
    out.rows += db.Find(atom.relation)->NumRows();
  }
  out.updates = updates;

  SensitivityCache cache;
  TSensComputeOptions cached_options = options;

  // Baseline: one from-scratch compute with stats, for the row count.
  {
    ExecContext ctx;
    TSensComputeOptions full = options;
    full.join.ctx = &ctx;
    auto r = ComputeLocalSensitivity(q, db, full);
    LSENS_CHECK(r.ok());
    out.full_rows = static_cast<double>(TotalRows(ctx));
  }

  // Prime the cache (miss + state capture), then replay.
  LSENS_CHECK(cache.Compute(q, db, cached_options).ok());
  std::vector<double> repair_ns;
  std::vector<double> repair_rows;
  std::vector<double> full_ns;
  for (long u = 0; u < updates; ++u) {
    MutateOne(rng, q, db);
    ExecContext ctx;
    cached_options.join.ctx = &ctx;
    WallTimer timer;
    auto repaired = cache.Compute(q, db, cached_options);
    double elapsed = timer.ElapsedSeconds();
    LSENS_CHECK(repaired.ok());
    repair_ns.push_back(elapsed * 1e9);
    repair_rows.push_back(static_cast<double>(TotalRows(ctx)));
    if (u % check_every == 0) {
      WallTimer full_timer;
      auto fresh = ComputeLocalSensitivity(q, db, options);
      full_ns.push_back(full_timer.ElapsedSeconds() * 1e9);
      LSENS_CHECK(fresh.ok());
      // The incremental answer must be bit-identical to from-scratch.
      LSENS_CHECK(repaired->local_sensitivity == fresh->local_sensitivity);
      LSENS_CHECK(repaired->argmax_atom == fresh->argmax_atom);
      for (size_t a = 0; a < fresh->atoms.size(); ++a) {
        LSENS_CHECK(repaired->atoms[a].max_sensitivity ==
                    fresh->atoms[a].max_sensitivity);
        LSENS_CHECK(repaired->atoms[a].argmax == fresh->atoms[a].argmax);
      }
    }
  }
  out.repair_ns = bench::Median(repair_ns);
  out.repair_rows = bench::Median(repair_rows);
  out.full_ns = bench::Median(full_ns);
  out.repairs = cache.stats().repairs;
  out.fallbacks = cache.stats().fallback_stale +
                  cache.stats().fallback_large_delta +
                  cache.stats().fallback_unsupported +
                  cache.stats().fallback_spilled;
  out.fallback_unsupported = cache.stats().fallback_unsupported;
  return out;
}

Database MakeSyntheticDb(Rng& rng, const std::vector<std::string>& names,
                         const std::vector<std::vector<std::string>>& cols,
                         long rows, long domain) {
  Database db;
  for (size_t i = 0; i < names.size(); ++i) {
    Relation* rel = db.AddRelation(names[i], cols[i]);
    rel->Reserve(static_cast<size_t>(rows));
    std::vector<Value> row(cols[i].size());
    for (long r = 0; r < rows; ++r) {
      for (Value& v : row) {
        v = static_cast<Value>(
            rng.NextBounded(static_cast<uint64_t>(domain)));
      }
      rel->AppendRow(row);
    }
  }
  return db;
}

void PrintResult(const StreamResult& r) {
  std::printf(
      "%-12s %9zu rows  repair %10.0f ns/update  full %12.0f ns  "
      "speedup %8.1fx  rows %7.0f vs %9.0f (%.3f%%)  repairs %" PRIu64
      "  fallbacks %" PRIu64 "\n",
      r.name.c_str(), r.rows, r.repair_ns, r.full_ns,
      r.repair_ns > 0 ? r.full_ns / r.repair_ns : 0.0, r.repair_rows,
      r.full_rows,
      r.full_rows > 0 ? 100.0 * r.repair_rows / r.full_rows : 0.0, r.repairs,
      r.fallbacks);
}

// --- repair-index microbench ---------------------------------------------

// The PR-4 DynTable layout, kept verbatim as the microbench baseline (the
// way bench_join_micro keeps the legacy multimap join kernels): primary
// and secondary indexes are unordered_multimaps over key hashes, and Set /
// Adjust hash twice (find, then insert/erase).
class LegacyMultimapTable {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  explicit LegacyMultimapTable(size_t arity) : arity_(arity) {}

  void LoadRows(const CountedRelation& rel) {
    for (size_t i = 0; i < rel.NumRows(); ++i) {
      InsertRow(rel.Row(i), rel.CountAt(i));
    }
  }

  int AddIndex(std::vector<int> cols) {
    secondary_.push_back(Index{std::move(cols), {}});
    Index& index = secondary_.back();
    for (uint32_t r = 0; r < counts_.size(); ++r) {
      if (alive_[r]) IndexInsert(index, r);
    }
    return static_cast<int>(secondary_.size() - 1);
  }

  Count Get(std::span<const Value> key) const {
    uint32_t row = FindRow(key);
    return row == kNoRow ? Count::Zero() : counts_[row];
  }

  Count Set(std::span<const Value> key, Count c) {
    uint32_t row = FindRow(key);
    if (row == kNoRow) {
      if (!c.IsZero()) InsertRow(key, c);
      return Count::Zero();
    }
    Count old = counts_[row];
    if (c.IsZero()) {
      EraseRow(row);
    } else {
      counts_[row] = c;
    }
    return old;
  }

  bool Adjust(std::span<const Value> key, Count c, bool add) {
    if (c.IsZero()) return true;
    uint32_t row = FindRow(key);
    Count old = row == kNoRow ? Count::Zero() : counts_[row];
    if (add) {
      Count updated = old + c;
      if (updated.IsSaturated()) return false;
      if (row == kNoRow) {
        InsertRow(key, updated);
      } else {
        counts_[row] = updated;
      }
      return true;
    }
    if (old < c) return false;
    Count updated = old.SaturatingSub(c);
    if (updated.IsZero()) {
      EraseRow(row);
    } else {
      counts_[row] = updated;
    }
    return true;
  }

  void LookupIndex(int index_id, std::span<const Value> key,
                   std::vector<uint32_t>* out) const {
    const Index& index = secondary_[static_cast<size_t>(index_id)];
    auto [begin, end] = index.map.equal_range(Hash(key));
    for (auto it = begin; it != end; ++it) {
      uint32_t row = it->second;
      std::span<const Value> stored = RowValues(row);
      bool match = true;
      for (size_t i = 0; i < index.cols.size() && match; ++i) {
        match = stored[static_cast<size_t>(index.cols[i])] == key[i];
      }
      if (match) out->push_back(row);
    }
  }

 private:
  struct Index {
    std::vector<int> cols;
    std::unordered_multimap<uint64_t, uint32_t> map;
  };

  static uint64_t Hash(std::span<const Value> key) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (Value v : key) h = Mix64(h ^ static_cast<uint64_t>(v));
    return h;
  }

  std::span<const Value> RowValues(uint32_t row) const {
    return {data_.data() + static_cast<size_t>(row) * arity_, arity_};
  }

  uint32_t FindRow(std::span<const Value> key) const {
    auto [begin, end] = primary_.equal_range(Hash(key));
    for (auto it = begin; it != end; ++it) {
      std::span<const Value> stored = RowValues(it->second);
      bool match = true;
      for (size_t i = 0; i < key.size() && match; ++i) {
        match = stored[i] == key[i];
      }
      if (match) return it->second;
    }
    return kNoRow;
  }

  void InsertRow(std::span<const Value> key, Count c) {
    uint32_t row;
    if (!free_.empty()) {
      row = free_.back();
      free_.pop_back();
      std::copy(key.begin(), key.end(),
                data_.begin() + static_cast<size_t>(row) * arity_);
      counts_[row] = c;
      alive_[row] = 1;
    } else {
      row = static_cast<uint32_t>(counts_.size());
      data_.insert(data_.end(), key.begin(), key.end());
      counts_.push_back(c);
      alive_.push_back(1);
    }
    primary_.emplace(Hash(key), row);
    for (Index& index : secondary_) IndexInsert(index, row);
  }

  void EraseRow(uint32_t row) {
    for (Index& index : secondary_) {
      std::span<const Value> stored = RowValues(row);
      std::vector<Value> projected;
      for (int c : index.cols) {
        projected.push_back(stored[static_cast<size_t>(c)]);
      }
      auto [begin, end] = index.map.equal_range(
          Hash({projected.data(), projected.size()}));
      for (auto it = begin; it != end; ++it) {
        if (it->second == row) {
          index.map.erase(it);
          break;
        }
      }
    }
    std::span<const Value> key = RowValues(row);
    auto [begin, end] = primary_.equal_range(Hash(key));
    for (auto it = begin; it != end; ++it) {
      if (it->second == row) {
        primary_.erase(it);
        break;
      }
    }
    alive_[row] = 0;
    counts_[row] = Count::Zero();
    free_.push_back(row);
  }

  void IndexInsert(Index& index, uint32_t row) {
    std::span<const Value> stored = RowValues(row);
    std::vector<Value> projected;
    for (int c : index.cols) {
      projected.push_back(stored[static_cast<size_t>(c)]);
    }
    index.map.emplace(Hash({projected.data(), projected.size()}), row);
  }

  size_t arity_;
  std::vector<Value> data_;
  std::vector<Count> counts_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> free_;
  std::unordered_multimap<uint64_t, uint32_t> primary_;
  std::vector<Index> secondary_;
};

struct IndexMicroResult {
  long rows = 0;
  long ops = 0;
  double flat_ns = 0;
  double multimap_ns = 0;
};

// The repair op mix: point adjustments and upserts (the source delta
// apply), point reads of input tables, and secondary-index group scans
// (the affected-group re-aggregation). Both layouts see the identical
// deterministic stream; the checksum pins identical behavior.
template <typename Table>
double TimeIndexOps(Table& table, int lookup_index, long ops, uint64_t seed,
                    long domain, uint64_t* checksum) {
  Rng rng(seed);
  std::vector<uint32_t> rows;
  std::vector<Value> key(2);
  WallTimer timer;
  for (long i = 0; i < ops; ++i) {
    key[0] = static_cast<Value>(rng.NextBounded(domain));
    key[1] = static_cast<Value>(rng.NextBounded(domain));
    switch (rng.NextBounded(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        bool add = rng.NextBounded(2) == 0;
        *checksum += table.Adjust(key, Count::One(), add) ? 1 : 0;
        break;
      }
      case 4:
      case 5: {
        *checksum += table.Get(key).ToUint64Saturated();
        break;
      }
      case 6: {
        table.Set(key, Count(rng.NextBounded(3)));
        break;
      }
      default: {
        rows.clear();
        table.LookupIndex(lookup_index, {key.data(), 1}, &rows);
        *checksum += rows.size();
        break;
      }
    }
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(ops);
}

IndexMicroResult RunIndexMicro(long rows, long ops, long domain, long reps) {
  CountedRelation seed_rel({1, 2});
  Rng fill(7151);
  for (long i = 0; i < rows; ++i) {
    seed_rel.AppendRow({static_cast<Value>(fill.NextBounded(domain)),
                        static_cast<Value>(fill.NextBounded(domain))},
                       Count(1 + fill.NextBounded(3)));
  }
  seed_rel.Normalize();

  IndexMicroResult out;
  out.rows = rows;
  out.ops = ops;
  std::vector<double> flat_ns;
  std::vector<double> multimap_ns;
  uint64_t flat_sum = 0;
  uint64_t multimap_sum = 0;
  for (long rep = 0; rep < reps; ++rep) {
    const uint64_t seed = 90210 + static_cast<uint64_t>(rep);
    {
      DynTable table(AttributeSet{1, 2});
      table.LoadRows(seed_rel);
      int idx = table.AddIndex({0});
      flat_ns.push_back(
          TimeIndexOps(table, idx, ops, seed, domain, &flat_sum));
    }
    {
      LegacyMultimapTable table(2);
      table.LoadRows(seed_rel);
      int idx = table.AddIndex({0});
      multimap_ns.push_back(
          TimeIndexOps(table, idx, ops, seed, domain, &multimap_sum));
    }
  }
  // Identical op stream, identical semantics: any divergence is a bug in
  // the flat layout.
  LSENS_CHECK(flat_sum == multimap_sum);
  out.flat_ns = bench::Median(flat_ns);
  out.multimap_ns = bench::Median(multimap_ns);
  return out;
}

bool WriteJson(const std::vector<StreamResult>& results,
               const IndexMicroResult& micro) {
  const char* path = std::getenv("LSENS_BENCH_INC_JSON");
  if (path == nullptr) path = "BENCH_incremental.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return false;
  }
  std::fprintf(f, "[\n");
  for (const StreamResult& r : results) {
    std::fprintf(
        f,
        "  {\"name\": \"%s\", \"rows\": %zu, \"updates\": %ld, "
        "\"repair_ns_per_update\": %.1f, \"full_ns\": %.1f, "
        "\"speedup\": %.2f, \"repair_rows_per_update\": %.1f, "
        "\"full_rows\": %.1f, \"row_ratio\": %.6f, \"repairs\": %" PRIu64
        ", \"fallbacks\": %" PRIu64 ", \"fallback_unsupported\": %" PRIu64
        "},\n",
        r.name.c_str(), r.rows, r.updates, r.repair_ns, r.full_ns,
        r.repair_ns > 0 ? r.full_ns / r.repair_ns : 0.0, r.repair_rows,
        r.full_rows, r.full_rows > 0 ? r.repair_rows / r.full_rows : 0.0,
        r.repairs, r.fallbacks, r.fallback_unsupported);
  }
  std::fprintf(f,
               "  {\"name\": \"repair_index_micro\", \"rows\": %ld, "
               "\"ops\": %ld, \"flat_ns_per_op\": %.2f, "
               "\"multimap_ns_per_op\": %.2f, \"speedup\": %.2f}\n",
               micro.rows, micro.ops, micro.flat_ns, micro.multimap_ns,
               micro.flat_ns > 0 ? micro.multimap_ns / micro.flat_ns : 0.0);
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", path, results.size() + 1);
  return true;
}

int Run() {
  const long rows = bench::EnvInt("LSENS_INC_ROWS", 100000);
  const long tri_rows =
      bench::EnvInt("LSENS_INC_TRI_ROWS", std::max<long>(1000, rows / 20));
  const long domain = bench::EnvInt("LSENS_INC_DOMAIN", 1000);
  const long updates = bench::EnvInt("LSENS_INC_UPDATES", 200);
  const long check_every =
      std::max<long>(1, bench::EnvInt("LSENS_INC_CHECK_EVERY", 25));
  const double tpch_scale = bench::EnvScales("LSENS_INC_TPCH_SCALE",
                                             {0.02})[0];
  const double max_row_ratio =
      bench::EnvScales("LSENS_INC_MAX_ROW_RATIO", {0.05})[0];
  const long index_rows = bench::EnvInt("LSENS_INC_INDEX_ROWS", 100000);
  const long index_ops = bench::EnvInt("LSENS_INC_INDEX_OPS", 300000);
  const long index_domain = bench::EnvInt("LSENS_INC_INDEX_DOMAIN", 400);
  const long reps = std::max<long>(1, bench::EnvInt("LSENS_REPS", 3));

  bench::Banner("BENCH incremental",
                "sensitivity maintenance under randomized insert/delete"
                " streams: cache repair vs from-scratch"
                " recompute, plus the flat-vs-multimap repair-index"
                " microbench");
  std::vector<StreamResult> results;

  {
    // 4-atom path query (Algorithm 1 on its join tree).
    Rng rng(20200712);
    Database db = MakeSyntheticDb(
        rng, {"P1", "P2", "P3", "P4"},
        {{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}}, rows, domain);
    ConjunctiveQuery q;
    q.AddAtom(db, "P1", {"A", "B"});
    q.AddAtom(db, "P2", {"B", "C"});
    q.AddAtom(db, "P3", {"C", "D"});
    q.AddAtom(db, "P4", {"D", "E"});
    results.push_back(ReplayStream("path4", q, db, {}, updates, check_every,
                                   Rng(417001)));
    PrintResult(results.back());
  }
  {
    // Caterpillar join tree with distinct links per node: tree repair mode
    // (the TSensOverGhd ⊥/⊤ tables, not the path chains).
    Rng rng(20200713);
    Database db = MakeSyntheticDb(
        rng, {"T1", "T2", "T3", "T4"},
        {{"a", "b"}, {"b", "c", "f"}, {"c", "d"}, {"f", "g"}}, rows, domain);
    ConjunctiveQuery q;
    q.AddAtom(db, "T1", {"A", "B"});
    q.AddAtom(db, "T2", {"B", "C", "F"});
    q.AddAtom(db, "T3", {"C", "D"});
    q.AddAtom(db, "T4", {"F", "G"});
    results.push_back(ReplayStream("acyclic", q, db, {}, updates,
                                   check_every, Rng(417002)));
    PrintResult(results.back());
  }
  {
    // TPC-H q1 (the paper's path workload) at the configured scale.
    TpchOptions topt;
    topt.scale = tpch_scale;
    Database db = MakeTpchDatabase(topt);
    WorkloadQuery wq = MakeTpchQ1(db);
    TSensComputeOptions options;
    options.skip_atoms = wq.skip_atoms;
    results.push_back(ReplayStream("tpch-q1", wq.query, db, options, updates,
                                   check_every, Rng(417003)));
    PrintResult(results.back());
  }
  {
    // Triangle (cyclic): repaired through the searched GHD's bag tables.
    // One bag joins two atoms, so a full compute materializes a quadratic
    // bag join — smaller relations keep the baseline affordable.
    Rng rng(20200714);
    Database db = MakeSyntheticDb(
        rng, {"C1", "C2", "C3"}, {{"a", "b"}, {"b", "c"}, {"c", "a"}},
        tri_rows, domain);
    ConjunctiveQuery q;
    q.AddAtom(db, "C1", {"A", "B"});
    q.AddAtom(db, "C2", {"B", "C"});
    q.AddAtom(db, "C3", {"C", "A"});
    results.push_back(ReplayStream("triangle", q, db, {}, updates,
                                   check_every, Rng(417004)));
    PrintResult(results.back());
  }
  {
    // Disconnected forest (two 2-atom trees): repairs in one tree
    // re-multiply the other tree's scale factor from its maintained total.
    Rng rng(20200715);
    Database db = MakeSyntheticDb(
        rng, {"F1", "F2", "F3", "F4"},
        {{"a", "b"}, {"b", "c"}, {"x", "y"}, {"y", "z"}}, rows, domain);
    ConjunctiveQuery q;
    q.AddAtom(db, "F1", {"A", "B"});
    q.AddAtom(db, "F2", {"B", "C"});
    q.AddAtom(db, "F3", {"X", "Y"});
    q.AddAtom(db, "F4", {"Y", "Z"});
    results.push_back(ReplayStream("disconnected", q, db, {}, updates,
                                   check_every, Rng(417005)));
    PrintResult(results.back());
  }

  IndexMicroResult micro =
      RunIndexMicro(index_rows, index_ops, index_domain, reps);
  std::printf(
      "repair-index micro: %ld rows, %ld ops  flat %7.1f ns/op  "
      "multimap %7.1f ns/op  speedup %.2fx\n",
      micro.rows, micro.ops, micro.flat_ns, micro.multimap_ns,
      micro.flat_ns > 0 ? micro.multimap_ns / micro.flat_ns : 0.0);

  bool ok = WriteJson(results, micro);

  // The pinned asymptotic-work gate: a repairable stream whose repairs
  // touch more than max_row_ratio of the full-recompute rows is a
  // regression in the delta-repair machinery.
  for (const StreamResult& r : results) {
    if (r.repairs == 0 || r.full_rows <= 0) continue;
    const double ratio = r.repair_rows / r.full_rows;
    if (ratio > max_row_ratio) {
      std::fprintf(stderr,
                   "FAIL: %s repair touches %.4f%% of full"
                   " rows, over the pinned %.4f%% ceiling\n",
                   r.name.c_str(), 100.0 * ratio,
                   100.0 * max_row_ratio);
      ok = false;
    }
  }

  // Every bench shape — path, tree, TPC-H, cyclic, disconnected — has a
  // delta rule; an unsupported-shape fallback on any stream is a
  // regression in plan construction.
  for (const StreamResult& r : results) {
    if (r.fallback_unsupported != 0) {
      std::fprintf(stderr,
                   "FAIL: %s hit %" PRIu64
                   " unsupported-shape fallbacks; every bench shape must"
                   " repair\n",
                   r.name.c_str(), r.fallback_unsupported);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lsens

int main() { return lsens::Run(); }
