#ifndef LSENS_EXEC_EXEC_CONTEXT_H_
#define LSENS_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/count.h"
#include "common/timer.h"
#include "exec/hash_group_table.h"
#include "storage/value.h"

namespace lsens {

// Aggregate counters for one operator kind. The exec layer records:
//   join.covering, join.hash, join.sort_merge, join.cross — NaturalJoin
//     kernels (join.covering: one side's attributes cover the other's,
//     or a top-k defaulted side; also one call per FoldJoin with a
//     covering driver, rows_in summed over its pieces; it builds no
//     table, so its build_rows is 0);
//     estimate_join_rows — the exact join-size pass, run only where its
//     count can change a decision (the kAuto pick of a non-covering
//     join, FoldJoin's greedy order) or sizes a hash join's output;
//   fold_join — FoldJoin, and FoldJoinButLast (rows_out = the prefix);
//   group_by_sum — γ; group_max — GroupMax, the max row of γ(A ⋈ B)
//     without the join (rows_out 0 or 1; 0 also when it declines);
//   normalize, truncate.top_k, semijoin; sort.fallback — a sort whose key
//     did not fit the packed 64-bit word (row_sort.h), absent otherwise;
//   sort.dense — a Normalize, GroupBySum or covering-join key grouped or
//     matched by direct addressing instead of sorting (row_sort.h's slot
//     path): rows_in the rows addressed, rows_out the slot table's size.
// The sensitivity, cache and server layers add their own rows (tsens.*,
// cache.*, serve.*). Wall times of nested operators overlap: a join's time
// includes the time of the Normalize it runs on its output, which is also
// reported under "normalize".
struct OperatorStats {
  std::string name;
  uint64_t calls = 0;
  uint64_t rows_in = 0;     // Σ explicit input rows over all calls
  uint64_t rows_out = 0;    // Σ output rows over all calls
  uint64_t build_rows = 0;  // Σ hash-build-side rows (join/semijoin only)
  double wall_seconds = 0.0;
};

// Execution state threaded through the exec and sensitivity layers: owns
// the reusable arenas (sort-merge permutations, the packed sort words and
// their radix ping-pong buffer, row/key scratch, the flat hash group
// table of the hash join, the join-size count, GroupMax and the semijoin,
// normalize rebuild buffers, a covering join's per-row multipliers and
// the slot path's count table — all three in count_buf — and the covering
// join's slot table of covered runs in perm_a) so hot operators allocate
// O(1) times per context instead of per invocation, and collects
// per-operator stats.
//
// Ownership rule: a context is single-threaded state with one owner thread
// at a time, never shared across concurrently running threads. Callers
// pass a context through JoinOptions::ctx (and thus TSensOptions::join.ctx).
// Operators that receive none fall back to a thread-local default so arena
// reuse still happens. Nobody reads that default's stats, so a caller that
// wants the operator rows of its work passes its own context.
class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // --- Arenas ------------------------------------------------------------
  // Distinct slots so concurrently-live uses inside one operator never
  // alias (e.g. sort-merge join holds both side permutations while the
  // final Normalize sorts through sort_words). sort_words holds one
  // PackedSort's words (row_sort.h) and sort_words_tmp is its radix
  // ping-pong buffer; the two may trade contents during a sort.
  std::vector<uint32_t>& perm_a() { return perm_a_; }
  std::vector<uint32_t>& perm_b() { return perm_b_; }
  std::vector<Value>& value_buf() { return value_buf_; }
  std::vector<Count>& count_buf() { return count_buf_; }
  std::vector<Value>& row_buf() { return row_buf_; }
  std::vector<Value>& key_buf() { return key_buf_; }
  std::vector<int>& col_buf() { return col_buf_; }
  std::vector<uint64_t>& sort_words() { return sort_words_; }
  std::vector<uint64_t>& sort_words_tmp() { return sort_words_tmp_; }
  std::vector<uint32_t>& sel_buf() { return sel_buf_; }
  std::vector<uint64_t>& hash_buf() { return hash_buf_; }
  std::vector<Value>& gather_buf() { return gather_buf_; }
  FlatGroupTable& group_table() { return group_table_; }

  // --- Stats -------------------------------------------------------------
  void Record(std::string_view op, uint64_t rows_in, uint64_t rows_out,
              uint64_t build_rows, double wall_seconds);
  const std::vector<OperatorStats>& stats() const { return stats_; }
  void ResetStats() { stats_.clear(); }
  // Stats for one operator, or nullptr if it never ran.
  const OperatorStats* FindStats(std::string_view op) const;

 private:
  std::vector<uint32_t> perm_a_;
  std::vector<uint32_t> perm_b_;
  std::vector<Value> value_buf_;
  std::vector<Count> count_buf_;
  std::vector<Value> row_buf_;
  std::vector<Value> key_buf_;
  std::vector<int> col_buf_;
  std::vector<uint64_t> sort_words_;
  std::vector<uint64_t> sort_words_tmp_;
  std::vector<uint32_t> sel_buf_;
  std::vector<uint64_t> hash_buf_;
  std::vector<Value> gather_buf_;
  FlatGroupTable group_table_;
  std::vector<OperatorStats> stats_;  // small: one entry per operator kind
};

// The thread-local fallback context used when callers pass none — see the
// ownership rule on ExecContext.
ExecContext& DefaultExecContext();

// `ctx` if non-null, the thread-local default otherwise.
inline ExecContext& ResolveExecContext(ExecContext* ctx) {
  return ctx != nullptr ? *ctx : DefaultExecContext();
}

// RAII stats scope: times its lifetime and records one call on the
// resolved context at destruction.
class OpTimer {
 public:
  OpTimer(ExecContext& ctx, std::string_view op, uint64_t rows_in)
      : ctx_(ctx), op_(op), rows_in_(rows_in) {}
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;
  ~OpTimer() {
    ctx_.Record(op_, rows_in_, rows_out_, build_rows_,
                timer_.ElapsedSeconds());
  }

  void set_rows_out(uint64_t n) { rows_out_ = n; }
  void set_build_rows(uint64_t n) { build_rows_ = n; }

 private:
  ExecContext& ctx_;
  std::string_view op_;
  uint64_t rows_in_;
  uint64_t rows_out_ = 0;
  uint64_t build_rows_ = 0;
  WallTimer timer_;
};

}  // namespace lsens

#endif  // LSENS_EXEC_EXEC_CONTEXT_H_
