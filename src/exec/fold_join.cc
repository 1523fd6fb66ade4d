#include "exec/fold_join.h"

#include <algorithm>

#include "common/macros.h"
#include "exec/exec_context.h"

namespace lsens {

namespace {

// The greedy order loop behind FoldJoin and FoldJoinButLast: starts the
// accumulator at the smallest non-defaulted piece of `remaining` and joins
// pieces into it until `keep` pieces are left in `remaining`.
CountedRelation GreedyFold(std::vector<const CountedRelation*>& remaining,
                           size_t keep, const JoinOptions& options) {
  // Start from the smallest non-defaulted piece: a defaulted (top-k) piece
  // stands for rows it no longer stores, so it can only ever be joined
  // into an accumulator that covers its attributes.
  size_t start = SIZE_MAX;
  for (size_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i]->has_default()) continue;
    if (start == SIZE_MAX ||
        remaining[i]->NumRows() < remaining[start]->NumRows()) {
      start = i;
    }
  }
  LSENS_CHECK_MSG(start != SIZE_MAX,
                  "FoldJoin needs at least one non-defaulted piece");
  CountedRelation acc = *remaining[start];
  remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(start));

  // Defaulted pieces are eligible only when covered by the accumulator's
  // attributes.
  auto eligible = [&acc](const CountedRelation* piece) {
    return !piece->has_default() || IsSubset(piece->attrs(), acc.attrs());
  };
  while (remaining.size() > keep) {
    // The candidates are the eligible pieces sharing an attribute with the
    // accumulator or, if none does, all eligible pieces (cross products).
    // The candidate minimizing the joined row count wins, the earliest on
    // ties; a lone candidate wins whatever its size, so it is not counted.
    size_t num_eligible = 0;
    size_t num_sharing = 0;
    for (const CountedRelation* piece : remaining) {
      if (!eligible(piece)) continue;
      ++num_eligible;
      if (Intersects(piece->attrs(), acc.attrs())) ++num_sharing;
    }
    const bool shares = num_sharing > 0;
    const bool lone = (shares ? num_sharing : num_eligible) == 1;
    size_t best = SIZE_MAX;
    size_t best_rows = 0;
    bool best_counted = false;  // best_rows == EstimateJoinRows(acc, best)
    for (size_t i = 0; i < remaining.size(); ++i) {
      const CountedRelation* piece = remaining[i];
      if (!eligible(piece) ||
          Intersects(piece->attrs(), acc.attrs()) != shares) {
        continue;
      }
      if (lone) {
        best = i;
        break;
      }
      const bool counted = !piece->has_default();
      const size_t rows =
          counted ? EstimateJoinRows(acc, *piece, options.ctx)
                  : acc.NumRows();  // covering join keeps acc's rows
      if (best == SIZE_MAX || rows < best_rows) {
        best = i;
        best_rows = rows;
        best_counted = counted;
      }
    }
    // Every remaining piece is defaulted and none is covered by the
    // accumulator. Callers must rule this out by making the non-defaulted
    // pieces cover each defaulted piece's attributes. TSens does: it
    // truncates only ⊥/⊤ tables, whose attributes are a link between two
    // bags, and every fold consuming one also folds the S tables of the
    // bag holding that link, which cover it.
    LSENS_CHECK_MSG(best != SIZE_MAX,
                    "defaulted piece never covered by the accumulator");
    const CountedRelation& next = *remaining[best];
    acc = best_counted ? NaturalJoinSized(acc, next, best_rows, options)
                       : NaturalJoin(acc, next, options);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best));
  }
  return acc;
}

// The piece FoldJoin drives as one k-way CoveringJoin: the smallest
// non-defaulted piece (the earliest on ties) whose attributes are the union
// of all the pieces' attributes, or SIZE_MAX when no piece covers the rest.
size_t CoveringDriver(const std::vector<const CountedRelation*>& pieces) {
  AttributeSet all;
  for (const CountedRelation* piece : pieces) all = Union(all, piece->attrs());
  size_t driver = SIZE_MAX;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (pieces[i]->has_default() || pieces[i]->attrs() != all) continue;
    if (driver == SIZE_MAX || pieces[i]->NumRows() < pieces[driver]->NumRows()) {
      driver = i;
    }
  }
  return driver;
}

uint64_t TotalRows(const std::vector<const CountedRelation*>& pieces) {
  uint64_t rows = 0;
  for (const CountedRelation* piece : pieces) rows += piece->NumRows();
  return rows;
}

}  // namespace

CountedRelation FoldJoin(std::vector<const CountedRelation*> pieces,
                         const JoinOptions& options) {
  if (pieces.empty()) return CountedRelation::Unit();
  ExecContext& ctx = ResolveExecContext(options.ctx);
  OpTimer op(ctx, "fold_join", TotalRows(pieces));
  const size_t driver = options.algorithm == JoinAlgorithm::kAuto &&
                                pieces.size() >= 2
                            ? CoveringDriver(pieces)
                            : SIZE_MAX;
  CountedRelation acc(AttributeSet{});
  if (driver != SIZE_MAX) {
    const CountedRelation& covering = *pieces[driver];
    pieces.erase(pieces.begin() + static_cast<ptrdiff_t>(driver));
    acc = CoveringJoin(covering, pieces, &ctx);
  } else {
    acc = GreedyFold(pieces, /*keep=*/0, options);
  }
  op.set_rows_out(acc.NumRows());
  return acc;
}

FoldSplit FoldJoinButLast(std::vector<const CountedRelation*> pieces,
                          const JoinOptions& options) {
  LSENS_CHECK_MSG(pieces.size() >= 2, "FoldJoinButLast needs two pieces");
  ExecContext& ctx = ResolveExecContext(options.ctx);
  OpTimer op(ctx, "fold_join", TotalRows(pieces));
  CountedRelation prefix = GreedyFold(pieces, /*keep=*/1, options);
  op.set_rows_out(prefix.NumRows());
  return {std::move(prefix), pieces.front()};
}

}  // namespace lsens
