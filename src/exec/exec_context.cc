#include "exec/exec_context.h"

#include <algorithm>
#include <string>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace lsens {

void ExecContext::Record(std::string_view op, uint64_t rows_in,
                         uint64_t rows_out, uint64_t build_rows,
                         double wall_seconds) {
  if (!collect_stats) return;
  auto it = std::find_if(stats_.begin(), stats_.end(),
                         [&](const OperatorStats& s) { return s.name == op; });
  if (it == stats_.end()) {
    stats_.emplace_back();
    it = stats_.end() - 1;
    it->name = std::string(op);
  }
  ++it->calls;
  it->rows_in += rows_in;
  it->rows_out += rows_out;
  it->build_rows += build_rows;
  it->wall_seconds += wall_seconds;
}

const OperatorStats* ExecContext::FindStats(std::string_view op) const {
  auto it = std::find_if(stats_.begin(), stats_.end(),
                         [&](const OperatorStats& s) { return s.name == op; });
  return it == stats_.end() ? nullptr : &*it;
}

ExecContext& DefaultExecContext() {
#ifndef NDEBUG
  // A pooled worker reaching the fallback means an operator ran on a pool
  // task without its caller's context — its stats would vanish into a
  // context nobody reads. Thread the context through instead.
  LSENS_CHECK_MSG(!ThreadPool::OnWorkerThread(),
                  "thread-local ExecContext fallback hit on a pool worker; "
                  "pass the caller's ExecContext");
#endif
  thread_local ExecContext ctx;
  return ctx;
}

}  // namespace lsens
