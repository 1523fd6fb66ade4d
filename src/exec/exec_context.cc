#include "exec/exec_context.h"

#include <algorithm>
#include <string>

namespace lsens {

void ExecContext::Record(std::string_view op, uint64_t rows_in,
                         uint64_t rows_out, uint64_t build_rows,
                         double wall_seconds) {
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
  thread_local ExecContext ctx;
  return ctx;
}

}  // namespace lsens
