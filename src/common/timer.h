#ifndef LSENS_COMMON_TIMER_H_
#define LSENS_COMMON_TIMER_H_

#include <chrono>

namespace lsens {

// Simple monotonic wall-clock timer for the experiment harnesses.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lsens

#endif  // LSENS_COMMON_TIMER_H_
