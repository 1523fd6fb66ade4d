// MUST-FIRE fixture for rule entropy: libc rand(), std::random_device,
// a wall-clock read and an environment read, all outside common/rng and
// common/timer. Any one of these makes a sensitivity run unreplayable.
#include <chrono>
#include <cstdlib>
#include <random>

namespace fixture {

int NoisySeed() {
  std::random_device rd;
  return static_cast<int>(rd()) + rand();
}

long NowNanos() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

const char* Knob() { return std::getenv("FIXTURE_KNOB"); }

}  // namespace fixture
