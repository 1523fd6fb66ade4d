#include "reference_kernel.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace lsens::perfbench {
namespace {

constexpr size_t kKeys = size_t{1} << 22;    // 32 MiB of uint64_t
constexpr size_t kSorted = size_t{1} << 19;  // the sorted prefix, 4 MiB
constexpr size_t kGathers = size_t{1} << 21;
constexpr int kCopies = 4;

struct Buffers {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> scratch;
};

// Both buffers are allocated and touched once, so the kernel adds a fixed
// ReferenceKernelBytes() to the process's resident set and never faults.
Buffers& Input() {
  static Buffers b = [] {
    Buffers out;
    out.keys.resize(kKeys);
    out.scratch.resize(kKeys);
    uint64_t x = 0x9E3779B97F4A7C15ull;  // fixed: not the workload seed
    for (uint64_t& k : out.keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    return out;
  }();
  return b;
}

}  // namespace

double RunReferenceKernel() {
  Buffers& b = Input();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCopies; ++i) {
    std::memcpy(b.scratch.data(), b.keys.data(), kKeys * sizeof(uint64_t));
  }
  std::sort(b.scratch.begin(), b.scratch.begin() + kSorted);
  uint64_t acc = 0;
  for (size_t i = kKeys - kGathers; i < kKeys; ++i) {
    acc += b.keys[b.scratch[i] & (kKeys - 1)];
  }
  const auto end = std::chrono::steady_clock::now();
  // The sum is fixed by the input; checking it keeps the gather from being
  // optimised away and catches a broken kernel.
  static const uint64_t expected = acc;
  if (acc != expected) throw std::logic_error("reference kernel changed");
  return std::chrono::duration<double>(end - start).count();
}

size_t ReferenceKernelBytes() { return 2 * kKeys * sizeof(uint64_t); }

}  // namespace lsens::perfbench
