// A fixed reference kernel for lsens_perfbench: the same work on every run
// and every version of the library, so its timing measures the host's speed
// at that moment, not the program's. Built as its own target with fixed
// flags (see CMakeLists.txt), so changes to the library's build flags do not
// move it.

#ifndef LSENS_PERFBENCH_REFERENCE_KERNEL_H_
#define LSENS_PERFBENCH_REFERENCE_KERNEL_H_

#include <cstddef>

namespace lsens::perfbench {

// Copies a fixed 32 MiB array of pseudo-random 64-bit keys four times,
// sorts a 4 MiB prefix of the copy, and gathers from the array at the 2M
// keys of the copy's unsorted tail: bandwidth, sorting and cache misses, as
// the workloads have. Returns the wall seconds taken. The input is
// generated on the first call, outside the timing.
double RunReferenceKernel();

// The kernel's buffers, resident from its first call on.
size_t ReferenceKernelBytes();

}  // namespace lsens::perfbench

#endif  // LSENS_PERFBENCH_REFERENCE_KERNEL_H_
