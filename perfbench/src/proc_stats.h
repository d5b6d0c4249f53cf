/// \file perfbench/src/proc_stats.h
/// \brief CPU time and peak memory of this process and of worker
/// processes, read from the kernel (Linux /proc).

#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

#include <cstdint>

namespace perfbench {

/// CPU seconds (user + system, all threads) of this process.
double SelfCpuSeconds();

/// CPU seconds of process `pid` (clock-tick resolution); 0 when the
/// process cannot be read.
double PidCpuSeconds(int64_t pid);

/// Peak resident set (VmHWM) in MiB of `pid`, or of this process when
/// pid < 0; 0 when unreadable.
double PeakRssMiB(int64_t pid = -1);

/// Resets the VmHWM of `pid` (this process when pid < 0) to its current
/// resident set, so a later PeakRssMiB covers only what follows. For
/// this process, heap memory freed earlier is first returned to the
/// kernel, so the new mark starts from the live set rather than from
/// whatever the allocator kept from set-up. Best effort: kernels
/// without the clear_refs reset leave the mark as is.
void ResetPeakRss(int64_t pid = -1);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
