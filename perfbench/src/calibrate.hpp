// Machine-speed calibration for host-time metrics.
//
// On a shared machine the host clock drifts with other tenants' load by
// 10-15% over tens of seconds, longer than one run.  Right before each
// repetition the benchmark times a fixed kernel (integer compute, a sort
// and a byte-at-a-time hash over a few MiB, the same kinds of work the
// simulator does) and expresses that repetition's host seconds in units of
// a reference machine on which the kernel takes kReferenceKernelS.  The
// kernel does not touch the library, so a change to the program moves the
// calibrated numbers exactly as it moves the raw ones; only the machine's
// drift cancels.  The raw numbers are reported beside the calibrated ones.
#pragma once

namespace perfbench {

/// Kernel time on the reference machine (this repository's 4-core
/// measurement box), in seconds.
inline constexpr double kReferenceKernelS = 0.016;

/// Times the calibration kernel: the fastest of three runs, in seconds.
double reference_kernel_s();

}  // namespace perfbench
