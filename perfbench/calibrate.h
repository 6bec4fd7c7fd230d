// Host-speed calibration for the end-to-end metrics.
//
// The benchmark runs on shared hosts whose cores change speed by tens of
// percent from one run to the next, and for whole runs at a time: a slow
// phase shifts every quantile of the per-operation latency, down to the
// fastest 0.1%, so no choice of window or percentile inside one run removes
// it.  What does remove it is timing a fixed reference kernel next to the
// stack and scaling the stack's times by how long the kernel took.  The
// kernel uses none of the libraries the benchmark measures, so a change to
// the program moves the calibrated times exactly as it moves the raw ones,
// while a slower host moves both the kernel and the stack.
//
// Calibrated time = measured time * kReferenceNominalUs / reference time:
// the time the work would take on a host on which the kernel runs in
// exactly kReferenceNominalUs.  The report prints the raw figures and the
// reference time beside the calibrated ones.
#ifndef NERPA_PERFBENCH_CALIBRATE_H_
#define NERPA_PERFBENCH_CALIBRATE_H_

namespace nerpa::perfbench {

/// Calibrated times are scaled to a host on which one reference kernel run
/// takes this many microseconds.
constexpr double kReferenceNominalUs = 500;

/// Runs the reference kernel once and returns its wall time in
/// microseconds.  The kernel is fixed and deterministic, and shaped like
/// the stack's own work: short names formatted, hashed and kept in a
/// node-based map.  It allocates from a buffer of its own, so the program's
/// heap does not change its time.
double ReferenceKernelUs();

/// The median of `runs` kernel runs, after one untimed run that brings the
/// kernel's own data back into cache (so what the program left in the
/// caches does not change its time either).
double ReferenceUs(int runs);

/// The factor that turns a time measured while the kernel took
/// `reference_us` into a calibrated time.
inline double CalibrationScale(double reference_us) {
  return reference_us > 0 ? kReferenceNominalUs / reference_us : 1.0;
}

}  // namespace nerpa::perfbench

#endif  // NERPA_PERFBENCH_CALIBRATE_H_
