// Host-speed calibration for the benchmark driver.
//
// The host's speed for branchy, allocation-heavy code drifts by up to 2x
// within seconds on a shared machine (co-tenants contend for the core),
// while a pure ALU loop barely moves. So the driver follows every measured
// slice of simulation with this loop and scales the slice's commit rate by
// kCalibrationReference / calibration_ops_per_s(). That cancels the drift
// and leaves changes to the simulator's own cost.
//
// The loop does the kind of work a discrete-event simulator does (a timer
// heap of closures, small heap allocations, a hash map) but shares no code
// with src/. It sits in its own translation unit, linked first, so edits to
// the driver or the simulator do not move its code.
#pragma once

namespace p4bench {

/// Calibration ops per second on the reference host.
inline constexpr double kCalibrationReference = 3.0e6;

/// Runs the calibration loop once (a few ms) and returns its ops per second.
double calibration_ops_per_s();

// Cluster set-up is dominated by faulting in and zeroing each host's log
// (64 MiB), and the host's page-fault cost drifts by a third over minutes.
// The driver times this before every set-up and scales the set-up time by
// kPageTouchReference / page_touch_s().

/// Seconds to fault in and zero 64 MiB of fresh memory on the reference host.
inline constexpr double kPageTouchReference = 0.045;

/// Maps 64 MiB of fresh anonymous memory, writes every byte, unmaps it, and
/// returns the seconds that took (0 if the mapping failed).
double page_touch_s();

}  // namespace p4bench
