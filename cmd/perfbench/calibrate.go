package main

import "time"

// Host-speed calibration.
//
// The benchmark's host is shared. On the simulator's code its speed flips
// between a fast and a slow state, up to ~40% apart, for seconds to minutes
// at a time, most likely as sibling hardware threads load up and go idle.
// Frame times carry that flip, and so does a throughput-bound integer loop,
// while a single dependent multiply chain does not: the slow state loses
// instruction throughput, not clock rate. The frame workloads therefore
// time this loop right before and right after every frame, and scale the
// frame's time by calRef over the loop's mean duration; serve-mix scales
// its latencies by the median of the runs its generator makes while idle.
// The result reads in milliseconds at the reference host's fast-state
// speed, with the host's state divided out. The unscaled times are printed
// beside it as diagnostics.

// calIters sizes the loop to about a third of a millisecond.
const calIters = 200_000

// calRef is calibrate's duration on the reference host (2-CPU Intel Xeon
// VM, go1.24) in its fast state.
const calRef = 310 * time.Microsecond

// calSink keeps the loop's result live.
var calSink uint64

// calibrate runs four independent integer chains with no memory traffic and
// returns how long they took.
func calibrate() time.Duration {
	t0 := time.Now()
	var a, b, c, d uint64 = 1, 2, 3, 4
	for i := 0; i < calIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		c ^= c<<13 ^ a>>7
		d += (b >> 3) * (c | 1)
	}
	calSink += a + b + c + d
	return time.Since(t0)
}

// calibrated scales a frame time d by the calibration runs before and
// after it, returning milliseconds at the reference speed.
func calibrated(d, before, after time.Duration) float64 {
	return float64(d) / float64(time.Millisecond) * float64(calRef) / (float64(before+after) / 2)
}

// calibrationMedian runs the loop n times back to back and returns the
// median duration.
func calibrationMedian(n int) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(calibrate())
	}
	return time.Duration(median(ds))
}

// calibratedSeconds scales a set-up duration by a calibration median taken
// right after it.
func calibratedSeconds(d, cal time.Duration) float64 {
	return d.Seconds() * float64(calRef) / float64(cal)
}
