package main

import "time"

// The host this benchmark runs on is a few vCPUs of a shared machine whose
// speed is not constant: a vCPU alternates, in phases of seconds, between
// two clock states a quarter apart, and neighbours add slower spells on top.
// Raw wall times are therefore bimodal, and the median of a bimodal sample
// jumps with the share of the run each state happened to get.
//
// So every timed piece of work is followed by a short burst of a fixed
// reference kernel, timed the same way, and its time is reported at
// reference speed: raw time x refNominalS / (mean of the bursts before and
// after it). The kernel belongs to the benchmark and touches none of the
// program's code, so a change to the program cannot move it; a change of
// host speed moves both alike and cancels.

// refIters sizes one burst: ~6 ms, long enough to time to a fraction of a
// percent and short enough to sit between 100 ms ops at a few percent cost.
const refIters = 1_000_000

// refNominalS is what one burst takes on the reference host in its faster
// clock state. It only fixes the unit: times are reported as this host's
// seconds at full speed.
const refNominalS = 0.0057

// refTable gives the kernel a 256 KiB working set, so that it has loads,
// stores and data-dependent branches beside its arithmetic, as the
// simulator has.
var refTable [1 << 16]uint32

func init() {
	for i := range refTable {
		refTable[i] = uint32(i) * 2654435761
	}
}

var refSink uint64

// refBurst runs the reference kernel once and returns its wall time in
// seconds.
func refBurst() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := x & (1<<16 - 1)
		v := refTable[idx]
		if v&1 == 0 {
			acc += uint64(v)
		} else {
			acc ^= x
		}
		refTable[idx] = v + uint32(acc)
	}
	refSink += acc
	return time.Since(t0).Seconds()
}

// atRefSpeed scales a measured duration to reference speed, given the
// reference bursts timed just before and just after it.
func atRefSpeed(measured, refBefore, refAfter float64) float64 {
	return measured * refNominalS / ((refBefore + refAfter) / 2)
}
