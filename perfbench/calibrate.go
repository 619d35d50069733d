package main

import (
	"slices"
	"time"
)

// The machine a benchmark runs on can change speed under it. On the
// reference host (a 2-vCPU VM shared with other guests), the
// simulator's CPU time per operation jumped between two levels about
// 1.6x apart, each lasting tens of seconds, while CPU time spent in the
// kernel stayed flat: neighbours competing for caches and memory slow
// down user code that allocates and walks fresh memory. A fixed kernel
// that does the same kind of work slows down with it (a kernel that
// only chases pointers through memory it allocated once did not).
// Every instance therefore runs right after the kernel, and its times
// are scaled to the reference speed: the speed at which the kernel
// takes refCalibration of CPU time.
const refCalibration = 40 * time.Millisecond

type calNode struct {
	next *calNode
	v    int
}

var calSink int

// calibrate runs the kernel once and returns the process CPU time it
// took. The kernel allocates about 8 MiB in small objects, fills a map
// and sorts a slice, from a fixed seed.
func calibrate() time.Duration {
	t0 := cpuTime(processCPU)
	x := uint64(88172645463325252)
	m := map[int]int{}
	xs := make([]int, 100_000)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x >> 34)
		m[xs[i]&0xffff]++
	}
	slices.Sort(xs)
	var head *calNode
	for i := 0; i < 300_000; i++ {
		head = &calNode{head, i}
	}
	sum := 0
	for n := head; n != nil; n = n.next {
		sum += n.v
	}
	calSink = sum + len(m) + xs[len(xs)/2]
	return cpuTime(processCPU) - t0
}

// atRef converts a CPU time measured in an instance to the reference
// speed.
func (in instance) atRef(d time.Duration) float64 {
	return d.Seconds() * refCalibration.Seconds() / in.calibration.Seconds()
}
