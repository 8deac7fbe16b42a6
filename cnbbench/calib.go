package main

import (
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared. Two things change how long
// the same work takes there, by tens of percent from one minute to the
// next: the hypervisor hands the vCPUs to other guests (steal), and the
// CPU runs the work slower while neighbours load its caches and cores.
// The benchmark removes the first by timing cnbd in CPU time, which the
// guest kernel counts without stolen time, and the second by timing,
// after every request, a fixed piece of work of its own (the calibration
// kernel) and scaling cnbd's times to the speed at which that kernel
// takes calRef. The kernel does what cnbd's requests spend their time on
// (small allocations, string-keyed maps, sorting, pointer chasing) and
// never calls the repository's code, so a change to cnbd moves the
// scaled times and a change in host speed does not.

// calN sizes one calibration run: about 0.85 ms on a 2-vCPU Xeon guest.
const calN = 1500

// calRef is the calibration time scaled times are reported at: the
// kernel's typical median on a 2-vCPU Xeon guest, so scaled times read
// as that machine's milliseconds.
const calRef = 0.85 // ms

// calShare is the share of each request's round trip spent calibrating
// after it (at least one kernel run).
const calShare = 0.05

type calNode struct {
	key  string
	next *calNode
	vals []int
}

// calSink keeps the kernel's result alive so the compiler cannot drop
// the work.
var calSink int

// calibrate runs the kernel once and returns its duration in ms.
func calibrate() float64 {
	start := time.Now()
	m := make(map[string]*calNode)
	keys := make([]string, 0, calN)
	var prev *calNode
	for i := 0; i < calN; i++ {
		k := "k" + strconv.Itoa(i*7919%calN)
		n := &calNode{key: k, next: prev, vals: make([]int, 1+i%8)}
		m[k] = n
		keys = append(keys, k)
		prev = n
	}
	sort.Strings(keys)
	s := 0
	for _, k := range keys {
		n := m[k]
		s += len(n.vals) + len(n.key)
	}
	for n := prev; n != nil; n = n.next {
		s += n.vals[0]
	}
	calSink += s
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// calibrateFor runs the kernel at least once and until share of
// busyMS has gone into it, and returns the median of its durations.
func calibrateFor(busyMS, share float64) float64 {
	var d []float64
	spent := 0.0
	for len(d) == 0 || spent < share*busyMS {
		v := calibrate()
		d = append(d, v)
		spent += v
	}
	return median(d)
}
