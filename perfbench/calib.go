package main

import (
	"runtime/debug"
	"time"
)

// Host-time calibration.
//
// The shared machines this benchmark runs on change speed by tens of
// percent within minutes (other tenants, clock changes), more than the
// changes the benchmark must resolve. Every host time an end-to-end run
// reports is therefore calibrated against a fixed reference loop timed
// before the first measured interval and after each one: an interval is
// scaled by refNominal / (mean of the reference times just before and
// just after it), i.e. reported in the seconds it would have taken on a
// host where the reference loop takes refNominal. The reference is the
// benchmark's own code — decrease-key operations on a binary heap the
// size of the paper fabric's pending-event set, each followed by a random
// read-modify-write in a 2 MiB table — so a change to the simulator
// cannot move it, and calibrated figures move exactly with the
// simulator's speed. Of the shapes tried (64 MiB tables on and off the Go
// heap, the heap alone, pure arithmetic), this one tracked the
// simulator's speed swings best.

// refNominal is the reference loop's median time on the 2-core Xeon VM
// the benchmark was tuned on.
const refNominal = 70 * time.Millisecond

const (
	refHeapSize = 32768     // pending-set-sized heap
	refOps      = 1000000   // decrease-key operations per reference run
	refMemWords = 256 << 10 // 2 MiB of uint64
)

var (
	refHeap = make([]int64, 0, refHeapSize)
	refMem  = make([]uint64, refMemWords)
	refSink uint64
)

// refLoop runs the reference work once and returns its host wall time.
// It allocates nothing and starts from a collected heap already returned
// to the OS, so neither background GC nor the scavenger (whose page
// releases interrupt every core) overlaps it.
func refLoop() time.Duration {
	debug.FreeOSMemory()
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	h := refHeap[:0]
	for i := 0; i < refHeapSize; i++ {
		h = append(h, int64(next()>>20))
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	var s uint64
	for i := 0; i < refOps; i++ {
		r := next()
		// The earliest event is rescheduled later in time.
		h[0] += int64(r >> 40)
		siftDown(h, 0)
		j := (r >> 17) & (refMemWords - 1)
		s += refMem[j]
		refMem[j] = s
	}
	refSink += s + uint64(h[0])
	return time.Since(t0)
}

func siftDown(h []int64, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// calibration holds the reference times of one run.
type calibration struct {
	refs []float64 // seconds, in run order
}

func newCalibration() *calibration {
	return &calibration{refs: []float64{refLoop().Seconds()}}
}

// next times the reference again and returns the factor that turns host
// time measured since the previous reference run into calibrated time.
func (c *calibration) next() float64 {
	ref := refLoop().Seconds()
	f := refNominal.Seconds() / ((c.refs[len(c.refs)-1] + ref) / 2)
	c.refs = append(c.refs, ref)
	return f
}
