package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// freshHeap collects all garbage and returns the freed memory to the OS.
func freshHeap() { debug.FreeOSMemory() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-memory high-water mark in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs is the cumulative count of heap allocations. It stops the world,
// so callers read it only at phase boundaries.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// mark is a process-wide counter snapshot taken at a phase or window
// boundary; the difference of two marks prices the work between them.
type mark struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

func takeMark() mark {
	return mark{wall: time.Now(), cpu: cpuTime(), allocs: mallocs()}
}

// window is the host cost of one measured slice of a run.
type window struct {
	infers int64
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	lat    []time.Duration // wall latency per inference call, when timed per call
}

func between(a, b mark, infers int64) window {
	return window{infers: infers, wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, allocs: b.allocs - a.allocs}
}

func (w window) inferPerS() float64 { return float64(w.infers) / w.wall.Seconds() }
func (w window) cpuUSPerInfer() float64 {
	return float64(w.cpu) / float64(time.Microsecond) / float64(w.infers)
}
func (w window) allocsPerInfer() float64 { return float64(w.allocs) / float64(w.infers) }

// medianOf returns the median of f over the windows that saw work: the
// run's windows are its repeated measurements, and the median keeps one
// disturbed window (a noisy neighbour, a GC cycle) from moving the result.
func medianOf(ws []window, f func(window) float64) float64 {
	var xs []float64
	for _, w := range ws {
		if w.infers > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileDur is the nearest-rank q-quantile of ds (sorted in place).
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(math.Ceil(q*float64(len(ds)))) - 1
	if rank < 0 {
		rank = 0
	}
	return ds[rank]
}

// quantileFloat is the nearest-rank q-quantile of xs (sorted in place).
func quantileFloat(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
