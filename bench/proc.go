package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is the process's counters at one instant; two of them
// bracket a measured span.
type procSnap struct {
	at         time.Time
	cpuSeconds float64 // user + system, whole process
	gcSeconds  float64 // CPU the collector used
	mallocs    uint64
	allocBytes uint64
}

// snap reads the counters. ReadMemStats stops the world, so snap is
// only ever called between measured spans, never inside one.
func snap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := procSnap{
		at:         time.Now(),
		cpuSeconds: tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcSeconds = gc[0].Value.Float64()
	}
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's high-water resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KB
}

// usage is what happened between two snapshots.
type usage struct {
	wall                time.Duration
	cpuUtil, gcCPUShare float64
	mallocs, allocBytes uint64
}

func (a procSnap) until(b procSnap) usage {
	u := usage{
		wall:       b.at.Sub(a.at),
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
	}
	cpu := b.cpuSeconds - a.cpuSeconds
	if w := u.wall.Seconds(); w > 0 {
		u.cpuUtil = cpu / (w * procs)
	}
	if cpu > 0 {
		u.gcCPUShare = (b.gcSeconds - a.gcSeconds) / cpu
	}
	return u
}

// timeLoop calls fn repeatedly for about d and returns the mean time
// and allocations per call. It times batches rather than single calls,
// so the clock's own cost disappears even for calls of a few ns.
func timeLoop(d time.Duration, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	fn(0) // first-call effects (lazy tables, pool warm-up) stay out
	batch := 1
	var n int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var elapsed time.Duration
	for {
		batchStart := time.Now()
		for i := 0; i < batch; i++ {
			fn(n + i)
		}
		n += batch
		now := time.Now()
		if elapsed = now.Sub(start); elapsed >= d {
			break
		}
		// Grow batches until one takes about a millisecond.
		if now.Sub(batchStart) < time.Millisecond && batch < 1<<20 {
			batch *= 2
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}
