package main

import (
	"hash/fnv"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// liveHeap forces a full collection and returns the exact live heap: the
// bytes that collection marked. Timed repetitions call it only before
// set-up and after the window, never inside either.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak is the larger of seen and the live heap now, read while
// everything the window built is still reachable, above the baseline read
// before set-up.
func heapPeak(baseline, seen uint64) uint64 {
	if p := max(liveHeap(), seen); p > baseline {
		return p - baseline
	}
	return 0
}

// gcCPU is a reading of the runtime's GC and total CPU-time estimates.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// share is the fraction of available CPU time the GC used between a and b.
func (b gcCPU) share(a gcCPU) float64 {
	if d := b.total - a.total; d > 0 {
		return (b.gc - a.gc) / d
	}
	return 0
}

// quantileDur is the q-quantile of ds by linear interpolation between
// closest ranks; ds is sorted in place.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	pos := q * float64(len(ds)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(ds)-1)
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[hi]-ds[lo]))
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func verdictHash(delivered []uint8) uint64 {
	h := fnv.New64a()
	h.Write(delivered)
	return h.Sum64()
}

// durHist is a log-linear histogram of durations: eight buckets per
// octave, so quantiles read from it are within about 6%.
type durHist [65 * 8]uint32

func (h *durHist) add(d time.Duration) {
	ns := uint64(max(d, 0))
	if ns < 16 {
		h[ns]++
		return
	}
	l := bits.Len64(ns)
	h[l*8+int((ns>>(l-4))&7)]++
}

// quantile is the midpoint of the bucket holding the q-quantile.
func (h *durHist) quantile(q float64) time.Duration {
	var n uint64
	for _, c := range h {
		n += uint64(c)
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range h {
		seen += uint64(c)
		if seen < rank || c == 0 {
			continue
		}
		if i < 16 {
			return time.Duration(i)
		}
		l, sub := i/8, uint64(i%8)
		lo := (8 + sub) << (l - 4)
		return time.Duration(lo + (uint64(1)<<(l-4))/2)
	}
	return 0
}
