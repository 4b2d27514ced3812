package obs

import (
	"sort"
	"sync"
	"time"
)

// Window is a sliding-window instrument over ring-buffered timestamped
// samples: the last capacity observations, each stamped at Observe time.
// Unlike a Histogram (whose buckets accumulate forever) a Window answers
// *recent*-behavior questions — events per second right now, the p99
// receive-wait over the last thousand receives, the violation rate of a
// live monitor session — which is what the /debug/monitor dashboard and
// the Prometheus summary exposition need.
//
// Observations take one short mutex-guarded ring write (no allocation
// after construction); rate and quantiles are computed on read. A nil
// Window is a no-op like every other obs instrument.
type Window struct {
	capacity int
	nowFn    func() time.Time // injectable for deterministic tests

	mu      sync.Mutex
	samples []windowSample // ring buffer of the last capacity observations
	head    int            // next write position
	n       int            // valid samples, ≤ capacity
	total   int64          // lifetime observation count
	sum     int64          // lifetime sum (the Prometheus summary _sum)
}

// windowSample is one buffered observation.
type windowSample struct {
	at time.Time
	v  int64
}

// defaultWindowCap bounds a Window registered with a non-positive capacity.
const defaultWindowCap = 256

// newWindow builds a window buffering the last capacity samples.
func newWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = defaultWindowCap
	}
	return &Window{
		capacity: capacity,
		nowFn:    time.Now,
		samples:  make([]windowSample, capacity),
	}
}

// Observe records one value at the current time. No-op on a nil receiver.
func (w *Window) Observe(v int64) {
	if w == nil {
		return
	}
	w.ObserveAt(v, w.nowFn())
}

// ObserveAt records one value stamped at, for a caller that has already
// read the clock: a batch of observations can share one reading. No-op on
// a nil receiver.
func (w *Window) ObserveAt(v int64, at time.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.samples[w.head] = windowSample{at: at, v: v}
	w.head = (w.head + 1) % w.capacity
	if w.n < w.capacity {
		w.n++
	}
	w.total++
	w.sum += v
	w.mu.Unlock()
}

// Count reports the lifetime number of observations (not just the buffered
// ones); 0 on a nil receiver.
func (w *Window) Count() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Rate reports observations per second over the span covered by the
// buffered samples (newest minus oldest timestamp). It needs at least two
// samples and a positive span; otherwise 0.
func (w *Window) Rate() float64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rateLocked()
}

func (w *Window) rateLocked() float64 {
	if w.n < 2 {
		return 0
	}
	oldest := w.samples[(w.head-w.n+w.capacity)%w.capacity].at
	newest := w.samples[(w.head-1+w.capacity)%w.capacity].at
	span := newest.Sub(oldest).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(w.n-1) / span
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1, nearest-rank) of the
// buffered sample values; 0 with no samples or on a nil receiver.
func (w *Window) Quantile(q float64) int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return quantile(w.valuesLocked(), q)
}

// valuesLocked copies the buffered values, sorted ascending.
func (w *Window) valuesLocked() []int64 {
	vs := make([]int64, 0, w.n)
	for i := 0; i < w.n; i++ {
		vs = append(vs, w.samples[(w.head-w.n+i+w.capacity)%w.capacity].v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WindowSnapshot is the serialized form of a Window: lifetime count/sum
// plus the rate and nearest-rank quantiles of the currently buffered
// samples. Rate depends only on the buffered timestamps (not on snapshot
// time), so a snapshot of quiesced writers is deterministic.
type WindowSnapshot struct {
	Count    int64   `json:"count"`
	Sum      int64   `json:"sum"`
	Buffered int     `json:"buffered"`
	Rate     float64 `json:"rate_per_sec"`
	P50      int64   `json:"p50"`
	P90      int64   `json:"p90"`
	P99      int64   `json:"p99"`
}

// Snapshot captures the window's current state; zero on a nil receiver.
func (w *Window) Snapshot() WindowSnapshot {
	if w == nil {
		return WindowSnapshot{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	vs := w.valuesLocked()
	return WindowSnapshot{
		Count:    w.total,
		Sum:      w.sum,
		Buffered: w.n,
		Rate:     w.rateLocked(),
		P50:      quantile(vs, 0.50),
		P90:      quantile(vs, 0.90),
		P99:      quantile(vs, 0.99),
	}
}
