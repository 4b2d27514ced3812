// Package obs is the repo's zero-dependency observability layer: a registry
// of named atomic counters, gauges, and fixed-bucket histograms, plus a
// span-style execution tracer that emits Chrome trace_event JSON (viewable
// in about://tracing or https://ui.perfetto.dev).
//
// The design goal is instrumentation cheap enough to leave compiled into hot
// paths. Two properties deliver that:
//
//   - Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
//     *Histogram, *Tracer, or *Registry are no-ops, so uninstrumented code
//     pays one nil check per record call — no branches on a config struct,
//     no interface dispatch, no allocation.
//   - Counters stripe their hot field across cache-line-padded atomic cells
//     selected by a per-goroutine-ish hash, so concurrent writers do not
//     serialize on one cache line (the increment path takes no locks).
//
// The intended wiring: a caller that wants measurements constructs a
// Registry (and/or Tracer) and passes it to Instrument methods on the
// subsystems it cares about (core.Analysis, batch.Engine via batch.Options,
// runtime.System, online.Stream); those pre-intern their instruments once,
// then record unconditionally. Callers that pass nil get the no-op behavior
// throughout. A Snapshot serializes the whole registry as JSON for the CLIs'
// -metrics flags and the /debug/metrics endpoint of ServeDebug.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// counterStripes is the number of padded atomic cells per Counter; a power
// of two so stripe selection is a mask.
const counterStripes = 16

// stripe is one cache-line-padded atomic cell of a Counter.
type stripe struct {
	v atomic.Int64
	_ [56]byte // pad to 64 bytes against false sharing between stripes
}

// stripeIndex picks a stripe from the address of a stack variable: distinct
// goroutines run on distinct stacks, so concurrent writers spread across
// stripes without needing a goroutine ID (which the runtime does not
// expose). Only the Pointer→uintptr direction is used, which is always safe.
func stripeIndex() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 10) & (counterStripes - 1))
}

// Counter is a monotonically increasing striped atomic counter. The zero
// value is usable; a nil Counter is a no-op.
type Counter struct {
	stripes [counterStripes]stripe
}

// Add adds n to the counter. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.stripes[stripeIndex()].v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. Concurrent with writers it is a consistent lower
// bound, exact once writers have quiesced.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// Gauge is a last-write-wins atomic value (pool sizes, watermarks). A nil
// Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a process-local namespace of instruments, keyed by dotted
// names ("core.fast.comparisons"). Get-or-create lookups are guarded by one
// mutex — callers intern instruments once at Instrument time, so the lock is
// never on a hot path. A nil Registry hands out nil instruments, making
// every downstream record call a no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	windows    map[string]*Window
	infos      map[string]map[string]string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		windows:    make(map[string]*Window),
		infos:      make(map[string]map[string]string),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (the no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later bounds are ignored — the first registration
// wins). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Window returns the named sliding window, creating it with the given
// sample capacity on first use (later capacities are ignored — the first
// registration wins, like Histogram bounds). Returns nil on a nil
// registry. Names share one flat namespace with the other instrument
// kinds in the Prometheus exposition, so do not reuse a counter/gauge/
// histogram name for a window.
func (r *Registry) Window(name string, capacity int) *Window {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.windows[name]
	if !ok {
		w = newWindow(capacity)
		r.windows[name] = w
	}
	return w
}

// Info registers a constant labeled fact under the given name — the
// Prometheus build_info convention: the exposition renders it as a gauge
// fixed at 1 whose labels carry the strings (`name{k="v",...} 1`). The
// label map is copied; registering the same name again replaces the
// previous label set. No-op on a nil registry. Names share the flat
// instrument namespace, so do not reuse a counter/gauge/histogram/window
// name.
func (r *Registry) Info(name string, labels map[string]string) {
	if r == nil {
		return
	}
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[name] = cp
}

// Snapshot is a point-in-time JSON-serializable view of a registry. Taken
// concurrently with writers it is internally consistent per instrument but
// not across instruments (each value is read once, atomically).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Windows    map[string]WindowSnapshot    `json:"windows,omitempty"`
	Infos      map[string]map[string]string `json:"infos,omitempty"`
}

// Snapshot captures every instrument's current value. On a nil registry it
// returns empty (non-nil) maps, so the JSON shape is stable.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	if len(r.windows) > 0 {
		s.Windows = make(map[string]WindowSnapshot, len(r.windows))
		for name, w := range r.windows {
			s.Windows[name] = w.Snapshot()
		}
	}
	if len(r.infos) > 0 {
		s.Infos = make(map[string]map[string]string, len(r.infos))
		for name, labels := range r.infos {
			cp := make(map[string]string, len(labels))
			for k, v := range labels {
				cp[k] = v
			}
			s.Infos[name] = cp
		}
	}
	return s
}

// CounterNames returns the sorted names of the registered counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes the snapshot as indented JSON (map keys sort, so output
// is deterministic for a given state).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// SnapshotDiff is the per-instrument delta between two snapshots: for each
// name present in either snapshot, current minus previous. Counter deltas
// of a monotonically written registry are non-negative; a negative delta
// means the snapshots came from different registries (or a restart).
// Histograms contribute their count and sum deltas under
// "<name>.count"/"<name>.sum" in Counters, so one flat map carries every
// monotone series — which is what /debug/monitor's per-refresh delta and
// benchdiff's metrics comparison consume.
type SnapshotDiff struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// Diff returns the delta s − prev. The maps are always non-nil and their
// JSON serialization is deterministic (encoding/json sorts map keys).
func (s Snapshot) Diff(prev Snapshot) SnapshotDiff {
	d := SnapshotDiff{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range prev.Counters {
		if _, ok := s.Counters[name]; !ok {
			d.Counters[name] = -v
		}
	}
	for name, h := range s.Histograms {
		ph := prev.Histograms[name]
		d.Counters[name+".count"] = h.Count - ph.Count
		d.Counters[name+".sum"] = h.Sum - ph.Sum
	}
	for name, ph := range prev.Histograms {
		if _, ok := s.Histograms[name]; !ok {
			d.Counters[name+".count"] = -ph.Count
			d.Counters[name+".sum"] = -ph.Sum
		}
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v - prev.Gauges[name]
	}
	for name, v := range prev.Gauges {
		if _, ok := s.Gauges[name]; !ok {
			d.Gauges[name] = -v
		}
	}
	return d
}

// WriteJSON writes the diff as indented JSON with deterministically sorted
// keys.
func (d SnapshotDiff) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
