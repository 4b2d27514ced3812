// Package flight is a violation flight recorder: a fixed-capacity ring
// buffer of the most recent events of a monitored execution, each stamped
// with the exact vector clock its caller read for it, dumped together with
// the final per-process clocks and a metrics snapshot as one self-contained
// JSON bundle when a monitored condition is violated or the process crashes.
// The bundle is the causal black box an operator replays after the fact —
// the last K events with enough ordering structure to reconstruct who knew
// what when. syncmon is the one producer: its replay records each event with
// the clock the online stream holds for it.
//
// The recorder computes no clocks of its own and is independent of
// internal/online and internal/poset: events are identified by (proc, pos)
// pairs, matching poset.EventID by convention.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"causet/internal/obs"
	"causet/internal/obs/alert"
	"causet/internal/obs/tsdb"
)

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity.
const DefaultCapacity = 256

// FormatVersion identifies the bundle JSON schema.
const FormatVersion = 1

// EventRef identifies an event by process and position (1-based, matching
// poset.EventID).
type EventRef struct {
	Proc int `json:"proc"`
	Pos  int `json:"pos"`
}

// Event is one recorded event.
type Event struct {
	Seq   int64     `json:"seq"` // global record order (monotone)
	Proc  int       `json:"proc"`
	Pos   int       `json:"pos"`
	Kind  string    `json:"kind"` // "internal", "send", or "recv"
	Label string    `json:"label,omitempty"`
	From  *EventRef `json:"from,omitempty"` // the send this recv consumed
	// Clock is the event's vector clock (Clock[p] = latest position of p in
	// its causal past, own component = Pos).
	Clock []int `json:"clock"`
}

// Bundle is the self-contained dump written on violation or crash.
type Bundle struct {
	Version    int    `json:"version"`
	Reason     string `json:"reason"`
	CapturedAt string `json:"captured_at,omitempty"` // RFC 3339
	Procs      int    `json:"procs"`
	Capacity   int    `json:"capacity"`
	// Dropped counts events evicted from the ring before this dump (the
	// bundle holds the last min(Capacity, total) events, oldest first).
	Dropped int64         `json:"dropped"`
	Events  []Event       `json:"events"`
	Clocks  [][]int       `json:"clocks"` // final vector clock per process
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Tsdb is the attached time-series store's tail (TsdbTail points per
	// series) and Alerts the attached rule engine's transition history —
	// both present only when Attach wired them, so the black box also says
	// how the telemetry trended into the incident and what was already
	// paging.
	Tsdb   *tsdb.Dump    `json:"tsdb,omitempty"`
	Alerts []alert.Event `json:"alerts,omitempty"`
}

// TsdbTail is how many trailing samples per series a bundle retains from an
// attached store.
const TsdbTail = 60

// Recorder is the ring buffer. Safe for concurrent use.
type Recorder struct {
	mu  sync.Mutex
	cap int
	// buf is the ring, buf[seq % cap] once full. Each slot owns its event's
	// clock array and froms[k], slot k's From, which the event recorded
	// into the slot next reuses.
	buf   []Event
	froms []EventRef
	seq   int64   // events recorded so far
	heads [][]int // clock of each process's newest recorded event

	tsdbStore *tsdb.Store
	alerts    *alert.Engine
}

// Attach wires a time-series store and/or alert engine into future bundles
// (either may be nil); Dump's signature is unchanged, existing call sites
// simply gain the telemetry sections. Nil-safe.
func (r *Recorder) Attach(st *tsdb.Store, eng *alert.Engine) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tsdbStore = st
	r.alerts = eng
	r.mu.Unlock()
}

// New returns a recorder for procs processes keeping the last capacity
// events (DefaultCapacity when capacity <= 0).
func New(procs, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{
		cap:   capacity,
		buf:   make([]Event, 0, capacity),
		froms: make([]EventRef, capacity),
		heads: make([][]int, procs),
	}
	for p := range r.heads {
		r.heads[p] = make([]int, procs)
	}
	return r
}

// RecordClock appends one event with the vector clock the caller read for
// it, as a replay of an execution does: clock, one component per process,
// becomes the event's clock and proc's final clock. pos is the event's
// 1-based position on proc; kind is "internal", "send", or "recv"; label may
// be empty; from names one send a recv consumed (nil otherwise). The
// recorder copies clock and *from into its ring slot, so the caller may
// reuse both, and once the ring is full a call allocates nothing.
func (r *Recorder) RecordClock(proc, pos int, kind, label string, from *EventRef, clock []int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if proc < 0 || proc >= len(r.heads) {
		return
	}
	copy(r.heads[proc], clock)
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, Event{Clock: make([]int, len(r.heads))})
	}
	k := r.seq % int64(r.cap)
	ev := &r.buf[k]
	copy(ev.Clock, clock)
	*ev = Event{Seq: r.seq, Proc: proc, Pos: pos, Kind: kind, Label: label, Clock: ev.Clock}
	if from != nil {
		r.froms[k] = *from
		ev.From = &r.froms[k]
	}
	r.seq++
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Snapshot captures the current ring contents (oldest first), final clocks,
// and an optional metrics snapshot into a bundle. reg may be nil.
func (r *Recorder) Snapshot(reason string, reg *obs.Registry) *Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	b := &Bundle{
		Version:    FormatVersion,
		Reason:     reason,
		CapturedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Procs:      len(r.heads),
		Capacity:   r.cap,
		Dropped:    r.seq - int64(len(r.buf)),
	}
	if len(r.buf) < r.cap {
		b.Events = append(b.Events, r.buf...)
	} else {
		// Ring is full: oldest entry sits at seq % cap.
		start := r.seq % int64(r.cap)
		b.Events = append(b.Events, r.buf[start:]...)
		b.Events = append(b.Events, r.buf[:start]...)
	}
	for i := range b.Events { // the slots reuse their clocks and refs
		ev := &b.Events[i]
		ev.Clock = slices.Clone(ev.Clock)
		if ev.From != nil {
			from := *ev.From
			ev.From = &from
		}
	}
	for _, head := range r.heads {
		b.Clocks = append(b.Clocks, append([]int(nil), head...))
	}
	st, eng := r.tsdbStore, r.alerts
	r.mu.Unlock()
	if reg != nil {
		snap := reg.Snapshot()
		b.Metrics = &snap
	}
	if st != nil {
		b.Tsdb = st.Dump(TsdbTail, time.Now())
	}
	if eng != nil {
		b.Alerts = eng.History()
	}
	return b
}

// WriteJSON writes the bundle as indented JSON.
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadJSON decodes one bundle.
func ReadJSON(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("flight: decoding JSON: %w", err)
	}
	return &b, nil
}

// Dump snapshots the recorder and writes the bundle to path atomically
// enough for crash diagnostics (create + write + close; no rename dance —
// a torn bundle is still more evidence than none).
func (r *Recorder) Dump(path, reason string, reg *obs.Registry) error {
	b := r.Snapshot(reason, reg)
	if b == nil {
		return fmt.Errorf("flight: nil recorder")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
