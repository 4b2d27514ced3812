// Package flight is a violation flight recorder: a fixed-capacity ring
// buffer of the most recent runtime events, each stamped with the live
// vector clock at its occurrence, dumped together with the final per-process
// clocks and a metrics snapshot as one self-contained JSON bundle when a
// monitored condition is violated or the process crashes. The bundle is the
// causal black box an operator replays after the fact — the last K events
// with enough ordering structure to reconstruct who knew what when.
//
// The recorder is deliberately independent of internal/runtime (the runtime
// imports this package, not vice versa) and of internal/poset: events are
// identified by (proc, pos) pairs, matching poset.EventID by convention.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// Event is one recorded runtime event.
type Event struct {
	Seq   int64     `json:"seq"` // global record order (monotone)
	Proc  int       `json:"proc"`
	Pos   int       `json:"pos"`
	Kind  string    `json:"kind"` // "internal", "send", or "recv"
	Label string    `json:"label,omitempty"`
	From  *EventRef `json:"from,omitempty"` // the send this recv consumed
	// Clock is the event's vector clock (Clock[p] = latest position of p in
	// its causal past, own component = Pos). Approx marks a recv whose
	// matching send clock had already been evicted from the bounded send
	// window; its clock is then a lower bound (the local component is
	// exact).
	Clock  []int `json:"clock"`
	Approx bool  `json:"approx,omitempty"`
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

// sendWindowFactor bounds the retained send clocks to factor × capacity;
// older sends are evicted FIFO and any recv that later references one is
// marked Approx.
const sendWindowFactor = 4

// Recorder is the ring buffer. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	cap   int
	buf   []Event // ring, buf[seq % cap] once full
	seq   int64   // events recorded so far
	heads [][]int // live vector clock per process

	sent     map[EventRef][]int
	sentFIFO []EventRef

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
		heads: make([][]int, procs),
		sent:  make(map[EventRef][]int),
	}
	for p := range r.heads {
		r.heads[p] = make([]int, procs)
	}
	return r
}

// Record appends one event. pos is the event's 1-based position on proc;
// kind is "internal", "send", or "recv"; from identifies the matching send
// for recv events (nil otherwise). Calls must be ordered consistently with
// causality per process (the runtime holds its own lock across delivery and
// recording, which guarantees this).
func (r *Recorder) Record(proc, pos int, kind, label string, from *EventRef) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if proc < 0 || proc >= len(r.heads) {
		return
	}
	head := r.heads[proc]
	approx := false
	if from != nil {
		if sc, ok := r.sent[*from]; ok {
			for i, v := range sc {
				if v > head[i] {
					head[i] = v
				}
			}
		} else {
			// The send clock aged out of the window: merge what we know (at
			// least the send's own component) and mark the clock approximate.
			if from.Proc >= 0 && from.Proc < len(head) && from.Pos > head[from.Proc] {
				head[from.Proc] = from.Pos
			}
			approx = true
		}
	}
	head[proc] = pos
	ev := Event{
		Proc:   proc,
		Pos:    pos,
		Kind:   kind,
		Label:  label,
		Clock:  append([]int(nil), head...),
		Approx: approx,
	}
	if from != nil {
		f := *from
		ev.From = &f
	}
	if kind == "send" {
		ref := EventRef{Proc: proc, Pos: pos}
		r.sent[ref] = ev.Clock
		r.sentFIFO = append(r.sentFIFO, ref)
		if len(r.sentFIFO) > sendWindowFactor*r.cap {
			evict := r.sentFIFO[0]
			r.sentFIFO = r.sentFIFO[1:]
			delete(r.sent, evict)
		}
	}
	r.addLocked(ev)
}

// RecordClock appends one event whose vector clock the caller knows exactly,
// as a replay of a recorded trace does: clock becomes the event's clock and
// proc's live clock, so no send window is consulted and the clock is never
// approximate. from names one send a recv consumed (nil otherwise). The
// recorder keeps clock, so the caller must not change it afterwards.
func (r *Recorder) RecordClock(proc, pos int, kind string, from *EventRef, clock []int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if proc < 0 || proc >= len(r.heads) {
		return
	}
	copy(r.heads[proc], clock)
	r.addLocked(Event{Proc: proc, Pos: pos, Kind: kind, From: from, Clock: clock})
}

// addLocked stamps ev with the next sequence number and puts it in the ring.
// Caller holds r.mu.
func (r *Recorder) addLocked(ev Event) {
	ev.Seq = r.seq
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.seq%int64(r.cap)] = ev
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
