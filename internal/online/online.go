// Package online provides the streaming side of the library: a Stream that
// consumes execution events incrementally — maintaining forward vector
// clocks online, O(|P|) per event — and an online Monitor that grows
// nonatomic events as their member events are observed and evaluates
// synchronization conditions as soon as every referenced interval is
// complete.
//
// The correctness anchor is verdict stability: appended events receive
// message edges only *into fresh events*, so the causality relation between
// two already-recorded events never changes as the execution grows. A
// relation verdict over completed intervals is therefore final the moment
// it is first computable — exactly the property a real-time application
// needs from an online detector (the paper's Problem 4 asked for detection
// over a recorded trace; this package extends it to the growing prefix).
// TestVerdictStability pins the property.
//
// Reverse timestamps (needed for the future cuts ⇑X) inherently depend on
// the future of the execution, so they cannot be finalized online. The
// stream instead maintains a first-follower index: for every recorded event
// e and node i, the position of the first event on i with e ⪯ e', filled in
// exactly once when that follower appears. The up cut e↑ of the current
// prefix is that position on node i, or ⊤ = NumReal(i)+1 while no follower
// exists (T^R(e)[i] = NumReal(i) − firstFollower + 1, or 0).
//
// The monitor settles conditions from per-interval summaries (DESIGN.md
// S25): Theorem 20 reads only an interval's per-node extremes and the four
// Table 2 cuts, which Lemma 16 folds from the extremes' forward rows (final
// when the interval completes) and their first-follower cells (read at
// settlement). A settlement takes no snapshot and builds no core.Analysis.
// Snapshot remains the cold API for whole-prefix analysis: it copies the
// retained forward rows and derives reverse timestamps from the same index
// instead of running the two linear-extension passes of vclock.New. The
// tests check the final snapshot's clocks against vclock.New over the
// finished execution, the summaries' cuts against a snapshot's, and every
// verdict against the offline monitor.
package online

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"causet/internal/core"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/vclock"
)

// Errors returned by Stream operations.
var (
	ErrBadProc     = errors.New("online: process index out of range")
	ErrUnknownSend = errors.New("online: receive names an unrecorded send event")
	ErrSelfMessage = errors.New("online: send and receive on the same process")
	ErrCompacted   = errors.New("online: event was compacted by retention (Pin in-flight sends to keep them addressable)")
)

// Stream is an execution under construction. Methods are safe for
// concurrent use: one lock guards all of its state, and every reader of its
// per-event rows holds it (the per-event work is amortized O(|P|)).
type Stream struct {
	mu     sync.Mutex
	procs  int
	b      *poset.Builder
	counts []int

	// Per-event rows of the retained events, |P| cells each, in one flat
	// table per process: row k of fwd[p] and of ff[p] belongs to event
	// (p, base[p]+k+1), read through row. fwd holds the forward clocks T(e),
	// maintained incrementally. ff is the first-follower index: cell i of
	// event e's row holds the position of the first event on node i that
	// causally follows e, or 0 while none is recorded; each cell is written
	// once, and the value is monotone knowledge about the past.
	fwd       [][]int
	ff        [][]int
	msgFrom   [][]poset.EventID // per event, sender of its received message (Proc < 0: none)
	zeroRow   []int             // procs zeros, appended to grow a table by one row
	walkStack []poset.EventID   // reused DFS stack of propagateFollower

	// Retention state (Compact): base[p] counts the leading events of
	// process p whose clock rows, first-follower rows, and sender
	// attributions were dropped — fwd/ff/msgFrom hold only the retained
	// tail. Event positions stay absolute. pins maps in-flight send events
	// to a reference count; the watermark never passes a pinned event, so a
	// delayed Recv can still read its clock.
	base []int
	pins map[poset.EventID]int

	snap *Snapshot // cached; nil when dirty

	metEvents      *obs.Counter
	metEventsWin   *obs.Window
	metSnapshots   *obs.Counter
	metSnapReuses  *obs.Counter
	metCompactions *obs.Counter
	metCompacted   *obs.Counter
	metRetained    *obs.Gauge
	metReg         *obs.Registry
	metTracer      *obs.Tracer
}

// NewStream starts an empty execution over procs processes.
func NewStream(procs int) *Stream {
	if procs < 1 {
		panic(fmt.Sprintf("online: NewStream(%d)", procs))
	}
	return &Stream{
		procs:   procs,
		b:       poset.NewBuilder(procs),
		counts:  make([]int, procs),
		fwd:     make([][]int, procs),
		ff:      make([][]int, procs),
		msgFrom: make([][]poset.EventID, procs),
		zeroRow: make([]int, procs),
		base:    make([]int, procs),
	}
}

// NumProcs reports the number of processes.
func (s *Stream) NumProcs() int { return s.procs }

// Instrument attaches a metrics registry and/or tracer; either may be nil.
// The registry receives online.events (appended events, across all kinds),
// the online.event_window sliding window (the live events/sec rate), the
// retention counters, and two counters of the cold Snapshot API:
// online.snapshots counts snapshot constructions and
// online.snapshot_reuses counts Snapshot calls served from the cache
// unchanged; each construction copies the retained rows (see Snapshot).
// Each snapshot's Analysis is instrumented against the same registry and
// tracer, so its cut builds and comparisons land there too.
// The online monitor settles conditions without snapshots; it counts its
// atoms through Monitor.Instrument.
func (s *Stream) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metReg = reg
	s.metTracer = tr
	s.metEvents = reg.Counter("online.events")
	s.metEventsWin = reg.Window("online.event_window", 1024)
	s.metSnapshots = reg.Counter("online.snapshots")
	s.metSnapReuses = reg.Counter("online.snapshot_reuses")
	s.metCompactions = reg.Counter("online.compactions")
	s.metCompacted = reg.Counter("online.compacted_events")
	s.metRetained = reg.Gauge("online.retained_events")
}

// Local records an internal event on proc and returns it.
func (s *Stream) Local(proc int) (poset.EventID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(proc, noSender)
}

// Send records a send event on proc. The returned EventID is the handle a
// later Recv names.
func (s *Stream) Send(proc int) (poset.EventID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(proc, noSender)
}

// Recv records the receipt on proc of the message sent at send, linking the
// causal edge and merging the sender's clock.
func (s *Stream) Recv(proc int, send poset.EventID) (poset.EventID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if send.Proc < 0 || send.Proc >= s.procs || send.Pos < 1 || send.Pos > s.counts[send.Proc] {
		return poset.EventID{}, fmt.Errorf("%w: %v", ErrUnknownSend, send)
	}
	if send.Proc == proc {
		return poset.EventID{}, fmt.Errorf("%w: %v", ErrSelfMessage, send)
	}
	if send.Pos <= s.base[send.Proc] {
		return poset.EventID{}, fmt.Errorf("%w: send %v", ErrCompacted, send)
	}
	recv, err := s.append(proc, send)
	if err != nil {
		return poset.EventID{}, err
	}
	if err := s.b.Message(send, recv); err != nil {
		return poset.EventID{}, err
	}
	return recv, nil
}

// noSender is the msgFrom entry of an event that received no message.
var noSender = poset.EventID{Proc: -1}

// row returns event e's row of rows (s.fwd or s.ff). Caller holds the lock,
// and e is retained.
func (s *Stream) row(rows [][]int, e poset.EventID) []int {
	return rows[e.Proc][(e.Pos-1-s.base[e.Proc])*s.procs:][:s.procs]
}

// append records one event on proc, merging the clock of from and
// attributing the received message to it when from names a send
// (from.Proc >= 0). Caller holds the lock.
func (s *Stream) append(proc int, from poset.EventID) (poset.EventID, error) {
	if proc < 0 || proc >= s.procs {
		return poset.EventID{}, fmt.Errorf("%w: %d", ErrBadProc, proc)
	}
	s.snap = nil
	e := s.b.Append(proc)
	s.counts[proc]++
	s.fwd[proc] = append(s.fwd[proc], s.zeroRow...)
	s.ff[proc] = append(s.ff[proc], s.zeroRow...)
	s.msgFrom[proc] = append(s.msgFrom[proc], from)
	t := vclock.VC(s.row(s.fwd, e))
	if e.Pos > 1 {
		// The previous frontier event's row is always retained: Compact
		// clamps the watermark to counts[p]-1, exactly so this merge works.
		copy(t, s.row(s.fwd, poset.EventID{Proc: proc, Pos: e.Pos - 1}))
	}
	if from.Proc >= 0 {
		t.MaxInto(s.row(s.fwd, from))
	}
	t[proc] = e.Pos
	s.propagateFollower(e, from)
	s.metEvents.Add(1)
	s.metEventsWin.Observe(1)
	return e, nil
}

// propagateFollower updates the first-follower index for the fresh event f:
// every event e with e ≺ f whose first follower on f's node was unknown now
// has one, namely f. The frontier of such events is walked backwards through
// program-predecessor and message-sender edges, stopping at any cell already
// known — knownness is downward closed (the walk that set a cell also
// covered that event's causal past), so the stop is sound and every cell is
// written exactly once, making the total index maintenance O(|E|·|P|) over
// the whole run, amortized O(|P|) per event.
func (s *Stream) propagateFollower(f, from poset.EventID) {
	p := f.Proc
	// Self: the first event on f's own node at-or-after f is f itself.
	s.row(s.ff, f)[p] = f.Pos
	if from.Proc < 0 {
		// The program predecessor's first follower on p is that predecessor
		// itself, already recorded at its own append — the frontier of
		// unknown cells is empty.
		return
	}
	stack := append(s.walkStack[:0], from)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.Pos <= s.base[e.Proc] {
			// Compacted: the row is gone, and by downward closedness of the
			// watermark every event in e's causal past is compacted too, so
			// stopping here skips no retained cell.
			continue
		}
		cells := s.row(s.ff, e)
		if cells[p] != 0 {
			continue
		}
		cells[p] = f.Pos
		if e.Pos > 1 {
			stack = append(stack, poset.EventID{Proc: e.Proc, Pos: e.Pos - 1})
		}
		if from := s.msgFrom[e.Proc][e.Pos-1-s.base[e.Proc]]; from.Proc >= 0 {
			stack = append(stack, from)
		}
	}
	s.walkStack = stack[:0]
}

// Clock returns the online forward vector clock of a recorded real event —
// available immediately, without a snapshot.
func (s *Stream) Clock(e poset.EventID) (vclock.VC, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Proc < 0 || e.Proc >= s.procs || e.Pos < 1 || e.Pos > s.counts[e.Proc] {
		return nil, fmt.Errorf("online: Clock of unrecorded event %v", e)
	}
	if e.Pos <= s.base[e.Proc] {
		return nil, fmt.Errorf("%w: %v", ErrCompacted, e)
	}
	return slices.Clone(s.row(s.fwd, e)), nil
}

// Precedes tests causality between two recorded events using the online
// clocks (O(1)); the verdict is final (see the package comment on verdict
// stability).
func (s *Stream) Precedes(a, b poset.EventID) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range [2]poset.EventID{a, b} {
		if e.Proc < 0 || e.Proc >= s.procs || e.Pos < 1 || e.Pos > s.counts[e.Proc] {
			return false, fmt.Errorf("online: Precedes of unrecorded event %v", e)
		}
	}
	if a == b {
		return false, nil
	}
	// Only b's clock row is consulted, so the test stays answerable when a
	// (but not b) lies inside the compacted region.
	if b.Pos <= s.base[b.Proc] {
		return false, fmt.Errorf("%w: %v", ErrCompacted, b)
	}
	return a.Pos <= s.row(s.fwd, b)[a.Proc], nil
}

// Snapshot is a frozen view of the stream: the execution prefix recorded so
// far plus its full analysis (including its reverse timestamps).
type Snapshot struct {
	Exec     *poset.Execution
	Analysis *core.Analysis
}

// Snapshot returns the current frozen view, cached until the next append or
// compaction. The view is copy-on-grow (the message log is shared with the
// builder, capacity-clamped); the clocks are copied out of the stream's
// retained rows, forward rows as they are and reverse timestamps derived
// from the first-follower index, which costs O(retained events·|P|) per
// construction; and the analysis starts with an empty cut cache. The
// returned snapshot shares no mutable state with the stream, so later
// appends and compactions leave it unchanged. It is the cold API for
// whole-prefix analysis; the online monitor does not take snapshots.
func (s *Stream) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap != nil {
		s.metSnapReuses.Add(1)
		return s.snap
	}
	s.snap = s.snapshotLocked()
	s.metSnapshots.Add(1)
	return s.snap
}

// viewLocked returns a copy-on-grow view of the recorded prefix. Caller
// holds the lock.
func (s *Stream) viewLocked() *poset.Execution {
	ex, err := s.b.View()
	if err != nil {
		// Stream appends follow the fresh-sink discipline (messages only
		// target the newest event of their process, before it sends
		// anything), so views are always available.
		panic(err)
	}
	return ex
}

// snapshotLocked builds a snapshot over copies of the retained rows. Caller
// holds the lock.
func (s *Stream) snapshotLocked() *Snapshot {
	ex := s.viewLocked()
	n := s.procs
	retained := 0
	for p := range n {
		retained += s.counts[p] - s.base[p]
	}
	cells := make([]int, 2*retained*n)
	rows := make([]vclock.VC, 2*retained)
	fwd, rev := make([][]vclock.VC, n), make([][]vclock.VC, n)
	for p := range n {
		k := s.counts[p] - s.base[p]
		fwd[p], rev[p], rows = rows[:k:k], rows[k:2*k:2*k], rows[2*k:]
		for j := range k {
			t, tr := vclock.VC(cells[:n:n]), vclock.VC(cells[n:2*n:2*n])
			cells = cells[2*n:]
			copy(t, s.fwd[p][j*n:])
			// T^R(e)[i] counts the events on i from e's first follower there
			// on, and is 0 while none is recorded.
			for i, f := range s.ff[p][j*n:][:n] {
				if f > 0 {
					tr[i] = s.counts[i] - f + 1
				}
			}
			fwd[p][j], rev[p][j] = t, tr
		}
	}
	clk := vclock.NewRebased(ex, fwd, rev, slices.Clone(s.base))
	a := core.NewAnalysisClocks(ex, clk)
	a.Instrument(s.metReg, s.metTracer)
	return &Snapshot{Exec: ex, Analysis: a}
}

// Replay feeds a recorded execution into a fresh Stream in a causality-
// respecting order (a linear extension), returning the stream. It bridges
// the offline and online paths: analyses of the replayed stream agree with
// analyses of the original execution, which the tests verify. Receives are
// replayed with their original send attribution, so the streamed execution
// is structurally identical (same counts, same message edges).
func Replay(ex *poset.Execution) (*Stream, error) {
	return ReplaySteps(ex, nil)
}

// ReplaySteps is Replay with an observation hook: after each event is
// appended to the stream, step (when non-nil) is called with the stream and
// the event's ID. Replay preserves per-process positions, so the ID passed
// to step is simultaneously the original execution's event and the
// just-appended stream event — callers use it to drive an online Monitor
// (Observe/Complete/Poll) in lockstep with the growing prefix, which is how
// the fault-injection harness checks online verdicts against offline replay.
// A step error aborts the replay.
func ReplaySteps(ex *poset.Execution, step func(s *Stream, e poset.EventID) error) (*Stream, error) {
	return ReplayStepsOn(NewStream(ex.NumProcs()), ex, step)
}

// ReplayStepsOn is ReplaySteps onto a caller-supplied empty stream, so the
// stream can be configured (instrumented, shared with a monitor, given a
// retention policy) before the replay starts. Because the replay knows the
// message structure up front, every send event is pinned the moment it is
// appended and unpinned when its receive lands, so a compaction triggered
// by the step callback (e.g. a monitor retention appraisal) can never pass
// an in-flight send — delayed receives under reordering fault plans keep
// working instead of failing with ErrCompacted.
func ReplayStepsOn(s *Stream, ex *poset.Execution, step func(s *Stream, e poset.EventID) error) (*Stream, error) {
	if s.NumProcs() != ex.NumProcs() {
		return nil, fmt.Errorf("online: ReplayStepsOn: stream has %d processes, execution has %d", s.NumProcs(), ex.NumProcs())
	}
	// The stream API records one incoming edge per receive, so executions
	// where a single event receives several messages cannot be replayed
	// faithfully.
	for _, m := range ex.Messages() {
		if len(ex.MsgPredecessors(m.To)) > 1 {
			return nil, fmt.Errorf("online: Replay: event %v receives multiple messages", m.To)
		}
	}
	for _, e := range ex.LinearExtension() {
		if from := ex.MsgPredecessors(e); from != nil {
			if _, err := s.Recv(e.Proc, from[0]); err != nil {
				return nil, err
			}
			s.Unpin(from[0])
		} else if _, err := s.Local(e.Proc); err != nil {
			return nil, err
		}
		for range ex.MsgSuccessors(e) {
			s.Pin(e)
		}
		if step != nil {
			if err := step(s, e); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}
