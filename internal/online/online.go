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
	"sync/atomic"

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
// concurrent use: one lock guards all of its state but the running event
// total, and every reader of its per-event rows holds it. The total is an
// atomic that append advances under the lock, so TotalEvents, which a
// retention policy consults on every monitor call, reads it without the
// lock. An append merges two clock rows and stores each first-follower cell
// it decides once, so the per-event work is O(|P|) amortized; compaction
// moves no rows.
type Stream struct {
	mu     sync.Mutex
	procs  int
	b      *poset.Builder
	counts []int
	total  atomic.Int64 // sum of counts; written under mu, read without it

	// Per-event rows of the retained events, |P| cells each, in one ring of
	// whole rows per process: the rows of event (p, base[p]+k+1) sit in
	// slot head[p]+k of fwd[p] and ff[p], wrapped at slots[p], read through
	// row. fwd holds the forward clocks T(e), maintained incrementally. ff
	// is the first-follower index: cell i of event e's row holds the
	// position of the first event on node i that causally follows e, or 0
	// while none is recorded; each cell is written once, by the append of
	// that follower (see merge), and the value is monotone knowledge about
	// the past.
	fwd   [][]int
	ff    [][]int
	head  []int // slot of each ring's oldest retained row
	slots []int // rows each ring holds

	// Retention state (Compact): base[p] counts the leading events of
	// process p whose clock rows and first-follower rows were dropped — the
	// rings hold only the retained tail. Event positions stay absolute.
	// pins maps in-flight send events to a reference count; the watermark
	// never passes a pinned event, so a delayed Recv can still read its
	// clock.
	base []int
	pins map[poset.EventID]int
	// compacts is set once a monitor's retention policy governs the stream
	// (SetRetention): its rings then hold a window, not every row.
	compacts bool

	snap *Snapshot // cached; nil when dirty

	metEvents      *obs.Counter
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
		procs:  procs,
		b:      poset.NewBuilder(procs),
		counts: make([]int, procs),
		fwd:    make([][]int, procs),
		ff:     make([][]int, procs),
		head:   make([]int, procs),
		slots:  make([]int, procs),
		base:   make([]int, procs),
	}
}

// NumProcs reports the number of processes.
func (s *Stream) NumProcs() int { return s.procs }

// Instrument attaches a metrics registry and/or tracer; either may be nil.
// The registry receives online.events (appended events, across all kinds),
// the retention counters, and two counters of the cold Snapshot API:
// online.snapshots counts snapshot constructions and
// online.snapshot_reuses counts Snapshot calls served from the cache
// unchanged; each construction copies the retained rows (see Snapshot).
// An append reads no clock: the live events/sec is the rate of
// online.events (/debug/tsdb?series=online.events&agg=rate, or a
// Prometheus rate()).
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
	return s.append(proc, nil)
}

// Send records a send event on proc. The returned EventID is the handle a
// later Recv names.
func (s *Stream) Send(proc int) (poset.EventID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(proc, nil)
}

// Recv records the receipt on proc of the messages sent at sends: one event
// that links a causal edge from each send and merges each sender's clock. A
// receive names at least one send. Every send is checked before anything is
// recorded, so an error leaves the stream unchanged.
func (s *Stream) Recv(proc int, sends ...poset.EventID) (poset.EventID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(sends) == 0 {
		return poset.EventID{}, fmt.Errorf("%w: a receive names no send", ErrUnknownSend)
	}
	for _, send := range sends {
		switch {
		case send.Proc < 0 || send.Proc >= s.procs || send.Pos < 1 || send.Pos > s.counts[send.Proc]:
			return poset.EventID{}, fmt.Errorf("%w: %v", ErrUnknownSend, send)
		case send.Proc == proc:
			return poset.EventID{}, fmt.Errorf("%w: %v", ErrSelfMessage, send)
		case send.Pos <= s.base[send.Proc]:
			return poset.EventID{}, fmt.Errorf("%w: send %v", ErrCompacted, send)
		}
	}
	recv, err := s.append(proc, sends)
	if err != nil {
		return poset.EventID{}, err
	}
	for _, send := range sends {
		if err := s.b.Message(send, recv); err != nil {
			return poset.EventID{}, err
		}
	}
	return recv, nil
}

// row returns event e's row of rows (s.fwd or s.ff). Caller holds the lock,
// and e is retained.
func (s *Stream) row(rows [][]int, e poset.EventID) []int {
	k := s.head[e.Proc] + e.Pos - 1 - s.base[e.Proc]
	if k >= s.slots[e.Proc] {
		k -= s.slots[e.Proc]
	}
	return rows[e.Proc][k*s.procs:][:s.procs]
}

// append records one event on proc, merging the clock of each send in
// sends. Caller holds the lock.
func (s *Stream) append(proc int, sends []poset.EventID) (poset.EventID, error) {
	if proc < 0 || proc >= s.procs {
		return poset.EventID{}, fmt.Errorf("%w: %d", ErrBadProc, proc)
	}
	s.snap = nil
	e := s.b.Append(proc)
	s.counts[proc]++
	s.total.Add(1)
	if s.counts[proc]-s.base[proc] > s.slots[proc] {
		s.resize(proc, max(s.slots[proc]+s.slots[proc]/4, 4))
	}
	t, cells := s.row(s.fwd, e), s.row(s.ff, e)
	if e.Pos > 1 {
		// The previous frontier event's row is always retained: Compact
		// clamps the watermark to counts[p]-1, exactly so this merge works.
		copy(t, s.row(s.fwd, poset.EventID{Proc: proc, Pos: e.Pos - 1}))
	} else {
		clear(t)
	}
	// The slot may hold a dropped event's cells, which would read as
	// recorded followers.
	clear(cells)
	// The first event on its own node at-or-after e is e itself.
	t[proc], cells[proc] = e.Pos, e.Pos
	for _, from := range sends {
		s.merge(e, t, s.row(s.fwd, from))
	}
	s.metEvents.Add(1)
	return e, nil
}

// resize re-lays process p's rings from slot 0 into rings of slots rows,
// at least as many as it retains. An append grows a full ring by a quarter
// (at least 4 rows), since doubling can leave twice the slots a retained
// window needs; a replay onto a stream that no retention policy compacts
// sizes each ring once, for every row its process will hold. Caller holds
// the lock.
func (s *Stream) resize(p, slots int) {
	n, h := s.procs, s.head[p]*s.procs
	for _, rows := range [2][][]int{s.fwd, s.ff} {
		ring := make([]int, slots*n)
		copy(ring[copy(ring, rows[p][h:]):], rows[p][:h])
		rows[p] = ring
	}
	s.head[p], s.slots[p] = 0, slots
}

// merge raises the fresh receive f's clock t, a copy of its program
// predecessor's clock with f counted, to the componentwise max with one
// sender's clock msg, and records f as the first follower on its node of
// every event the raise newly covers. By Definition 13, e ⪯ f exactly when
// e.Pos ≤ t[e.Proc], so those events are the ones f's clock covers and its
// predecessor's does not: on each node q, the positions the raise of t[q]
// passes over. No earlier event on f's node succeeds them, so their cells
// for that node are unset, and the merge writes them without reading any.
// A receive with several senders merges once per sender, and each merge
// raises t only past what the earlier ones covered, so the positions each
// raise passes over are still exactly such events, with their cells still
// unset. Each cell is written once over the whole run, O(|E|·|P|) in total.
// Compacted positions have no row and are skipped. Caller holds the lock.
func (s *Stream) merge(f poset.EventID, t, msg []int) {
	n, p := s.procs, f.Proc
	for q, hi := range msg[:len(t)] {
		lo := t[q]
		if hi <= lo {
			continue
		}
		t[q] = hi
		if lo = max(lo, s.base[q]); lo >= hi {
			continue
		}
		ring, slots := s.ff[q], s.slots[q]
		k := s.head[q] + lo - s.base[q] // slot of (q, lo+1)
		if k >= slots {
			k -= slots
		}
		for range hi - lo {
			ring[k*n+p] = f.Pos
			if k++; k == slots {
				k = 0
			}
		}
	}
}

// Clock returns the online forward vector clock of a recorded real event —
// available immediately, without a snapshot.
func (s *Stream) Clock(e poset.EventID) (vclock.VC, error) {
	t := make(vclock.VC, s.procs)
	if err := s.ReadClock(e, t); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadClock copies the forward vector clock of a recorded real event into
// dst, which has NumProcs components; it allocates nothing.
func (s *Stream) ReadClock(e poset.EventID, dst vclock.VC) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Proc < 0 || e.Proc >= s.procs || e.Pos < 1 || e.Pos > s.counts[e.Proc] {
		return fmt.Errorf("online: Clock of unrecorded event %v", e)
	}
	if e.Pos <= s.base[e.Proc] {
		return fmt.Errorf("%w: %v", ErrCompacted, e)
	}
	copy(dst, s.row(s.fwd, e))
	return nil
}

// Frontier returns, at one prefix, each process's event count and the
// forward clock of its newest event, all zeros for a process with none. No
// compaction drops a process's newest row, so every clock is exact.
func (s *Stream) Frontier() ([]int, []vclock.VC) {
	s.mu.Lock()
	defer s.mu.Unlock()
	clocks := make([]vclock.VC, s.procs)
	for p, c := range s.counts {
		clocks[p] = make(vclock.VC, s.procs)
		if c > 0 {
			copy(clocks[p], s.row(s.fwd, poset.EventID{Proc: p, Pos: c}))
		}
	}
	return slices.Clone(s.counts), clocks
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
// compaction. The view copies the retained message log (poset.Builder.View);
// the clocks are copied out of the stream's retained rows, forward rows as
// they are and reverse timestamps derived from the first-follower index,
// which costs O(retained events·|P|) per construction; and the analysis
// starts with an empty cut cache. The returned snapshot shares no mutable
// state with the stream, so later appends and compactions leave it
// unchanged. It is the cold API for whole-prefix analysis; the online
// monitor does not take snapshots.
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

// snapshotLocked builds a snapshot over a view of the recorded prefix and
// copies of the retained rows. Caller holds the lock.
func (s *Stream) snapshotLocked() *Snapshot {
	ex, err := s.b.View()
	if err != nil {
		// Stream appends follow the fresh-sink discipline (messages only
		// target the newest event of their process, before it sends
		// anything), so views are always available.
		panic(err)
	}
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
			e := poset.EventID{Proc: p, Pos: s.base[p] + j + 1}
			copy(t, s.row(s.fwd, e))
			// T^R(e)[i] counts the events on i from e's first follower there
			// on, and is 0 while none is recorded.
			for i, f := range s.row(s.ff, e) {
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

// ReplayStepsOn feeds a recorded execution into s, an empty stream, in a
// causality-respecting order (a linear extension), and returns s. The
// caller configures the stream (instruments it, shares it with a monitor,
// gives it a retention policy) before the replay starts. Receives are
// replayed with their original send attribution, so the streamed execution
// is structurally identical (same counts, same message edges), and
// analyses of the replayed stream agree with analyses of the original
// execution, which the tests verify. A receive is replayed with all of its
// message predecessors, so an event that receives several messages merges
// them all.
//
// After each event is appended, step (when non-nil) is called with the
// stream and the event's ID. The replay preserves per-process positions,
// so that ID is both the original execution's event and the just-appended
// stream event: callers use it to drive an online Monitor
// (Observe/Complete/Poll) in lockstep with the growing prefix. A step error
// aborts the replay.
//
// Because the replay knows the message structure up front, every send
// event is pinned once per message the moment it is appended and unpinned
// as each receive lands, so a compaction triggered by step (e.g. a monitor
// retention appraisal) can never pass an in-flight send — delayed receives
// under reordering fault plans keep working instead of failing with
// ErrCompacted.
func ReplayStepsOn(s *Stream, ex *poset.Execution, step func(s *Stream, e poset.EventID) error) (*Stream, error) {
	if s.NumProcs() != ex.NumProcs() {
		return nil, fmt.Errorf("online: ReplayStepsOn: stream has %d processes, execution has %d", s.NumProcs(), ex.NumProcs())
	}
	// A stream no retention policy compacts keeps every row and message it
	// is given, so each ring is sized once for the rows its process will
	// hold when the replay ends, and the builder's message log once for
	// the replayed messages; none grows.
	s.mu.Lock()
	if !s.compacts {
		for p, c := range s.counts {
			if rows := c - s.base[p] + ex.NumReal(p); rows > s.slots[p] {
				s.resize(p, rows)
			}
		}
		s.b.Grow(len(ex.Messages()))
	}
	s.mu.Unlock()
	for _, e := range ex.LinearExtension() {
		if from := ex.MsgPredecessors(e); from != nil {
			if _, err := s.Recv(e.Proc, from...); err != nil {
				return nil, err
			}
			for _, send := range from {
				s.Unpin(send)
			}
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
