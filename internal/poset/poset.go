// Package poset implements the poset event-structure model (E, ≺) of a
// distributed computation, as used by Kshemkalyani (IPPS 1998) and the prior
// literature it builds on (Lamport 1978, Fidge 1988, Mattern 1989).
//
// The element set E is partitioned into local executions E_i, one per
// process (node) i. Each E_i is linearly ordered by program order and is
// bracketed by two dummy events: an initial event ⊥_i and a final event ⊤_i.
// Causality between events on different nodes is imposed by message edges
// (send ≺ receive). The relation ≺ is the irreflexive transitive closure of
// program order and message edges, extended with the paper's dummy-event
// axiom: for every ⊥_i, ⊤_j and every real event e, ⊥_i ≺ e ≺ ⊤_j.
//
// Events are identified by (process, position). On node i with m_i real
// events, position 0 is ⊥_i, positions 1..m_i are the real events in program
// order, and position m_i+1 is ⊤_i.
//
// The package provides a Builder for constructing executions, structural
// accessors, and a brute-force causality oracle (Precedes) that the rest of
// the repository uses as ground truth when validating the timestamp-based
// fast paths.
package poset

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"causet/internal/fifo"
)

// EventID identifies an event by its process (node) index and its position in
// that process's local execution. Position 0 is the dummy initial event ⊥,
// position NumReal(proc)+1 is the dummy final event ⊤, and positions
// 1..NumReal(proc) are real events in program order.
type EventID struct {
	Proc int // process (node) index, 0-based
	Pos  int // position within the local execution, 0-based including ⊥
}

// String renders the event as "p<proc>:<pos>", with ⊥/⊤ markers for dummies
// resolved only when an Execution is available; standalone IDs print raw.
func (e EventID) String() string {
	return fmt.Sprintf("p%d:%d", e.Proc, e.Pos)
}

// Less orders events lexicographically by (Proc, Pos). It is a total order
// used for deterministic iteration, not the causality order.
func (e EventID) Less(o EventID) bool {
	if e.Proc != o.Proc {
		return e.Proc < o.Proc
	}
	return e.Pos < o.Pos
}

// Message is a causal edge from a send event to a receive event on a
// different process. Both endpoints are real events.
type Message struct {
	From EventID
	To   EventID
}

// Execution is an immutable distributed computation (E, ≺). Construct one
// with a Builder. The zero value is an empty execution with no processes.
//
// Executions obtained from Builder.View additionally carry the identity of
// the Builder that produced them and an epoch (the total event count at view
// time), which lets Prefix decide cheaply whether one execution extends
// another without comparing structure.
//
// Views of a builder that has been compacted (CompactBelow) also carry the
// per-process watermark: events at or below it are *compacted* — their
// EventIDs remain addressable (counts are absolute, so retained events keep
// their external identity), but the message edges among them have been
// dropped. Structural queries are exact on retained events (the watermark is
// a consistent cut, so no causal path between retained events passes through
// a compacted one); queries that would need a compacted event's causal
// neighborhood panic rather than answer wrong.
type Execution struct {
	counts []int     // number of real events per process
	msgs   []Message // all message edges, in insertion order

	// Message adjacency is derived lazily (see edges): most views of a
	// growing stream never answer a structural query that needs it.
	edgesOnce sync.Once
	adj       *adjacency

	origin    *Builder // builder this view was taken from, nil for Build results
	epoch     int      // total real events at view time (only with origin set)
	msgSeq    int      // total messages ever recorded at view time, incl. compacted
	compacted []int    // per-proc compacted-through positions; nil when none
}

// Errors returned by Builder methods and Build.
var (
	ErrNoSuchProcess = errors.New("poset: process index out of range")
	ErrNoSuchEvent   = errors.New("poset: event does not exist")
	ErrDummyEndpoint = errors.New("poset: message endpoint must be a real event")
	ErrSelfMessage   = errors.New("poset: message endpoints on the same process")
	ErrCausalCycle   = errors.New("poset: message edges create a causal cycle")
	ErrViewUnsafe    = errors.New("poset: builder recorded a message into a non-frontier event; views are unavailable (use Build)")
	ErrCompacted     = errors.New("poset: builder has compacted history; only View is available")
	ErrNotDownClosed = errors.New("poset: compaction watermark is not a consistent cut (a compacted receive has a retained send, or vice versa)")
)

// Builder incrementally constructs an Execution. Methods record events and
// message edges; Build validates acyclicity and freezes the result, while
// View freezes a copy of the current prefix without validating it.
type Builder struct {
	counts []int
	// msgs is the message log, in insertion order. Compaction drops messages
	// from its front, and Message reuses the space they leave (fifo.Queue),
	// so a log that retention keeps bounded stops allocating.
	msgs fifo.Queue[Message]

	// View safety. A view skips the Kahn validation pass, so it is only
	// sound if every (counts, msgs) state the builder passes through is
	// itself acyclic. That holds when every message lands in a "fresh sink":
	// a frontier event with no outgoing edges at insert time — then no edge
	// can ever close a cycle and validation is O(1) per message instead of a
	// Kahn pass per view. Message tracks the discipline; the first edge that
	// breaks it poisons View (Build remains fully general). lastSent[p] is
	// the position of process p's newest event that has sent (0: none), which
	// is all the check needs: a receive must be its process's newest event,
	// so it has sent iff it is that event.
	lastSent       []int
	unsafeForViews bool

	// Retention state (CompactBelow). droppedMsgs counts messages removed
	// from the log by compaction, so droppedMsgs plus the retained count —
	// the msgSeq a view records — is monotone over the builder's lifetime
	// even though the retained count is not. compacted[p] is the
	// per-process watermark: events at positions 1..compacted[p] have had
	// their message edges dropped.
	droppedMsgs int
	compacted   []int
	spare       []int // the previous watermark's array, reused by the next call
}

// NewBuilder returns a Builder for an execution with procs processes, each
// initially containing only its dummy events.
func NewBuilder(procs int) *Builder {
	if procs < 0 {
		procs = 0
	}
	return &Builder{counts: make([]int, procs), lastSent: make([]int, procs)}
}

// NumProcs reports the number of processes configured so far.
func (b *Builder) NumProcs() int { return len(b.counts) }

// Append adds one real event at the end of process proc's local execution and
// returns its EventID. It panics if proc is out of range, mirroring slice
// indexing semantics; use NumProcs to validate externally sourced indices.
func (b *Builder) Append(proc int) EventID {
	if proc < 0 || proc >= len(b.counts) {
		panic(fmt.Sprintf("poset: Append(%d) with %d processes", proc, len(b.counts)))
	}
	b.counts[proc]++
	return EventID{Proc: proc, Pos: b.counts[proc]}
}

// AppendN adds n real events to process proc and returns the ID of the last
// one appended. n must be positive.
func (b *Builder) AppendN(proc, n int) EventID {
	if n <= 0 {
		panic(fmt.Sprintf("poset: AppendN with n=%d", n))
	}
	var last EventID
	for i := 0; i < n; i++ {
		last = b.Append(proc)
	}
	return last
}

// Message records a causal message edge from one existing real event to
// another on a different process.
func (b *Builder) Message(from, to EventID) error {
	for _, e := range [2]EventID{from, to} {
		if e.Proc < 0 || e.Proc >= len(b.counts) {
			return fmt.Errorf("%w: %v", ErrNoSuchProcess, e)
		}
		if e.Pos > b.counts[e.Proc] {
			return fmt.Errorf("%w: %v", ErrNoSuchEvent, e)
		}
		if e.Pos <= 0 {
			return fmt.Errorf("%w: %v", ErrDummyEndpoint, e)
		}
	}
	if from.Proc == to.Proc {
		return fmt.Errorf("%w: %v -> %v", ErrSelfMessage, from, to)
	}
	// Fresh-sink check (see Builder doc): the receive must be the newest
	// event on its process and must not already have outgoing edges,
	// otherwise later views of this builder could observe a cyclic prefix.
	if to.Pos != b.counts[to.Proc] || b.lastSent[to.Proc] == to.Pos {
		b.unsafeForViews = true
	}
	b.lastSent[from.Proc] = max(b.lastSent[from.Proc], from.Pos)
	b.msgs.Push(Message{From: from, To: to})
	return nil
}

// Grow makes room in the message log for n more messages, so that many
// Message calls append without moving the log. It moves the log at most
// once.
func (b *Builder) Grow(n int) {
	b.msgs.Grow(n)
}

// SendRecv appends a fresh send event on fromProc and a fresh receive event
// on toProc, links them with a message edge, and returns both IDs. It is the
// common way workload generators emit communication.
func (b *Builder) SendRecv(fromProc, toProc int) (send, recv EventID, err error) {
	if fromProc == toProc {
		return EventID{}, EventID{}, fmt.Errorf("%w: process %d", ErrSelfMessage, fromProc)
	}
	send = b.Append(fromProc)
	recv = b.Append(toProc)
	if err := b.Message(send, recv); err != nil {
		return EventID{}, EventID{}, err
	}
	return send, recv, nil
}

// Build validates the recorded structure and returns the immutable Execution.
// It fails with ErrCausalCycle if the message edges, combined with program
// order, admit no linear extension (i.e. a receive causally precedes its own
// send), and with ErrCompacted once CompactBelow has dropped history — a
// deep copy of a partial message log would validate a structure that never
// existed.
func (b *Builder) Build() (*Execution, error) {
	if b.compacted != nil {
		return nil, ErrCompacted
	}
	ex := &Execution{
		counts: append([]int(nil), b.counts...),
		msgs:   append([]Message(nil), b.msgs.Items()...),
	}
	if _, err := ex.linearize(); err != nil {
		return nil, err
	}
	return ex, nil
}

// View returns an immutable snapshot of the builder's current state: the
// returned Execution holds copies of the counts, the retained message log
// and the compaction watermark, so later Message and CompactBelow calls,
// which reuse the log's space, leave it unchanged. It is valid only while
// the builder follows the fresh-sink message discipline — every Message
// lands in the newest event of its process before that event sends
// anything — which makes each prefix acyclic by construction and lets View
// skip the Kahn validation pass entirely. If any recorded message broke the
// discipline, View fails with ErrViewUnsafe and callers must fall back to
// Build. A view costs O(processes + retained messages).
func (b *Builder) View() (*Execution, error) {
	if b.unsafeForViews {
		return nil, ErrViewUnsafe
	}
	total := 0
	for _, c := range b.counts {
		total += c
	}
	msgs := b.msgs.Items()
	n := len(msgs)
	ex := &Execution{
		counts: append([]int(nil), b.counts...),
		msgs:   append([]Message(nil), msgs...),
		origin: b,
		epoch:  total,
		msgSeq: b.droppedMsgs + n,
	}
	if b.compacted != nil {
		ex.compacted = append([]int(nil), b.compacted...)
	}
	return ex, nil
}

// CompactBelow drops retained history at or below the per-process watermark
// w: every message edge whose sender sits at position ≤ w[proc] is removed
// from the log, and the watermark is recorded so later views know which
// events lost their causal neighborhood. Event positions are never
// renumbered — retained events keep their external EventIDs, and the
// per-process counts remain absolute.
//
// The watermark must be a *consistent cut*: causally downward-closed, so no
// retained event precedes a compacted one. Concretely that means a message's
// receive may only be compacted together with its send; CompactBelow
// validates the property against the retained log and fails with
// ErrNotDownClosed (mutating nothing) when it is violated. Downward
// closedness is what keeps every structural query on retained events exact —
// no causal path between retained events can pass through the dropped
// region. Watermarks are monotone: components below a previous call's
// watermark are clamped up. The dropped count is returned.
//
// When the dropped messages form a prefix of the log, as they do when
// messages are recorded in causal order, compaction advances the log's
// start and moves nothing; a dropped message recorded after a retained one
// (a straggler) is filtered out in place. Views hold copies, so neither
// disturbs them. From its third call on, CompactBelow allocates nothing.
func (b *Builder) CompactBelow(w []int) (dropped int, err error) {
	if len(w) != len(b.counts) {
		return 0, fmt.Errorf("poset: CompactBelow watermark has %d components for %d processes", len(w), len(b.counts))
	}
	if b.unsafeForViews {
		// Compaction serves the view path; a builder that already requires
		// Build has no consistent-prefix story to preserve.
		return 0, ErrViewUnsafe
	}
	// nw is the new watermark, built in the spare array: w clamped up to the
	// previous watermark and to 0.
	nw := b.spare
	if nw == nil {
		nw = make([]int, len(w))
	}
	for p, wp := range w {
		if wp > b.counts[p] {
			return 0, fmt.Errorf("%w: watermark %d exceeds %d events on process %d", ErrNoSuchEvent, wp, b.counts[p], p)
		}
		nw[p] = max(wp, 0)
		if b.compacted != nil {
			nw[p] = max(nw[p], b.compacted[p])
		}
	}
	// Drop every message sent from inside the cut. Consistency makes this
	// exactly the set with either endpoint inside: a compacted receive
	// implies a compacted send, and a retained receive of a compacted send
	// contributes no causal path between retained events (any retained event
	// preceding the send would itself be inside the downward-closed cut).
	// head counts the leading dropped messages.
	msgs := b.msgs.Items()
	head := 0
	for i, m := range msgs {
		sent := m.From.Pos <= nw[m.From.Proc]
		if !sent && m.To.Pos <= nw[m.To.Proc] {
			return 0, fmt.Errorf("%w: %v -> %v straddles watermark %v", ErrNotDownClosed, m.From, m.To, nw)
		}
		if sent {
			dropped++
			if head == i {
				head++
			}
		}
	}
	if dropped > head {
		kept := head
		for _, m := range msgs[head:] {
			if m.From.Pos > nw[m.From.Proc] {
				msgs[kept] = m
				kept++
			}
		}
		b.msgs.Truncate(kept)
	}
	b.msgs.Pop(head)
	b.droppedMsgs += dropped
	b.compacted, b.spare = nw, b.compacted
	return dropped, nil
}

// CompactedThrough returns the builder's per-process compaction watermark
// (nil when CompactBelow was never called). The slice is a copy.
func (b *Builder) CompactedThrough() []int {
	if b.compacted == nil {
		return nil
	}
	return append([]int(nil), b.compacted...)
}

// Prefix reports whether a is a prefix of b: every event and message edge of
// a is present, unchanged, in b — possibly compacted (retention may have
// dropped edges of b's oldest events, but never renumbers or reorders what
// remains, so verdicts computed over a stay valid over b). Identical
// executions are prefixes of each other. For distinct executions the
// question is only decidable cheaply for views of the same Builder, where
// epoch ordering plus the monotone message sequence number settles it (two
// views can share an epoch yet straddle a Message call, so msgSeq is part of
// the test; it counts messages ever recorded, not retained, so compaction —
// which shrinks the log — cannot make a genuine prefix look like a
// divergent history). Build results have no origin and are prefixes only of
// themselves.
func Prefix(a, b *Execution) bool {
	if a == b {
		return a != nil
	}
	if a == nil || b == nil {
		return false
	}
	return a.origin != nil && a.origin == b.origin &&
		a.epoch <= b.epoch && a.msgSeq <= b.msgSeq
}

// MustBuild is Build that panics on error, for tests and fixed fixtures.
func (b *Builder) MustBuild() *Execution {
	ex, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ex
}

// NumProcs reports the number of processes |P|.
func (ex *Execution) NumProcs() int { return len(ex.counts) }

// NumReal reports the number of real (non-dummy) events on process i.
func (ex *Execution) NumReal(i int) int { return ex.counts[i] }

// Len reports |E_i| including both dummy events, i.e. NumReal(i)+2.
func (ex *Execution) Len(i int) int { return ex.counts[i] + 2 }

// NumEvents reports the total number of real events in the execution.
func (ex *Execution) NumEvents() int {
	n := 0
	for _, c := range ex.counts {
		n += c
	}
	return n
}

// Bottom returns ⊥_i, the dummy initial event of process i.
func (ex *Execution) Bottom(i int) EventID { return EventID{Proc: i, Pos: 0} }

// Top returns ⊤_i, the dummy final event of process i.
func (ex *Execution) Top(i int) EventID { return EventID{Proc: i, Pos: ex.counts[i] + 1} }

// TopPos returns the position of ⊤_i, i.e. NumReal(i)+1.
func (ex *Execution) TopPos(i int) int { return ex.counts[i] + 1 }

// Valid reports whether e denotes an event (real or dummy) of this execution.
func (ex *Execution) Valid(e EventID) bool {
	return e.Proc >= 0 && e.Proc < len(ex.counts) && e.Pos >= 0 && e.Pos <= ex.counts[e.Proc]+1
}

// IsBottom reports whether e is some ⊥_i.
func (ex *Execution) IsBottom(e EventID) bool { return ex.Valid(e) && e.Pos == 0 }

// IsTop reports whether e is some ⊤_i.
func (ex *Execution) IsTop(e EventID) bool {
	return ex.Valid(e) && e.Pos == ex.counts[e.Proc]+1
}

// IsDummy reports whether e is a dummy (⊥ or ⊤) event.
func (ex *Execution) IsDummy(e EventID) bool { return ex.IsBottom(e) || ex.IsTop(e) }

// IsReal reports whether e is a real (application) event of this execution.
func (ex *Execution) IsReal(e EventID) bool {
	return ex.Valid(e) && e.Pos >= 1 && e.Pos <= ex.counts[e.Proc]
}

// Messages returns the message edges in insertion order. The slice is shared;
// callers must not modify it. On a compacted view the slice holds only the
// retained edges (senders above the watermark).
func (ex *Execution) Messages() []Message { return ex.msgs }

// CompactedThrough returns the position through which process p's history was
// compacted when this view was taken (0 when none). Real events at or below
// it remain addressable but have lost their message edges; cross-process
// causality queries naming them panic rather than answer wrong.
func (ex *Execution) CompactedThrough(p int) int {
	if ex.compacted == nil {
		return 0
	}
	return ex.compacted[p]
}

// Compacted reports whether this view carries a nonzero compaction watermark
// on any process.
func (ex *Execution) Compacted() bool {
	for _, w := range ex.compacted {
		if w > 0 {
			return true
		}
	}
	return false
}

// compactedReal reports whether e is a real event inside the compaction cut,
// i.e. one whose message edges were dropped by CompactBelow.
func (ex *Execution) compactedReal(e EventID) bool {
	return ex.compacted != nil && e.Pos >= 1 && e.Pos <= ex.compacted[e.Proc]
}

// adjacency is an execution's message adjacency in compressed sparse row
// form over its dense event index (see Execution.slot): the message
// successors of the event in slot i are outAdj[outOff[i]:outOff[i+1]], its
// predecessors likewise in inAdj, each row in message insertion order.
type adjacency struct {
	start         []int // start[p]: slot of process p's first retained real event
	outOff, inOff []int32
	outAdj, inAdj []EventID
}

// slot maps a retained real event to its dense index: process by process,
// the positions above the compaction watermark in program order, so a
// compacted view's index covers only its retained events. ok is false for
// dummies, compacted events and IDs outside the execution. Call edges first.
func (ex *Execution) slot(e EventID) (int, bool) {
	if e.Proc < 0 || e.Proc >= len(ex.counts) {
		return 0, false
	}
	w := ex.CompactedThrough(e.Proc)
	if e.Pos <= w || e.Pos > ex.counts[e.Proc] {
		return 0, false
	}
	return ex.adj.start[e.Proc] + e.Pos - 1 - w, true
}

// edges returns the message adjacency, building it on first use. It derives
// purely from ex.counts and ex.msgs (immutable once the Execution exists),
// so the sync.Once makes concurrent first calls safe.
func (ex *Execution) edges() *adjacency {
	ex.edgesOnce.Do(func() {
		if len(ex.msgs) >= math.MaxInt32 {
			panic("poset: too many messages for the adjacency index")
		}
		a := &adjacency{start: make([]int, len(ex.counts)+1)}
		for p, c := range ex.counts {
			a.start[p+1] = a.start[p] + c - ex.CompactedThrough(p)
		}
		ex.adj = a // slot reads start while the rows are built
		a.outOff, a.outAdj = ex.csr(func(m Message) (EventID, EventID) { return m.From, m.To })
		a.inOff, a.inAdj = ex.csr(func(m Message) (EventID, EventID) { return m.To, m.From })
	})
	return ex.adj
}

// csr groups the message log by one endpoint: row i lists, in insertion
// order, the other endpoints of the messages whose key endpoint sits in slot
// i. Messages whose key endpoint has no slot are left out.
func (ex *Execution) csr(ends func(Message) (key, other EventID)) ([]int32, []EventID) {
	n := ex.adj.start[len(ex.counts)]
	off := make([]int32, n+1)
	kept := 0
	for _, m := range ex.msgs {
		key, _ := ends(m)
		if i, ok := ex.slot(key); ok {
			off[i]++
			kept++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// off[i] now ends row i; filling back to front walks it down to the
	// row's start while keeping insertion order.
	adj := make([]EventID, kept)
	for k := len(ex.msgs) - 1; k >= 0; k-- {
		key, other := ends(ex.msgs[k])
		if i, ok := ex.slot(key); ok {
			off[i]--
			adj[off[i]] = other
		}
	}
	return off, adj
}

// row returns the slice of adj that off assigns to e, or nil when e has no
// slot or no edges. The slice is capacity-clamped so that an append by a
// caller cannot overwrite the next row.
func (ex *Execution) row(off []int32, adj []EventID, e EventID) []EventID {
	i, ok := ex.slot(e)
	if !ok || off[i] == off[i+1] {
		return nil
	}
	return adj[off[i]:off[i+1]:off[i+1]]
}

// MsgSuccessors returns the receive events of messages sent at e: nil for
// dummies, compacted events and IDs outside the execution. The slice is
// shared; callers must not modify it.
func (ex *Execution) MsgSuccessors(e EventID) []EventID {
	a := ex.edges()
	return ex.row(a.outOff, a.outAdj, e)
}

// MsgPredecessors returns the send events of messages received at e, nil
// where MsgSuccessors is. The slice is shared; callers must not modify it.
func (ex *Execution) MsgPredecessors(e EventID) []EventID {
	a := ex.edges()
	return ex.row(a.inOff, a.inAdj, e)
}

// RealEvents returns all real events in deterministic (Proc, Pos) order.
func (ex *Execution) RealEvents() []EventID {
	out := make([]EventID, 0, ex.NumEvents())
	for p, c := range ex.counts {
		for pos := 1; pos <= c; pos++ {
			out = append(out, EventID{Proc: p, Pos: pos})
		}
	}
	return out
}

// AllEvents returns all events including dummies in (Proc, Pos) order.
func (ex *Execution) AllEvents() []EventID {
	out := make([]EventID, 0, ex.NumEvents()+2*len(ex.counts))
	for p, c := range ex.counts {
		for pos := 0; pos <= c+1; pos++ {
			out = append(out, EventID{Proc: p, Pos: pos})
		}
	}
	return out
}

// Precedes reports whether a ≺ b (strict causality). Dummy axioms: every ⊥_i
// strictly precedes every event that is not a ⊥, and every ⊤_j strictly
// follows every event that is not a ⊤. Distinct ⊥s are incomparable, as are
// distinct ⊤s. For real events the relation is the transitive closure of
// program order and message edges, computed by breadth-first search; this is
// the repository's ground-truth oracle and is deliberately simple rather than
// fast (the fast paths live in internal/vclock and internal/core).
func (ex *Execution) Precedes(a, b EventID) bool {
	if !ex.Valid(a) || !ex.Valid(b) || a == b {
		return false
	}
	switch {
	case ex.IsBottom(a):
		return !ex.IsBottom(b)
	case ex.IsTop(a):
		return false
	case ex.IsBottom(b):
		return false
	case ex.IsTop(b):
		return true
	}
	// Both real. Same process: program order — exact even inside the
	// compaction cut, since compaction never drops program-order edges.
	if a.Proc == b.Proc {
		return a.Pos < b.Pos
	}
	// Cross-process causality needs message edges. A compacted endpoint has
	// lost its neighborhood, so the BFS would silently under-approximate ≺;
	// the watermark being a consistent cut guarantees retained×retained
	// queries never route through the dropped region, so only queries that
	// name a compacted event are unanswerable.
	if ex.compactedReal(a) || ex.compactedReal(b) {
		panic(fmt.Sprintf("poset: Precedes(%v, %v) touches compacted history (watermark %v)", a, b, ex.compacted))
	}
	return ex.reaches(a, b)
}

// PrecedesEq reports a ⪯ b, i.e. a == b or a ≺ b.
func (ex *Execution) PrecedesEq(a, b EventID) bool {
	return a == b || ex.Precedes(a, b)
}

// Concurrent reports whether a and b are distinct and causally unrelated.
func (ex *Execution) Concurrent(a, b EventID) bool {
	return a != b && !ex.Precedes(a, b) && !ex.Precedes(b, a)
}

// reaches runs a BFS from real event a over program-order and message edges,
// returning true as soon as real event b is reachable.
func (ex *Execution) reaches(a, b EventID) bool {
	type key = EventID
	seen := map[key]bool{a: true}
	queue := []EventID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Program-order successor.
		if cur.Pos < ex.counts[cur.Proc] {
			next := EventID{Proc: cur.Proc, Pos: cur.Pos + 1}
			// Prune: on b's process, reaching any position ≤ b.Pos suffices.
			if next.Proc == b.Proc && next.Pos <= b.Pos {
				return true
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
		for _, next := range ex.MsgSuccessors(cur) {
			if next == b || (next.Proc == b.Proc && next.Pos <= b.Pos) {
				return true
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

// linearize computes a linear extension of the real events (Kahn's
// algorithm over program order + message edges). It is used by Build to
// detect causal cycles and exported via LinearExtension for consumers that
// need a topological processing order (e.g. vector-clock propagation).
// In-degrees live in one array over the dense event index, and the order
// doubles as the FIFO queue: an event is appended once its last
// predecessor has been, and head walks the appended events in turn.
func (ex *Execution) linearize() ([]EventID, error) {
	if ex.Compacted() {
		// The retained message log under-constrains the compacted prefix; a
		// Kahn pass would return a "linear extension" of an order weaker than
		// ≺. Fail loudly instead of replaying history in a wrong order.
		return nil, fmt.Errorf("%w: linear extension spans dropped edges", ErrCompacted)
	}
	a := ex.edges()
	n := a.start[len(ex.counts)]
	indeg := make([]int32, n)
	for p, c := range ex.counts {
		for i := a.start[p] + 1; i < a.start[p]+c; i++ {
			indeg[i] = 1 // the program-order predecessor
		}
	}
	for i := range indeg {
		indeg[i] += a.inOff[i+1] - a.inOff[i]
	}
	order := make([]EventID, 0, n)
	for p, c := range ex.counts {
		if c > 0 && indeg[a.start[p]] == 0 {
			order = append(order, EventID{Proc: p, Pos: 1})
		}
	}
	for head := 0; head < len(order); head++ {
		cur := order[head]
		i := a.start[cur.Proc] + cur.Pos - 1
		if cur.Pos < ex.counts[cur.Proc] {
			if indeg[i+1]--; indeg[i+1] == 0 {
				order = append(order, EventID{Proc: cur.Proc, Pos: cur.Pos + 1})
			}
		}
		for _, next := range a.outAdj[a.outOff[i]:a.outOff[i+1]] {
			j := a.start[next.Proc] + next.Pos - 1
			if indeg[j]--; indeg[j] == 0 {
				order = append(order, next)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCausalCycle
	}
	return order, nil
}

// LinearExtension returns a topological order of the real events consistent
// with ≺. The order is deterministic for a given execution.
func (ex *Execution) LinearExtension() []EventID {
	order, err := ex.linearize()
	if err != nil {
		// Build guarantees acyclicity; reaching here means memory corruption
		// or misuse of an Execution constructed outside Build.
		panic(err)
	}
	return order
}

// Stats summarizes the structure of an execution.
type Stats struct {
	Procs     int // |P|
	Events    int // total real events
	Messages  int // message edges
	MaxPerind int // max real events on any one process
}

// Stats returns summary statistics for the execution.
func (ex *Execution) Stats() Stats {
	s := Stats{Procs: len(ex.counts), Events: ex.NumEvents(), Messages: len(ex.msgs)}
	for _, c := range ex.counts {
		if c > s.MaxPerind {
			s.MaxPerind = c
		}
	}
	return s
}
