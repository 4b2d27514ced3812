package poset

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// chainBuilder records a 3-process pipeline that obeys the fresh-sink
// discipline: each round r, p0 sends to p1 and p1 sends to p2, with a local
// event on p0 between rounds. Returns the builder still open for growth.
//
//	p0:  s0 l0 s1 l1 ...
//	p1:  r0 s0' r1 s1' ...
//	p2:  r0' r1' ...
func chainBuilder(t *testing.T, rounds int) *Builder {
	t.Helper()
	b := NewBuilder(3)
	for r := 0; r < rounds; r++ {
		if _, _, err := b.SendRecv(0, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.SendRecv(1, 2); err != nil {
			t.Fatal(err)
		}
		b.Append(0)
	}
	return b
}

func TestCompactBelowDropsSenderSideEdges(t *testing.T) {
	b := chainBuilder(t, 4) // counts: p0=8, p1=8, p2=4; 8 messages
	pre, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	preMsgs := len(pre.Messages())

	// Watermark after round 2: p0 through event 4 (s0 l0 s1 l1... wait:
	// per round p0 gets send+local = 2 events), p1 through 4, p2 through 2.
	dropped, err := b.CompactBelow([]int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (two rounds x two messages)", dropped)
	}
	if got := b.CompactedThrough(); got[0] != 4 || got[1] != 4 || got[2] != 2 {
		t.Fatalf("CompactedThrough = %v, want [4 4 2]", got)
	}

	// The pre-compaction view must be untouched: it holds a copy of the log,
	// which CompactBelow filters in place.
	if got := len(pre.Messages()); got != preMsgs {
		t.Fatalf("pre-compaction view lost messages: %d, want %d", got, preMsgs)
	}

	post, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(post.Messages()); got != preMsgs-4 {
		t.Fatalf("post-compaction view has %d messages, want %d", got, preMsgs-4)
	}
	for _, m := range post.Messages() {
		if m.From.Pos <= post.CompactedThrough(m.From.Proc) {
			t.Fatalf("retained message %v sent from inside the cut", m)
		}
	}
	if !post.Compacted() {
		t.Fatal("post view does not report Compacted")
	}
	if post.CompactedThrough(1) != 4 {
		t.Fatalf("post.CompactedThrough(1) = %d, want 4", post.CompactedThrough(1))
	}
}

// TestCompactBelowAdvancesLog pins how CompactBelow drops messages. When
// the dropped messages lead the log, it advances the log's start in the
// same array, and a view taken before keeps its messages across later
// Message calls. A dropped message recorded after a retained one (a
// straggler) is filtered out in place.
func TestCompactBelowAdvancesLog(t *testing.T) {
	t.Run("prefix", func(t *testing.T) {
		b := chainBuilder(t, 5) // 10 messages in a 16-message array
		pre, err := b.View()
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(pre.Messages())
		fifth := &b.msgs.Items()[4]
		if _, err := b.CompactBelow([]int{4, 4, 2}); err != nil {
			t.Fatal(err)
		}
		if &b.msgs.Items()[0] != fifth {
			t.Fatal("CompactBelow moved a log whose dropped messages lead it")
		}
		for range 3 { // written into the same array
			if _, _, err := b.SendRecv(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if &b.msgs.Items()[0] != fifth {
			t.Fatal("Message moved a log with spare capacity")
		}
		if !slices.Equal(pre.Messages(), want) {
			t.Fatalf("pre-compaction view changed: %v, want %v", pre.Messages(), want)
		}
		post, err := b.View()
		if err != nil {
			t.Fatal(err)
		}
		if got := post.Messages(); len(got) != 9 || !slices.Equal(got[:6], want[4:]) {
			t.Fatalf("post-compaction log %v, want %v and three new messages", got, want[4:])
		}
	})
	t.Run("straggler", func(t *testing.T) {
		// p1's send is recorded before p0's, so compacting p0:1 alone drops
		// the log's second message and keeps its first.
		b := NewBuilder(2)
		s0 := b.Append(0)
		s1 := b.Append(1)
		r0 := b.Append(0)
		if err := b.Message(s1, r0); err != nil {
			t.Fatal(err)
		}
		r1 := b.Append(1)
		if err := b.Message(s0, r1); err != nil {
			t.Fatal(err)
		}
		pre, err := b.View()
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(pre.Messages())
		first := &b.msgs.Items()[0]
		dropped, err := b.CompactBelow([]int{1, 0})
		if err != nil || dropped != 1 {
			t.Fatalf("CompactBelow = %d, %v; want 1 dropped", dropped, err)
		}
		if &b.msgs.Items()[0] != first {
			t.Fatal("CompactBelow moved the log instead of filtering it in place")
		}
		if !slices.Equal(b.msgs.Items(), []Message{{From: s1, To: r0}}) {
			t.Fatalf("log after compaction = %v, want only %v -> %v", b.msgs.Items(), s1, r0)
		}
		if !slices.Equal(pre.Messages(), want) {
			t.Fatalf("pre-compaction view changed: %v, want %v", pre.Messages(), want)
		}
	})
}

// TestViewKeepsMessagesAcrossSlide: once the log's array is full and
// compaction has dropped at least a quarter of it, Message slides the
// retained messages to the front of the same array instead of growing it,
// and a view taken before the slide keeps its messages.
func TestViewKeepsMessagesAcrossSlide(t *testing.T) {
	b := NewBuilder(2)
	for len(b.msgs.Items()) < 8 || len(b.msgs.Items()) < cap(b.msgs.Items()) {
		if _, _, err := b.SendRecv(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Message k is p0:k -> p1:k, so compacting both processes through n/4
	// drops the log's first quarter, the least that makes Message slide.
	n := len(b.msgs.Items())
	if dropped, err := b.CompactBelow([]int{n / 4, n / 4}); err != nil || dropped != n/4 {
		t.Fatalf("CompactBelow = %d, %v; want %d dropped", dropped, err, n/4)
	}
	pre, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(pre.Messages())
	if _, _, err := b.SendRecv(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := cap(b.msgs.Items()); got != n {
		t.Fatalf("log capacity %d after the message; want %d, the same array from its start", got, n)
	}
	if !slices.Equal(pre.Messages(), want) {
		t.Fatalf("view taken before the slide changed: %v, want %v", pre.Messages(), want)
	}
	post, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := post.Messages(); len(got) != len(want)+1 || !slices.Equal(got[:len(want)], want) {
		t.Fatalf("log after the slide %v, want %v and one new message", got, want)
	}
}

// TestMessageCompactSteadyStateAllocs: once the log's array has room for
// the window compaction keeps, a loop of Message and CompactBelow
// allocates nothing, because Message reuses the space compaction frees.
func TestMessageCompactSteadyStateAllocs(t *testing.T) {
	const window = 8
	b := NewBuilder(2)
	step := func() {
		send, recv, err := b.SendRecv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.CompactBelow([]int{send.Pos - window, recv.Pos - window}); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 * window {
		step()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 1000 {
		step()
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("1000 steps of Message plus CompactBelow allocated %d times; want 0", n)
	}
	if n := len(b.msgs.Items()); n != window {
		t.Errorf("log holds %d messages; want the %d-message window", n, window)
	}
}

func TestCompactBelowRejectsInconsistentCut(t *testing.T) {
	b := chainBuilder(t, 2)
	view, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	msgs := len(view.Messages())

	// Compacting p1's receive of round 0 while keeping p0's send retained
	// leaves a retained event (the send) preceding a compacted one.
	if _, err := b.CompactBelow([]int{0, 1, 0}); !errors.Is(err, ErrNotDownClosed) {
		t.Fatalf("inconsistent cut: err = %v, want ErrNotDownClosed", err)
	}
	// Nothing may have been mutated by the failed call.
	if b.compacted != nil {
		t.Fatal("failed CompactBelow recorded a watermark")
	}
	after, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(after.Messages()); got != msgs {
		t.Fatalf("failed CompactBelow dropped messages: %d, want %d", got, msgs)
	}
}

func TestCompactBelowValidation(t *testing.T) {
	b := chainBuilder(t, 2)
	if _, err := b.CompactBelow([]int{0, 0}); err == nil || !strings.Contains(err.Error(), "components") {
		t.Fatalf("wrong arity: err = %v", err)
	}
	if _, err := b.CompactBelow([]int{99, 0, 0}); !errors.Is(err, ErrNoSuchEvent) {
		t.Fatalf("oversized watermark: err = %v, want ErrNoSuchEvent", err)
	}

	// Breaking the fresh-sink discipline poisons compaction along with View.
	nb := NewBuilder(2)
	x := nb.Append(0)
	y := nb.Append(1)
	nb.Append(1) // y is no longer the frontier of p1
	if err := nb.Message(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.CompactBelow([]int{0, 0}); !errors.Is(err, ErrViewUnsafe) {
		t.Fatalf("unsafe builder: err = %v, want ErrViewUnsafe", err)
	}
}

func TestCompactBelowMonotoneClamp(t *testing.T) {
	b := chainBuilder(t, 4)
	if _, err := b.CompactBelow([]int{4, 4, 2}); err != nil {
		t.Fatal(err)
	}
	// A lower (or negative) watermark clamps up to the previous one.
	if _, err := b.CompactBelow([]int{2, -1, 0}); err != nil {
		t.Fatal(err)
	}
	if got := b.CompactedThrough(); got[0] != 4 || got[1] != 4 || got[2] != 2 {
		t.Fatalf("watermark regressed: %v, want [4 4 2]", got)
	}
	// And a higher one advances.
	if _, err := b.CompactBelow([]int{8, 8, 4}); err != nil {
		t.Fatal(err)
	}
	if got := b.CompactedThrough(); got[0] != 8 || got[1] != 8 || got[2] != 4 {
		t.Fatalf("watermark did not advance: %v, want [8 8 4]", got)
	}
	post, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(post.Messages()); got != 0 {
		t.Fatalf("full compaction left %d messages", got)
	}
}

func TestPrefixAcrossCompaction(t *testing.T) {
	b := chainBuilder(t, 4)
	old, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CompactBelow([]int{4, 4, 2}); err != nil {
		t.Fatal(err)
	}
	cur, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	// cur retains fewer messages than old, but msgSeq is monotone: old is
	// still a prefix of cur. (A len(msgs) comparison would get this wrong —
	// the compacted log is shorter, which is exactly the bug msgSeq fixes.)
	// The two views describe the same logical execution, so the relation
	// holds in both directions.
	if len(cur.Messages()) >= len(old.Messages()) {
		t.Fatalf("expected compaction to shrink the retained log (%d vs %d)",
			len(cur.Messages()), len(old.Messages()))
	}
	if !Prefix(old, cur) {
		t.Fatal("Prefix(old, compacted-current) = false, want true")
	}
	if !Prefix(cur, old) {
		t.Fatal("Prefix(compacted-current, old) = false, want true (same logical execution)")
	}

	// Growth after compaction keeps the ordering.
	if _, _, err := b.SendRecv(0, 1); err != nil {
		t.Fatal(err)
	}
	next, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if !Prefix(cur, next) || !Prefix(old, next) {
		t.Fatal("older views must remain prefixes after post-compaction growth")
	}
	if Prefix(next, cur) {
		t.Fatal("Prefix(next, cur) = true, want false")
	}
}

func TestCompactedViewQueryGuards(t *testing.T) {
	b := chainBuilder(t, 4)
	if _, err := b.CompactBelow([]int{4, 4, 2}); err != nil {
		t.Fatal(err)
	}
	ex, err := b.View()
	if err != nil {
		t.Fatal(err)
	}

	// Retained x retained cross-process queries stay exact: round 3's p0
	// send (pos 7... p0 events per round: send=2r+1, local=2r+2) reaches
	// round 3's p2 receive (pos 4).
	if !ex.Precedes(EventID{Proc: 0, Pos: 7}, EventID{Proc: 2, Pos: 4}) {
		t.Fatal("retained causality lost after compaction")
	}
	// Same-process program order is exact even inside the cut.
	if !ex.Precedes(EventID{Proc: 0, Pos: 1}, EventID{Proc: 0, Pos: 3}) {
		t.Fatal("program order inside the cut must remain answerable")
	}
	// Dummy axioms still hold regardless of compaction.
	if !ex.Precedes(ex.Bottom(0), EventID{Proc: 2, Pos: 4}) {
		t.Fatal("bottom axiom lost")
	}

	// Cross-process query naming a compacted event must panic, not lie.
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Precedes(compacted, retained)", func() {
		ex.Precedes(EventID{Proc: 0, Pos: 1}, EventID{Proc: 2, Pos: 4})
	})
	mustPanic("LinearExtension", func() { ex.LinearExtension() })

	if _, err := ex.linearize(); !errors.Is(err, ErrCompacted) {
		t.Fatalf("linearize on compacted view: err = %v, want ErrCompacted", err)
	}
	if _, err := b.Build(); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Build on compacted builder: err = %v, want ErrCompacted", err)
	}
}

// TestCompactedViewAdjacencyIsDense pins the dense index of a compacted
// view: one adjacency slot per retained event, and nil for compacted
// events, dummies and IDs outside the execution.
func TestCompactedViewAdjacencyIsDense(t *testing.T) {
	b := chainBuilder(t, 4) // counts: p0=8, p1=8, p2=4
	if _, err := b.CompactBelow([]int{4, 4, 2}); err != nil {
		t.Fatal(err)
	}
	ex, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	a := ex.edges()
	retained := (8 - 4) + (8 - 4) + (4 - 2)
	if len(a.outOff) != retained+1 || len(a.inOff) != retained+1 {
		t.Fatalf("offset arrays have %d and %d entries, want %d", len(a.outOff), len(a.inOff), retained+1)
	}
	if len(a.outAdj) != len(ex.Messages()) || len(a.inAdj) != len(ex.Messages()) {
		t.Fatalf("adjacency arrays have %d and %d entries, want %d", len(a.outAdj), len(a.inAdj), len(ex.Messages()))
	}
	// Round 2's messages survive: p0:5 -> p1:5 and p1:6 -> p2:3.
	if got := ex.MsgSuccessors(EventID{Proc: 0, Pos: 5}); len(got) != 1 || got[0] != (EventID{Proc: 1, Pos: 5}) {
		t.Fatalf("MsgSuccessors(p0:5) = %v, want [p1:5]", got)
	}
	if got := ex.MsgPredecessors(EventID{Proc: 2, Pos: 3}); len(got) != 1 || got[0] != (EventID{Proc: 1, Pos: 6}) {
		t.Fatalf("MsgPredecessors(p2:3) = %v, want [p1:6]", got)
	}
	for _, e := range []EventID{
		{Proc: 0, Pos: 1}, {Proc: 1, Pos: 2}, {Proc: 2, Pos: 1}, // compacted senders and receivers
		{Proc: 0, Pos: 0}, {Proc: 2, Pos: 5}, // ⊥ and ⊤
		{Proc: 3, Pos: 1}, {Proc: -1, Pos: 5}, {Proc: 0, Pos: 99}, // outside the execution
	} {
		if got := ex.MsgSuccessors(e); got != nil {
			t.Errorf("MsgSuccessors(%v) = %v, want nil", e, got)
		}
		if got := ex.MsgPredecessors(e); got != nil {
			t.Errorf("MsgPredecessors(%v) = %v, want nil", e, got)
		}
	}
}
