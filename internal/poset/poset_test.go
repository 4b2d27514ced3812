package poset

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the canonical 3-process execution used across the tests:
//
//	p0:  a1 --m--> (p1)            a2
//	p1:  b1 <--m-- (p0)  b2 --m--> (p2)
//	p2:  c1                         c2 <--m-- (p1)
func diamond(t *testing.T) *Execution {
	t.Helper()
	b := NewBuilder(3)
	a1 := b.Append(0)
	b1 := b.Append(1)
	if err := b.Message(a1, b1); err != nil {
		t.Fatal(err)
	}
	b2 := b.Append(1)
	c1 := b.Append(2)
	_ = c1
	c2 := b.Append(2)
	if err := b.Message(b2, c2); err != nil {
		t.Fatal(err)
	}
	b.Append(0) // a2
	ex, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestBuilderCounts(t *testing.T) {
	ex := diamond(t)
	if got := ex.NumProcs(); got != 3 {
		t.Fatalf("NumProcs = %d, want 3", got)
	}
	wantReal := []int{2, 2, 2}
	for i, w := range wantReal {
		if got := ex.NumReal(i); got != w {
			t.Errorf("NumReal(%d) = %d, want %d", i, got, w)
		}
		if got := ex.Len(i); got != w+2 {
			t.Errorf("Len(%d) = %d, want %d", i, got, w+2)
		}
	}
	if got := ex.NumEvents(); got != 6 {
		t.Errorf("NumEvents = %d, want 6", got)
	}
	if got := len(ex.Messages()); got != 2 {
		t.Errorf("len(Messages) = %d, want 2", got)
	}
}

func TestDummyClassification(t *testing.T) {
	ex := diamond(t)
	for i := 0; i < 3; i++ {
		bot, top := ex.Bottom(i), ex.Top(i)
		if !ex.IsBottom(bot) || ex.IsTop(bot) || ex.IsReal(bot) {
			t.Errorf("Bottom(%d) misclassified", i)
		}
		if !ex.IsTop(top) || ex.IsBottom(top) || ex.IsReal(top) {
			t.Errorf("Top(%d) misclassified", i)
		}
		if !ex.IsDummy(bot) || !ex.IsDummy(top) {
			t.Errorf("dummies of %d not dummy", i)
		}
	}
	real := EventID{Proc: 1, Pos: 1}
	if ex.IsDummy(real) || !ex.IsReal(real) {
		t.Errorf("real event misclassified")
	}
	if ex.Valid(EventID{Proc: 0, Pos: 4}) {
		t.Errorf("out-of-range position reported valid")
	}
	if ex.Valid(EventID{Proc: 3, Pos: 0}) {
		t.Errorf("out-of-range process reported valid")
	}
}

func TestPrecedesProgramOrder(t *testing.T) {
	ex := diamond(t)
	a1 := EventID{0, 1}
	a2 := EventID{0, 2}
	if !ex.Precedes(a1, a2) {
		t.Errorf("program order a1 ≺ a2 not detected")
	}
	if ex.Precedes(a2, a1) {
		t.Errorf("a2 ≺ a1 wrongly true")
	}
	if ex.Precedes(a1, a1) {
		t.Errorf("≺ must be irreflexive")
	}
	if !ex.PrecedesEq(a1, a1) {
		t.Errorf("⪯ must be reflexive")
	}
}

func TestPrecedesAcrossMessages(t *testing.T) {
	ex := diamond(t)
	a1 := EventID{0, 1}
	b1 := EventID{1, 1}
	b2 := EventID{1, 2}
	c1 := EventID{2, 1}
	c2 := EventID{2, 2}
	a2 := EventID{0, 2}

	// Direct message edge and transitive chains.
	for _, tc := range []struct {
		a, b EventID
		want bool
	}{
		{a1, b1, true},  // message
		{a1, b2, true},  // message + program order
		{a1, c2, true},  // two messages
		{b2, c2, true},  // message
		{a1, c1, false}, // c1 has no incoming causality
		{c1, c2, true},  // program order
		{a2, b1, false}, // a2 after the send
		{b1, a2, false}, // no path back to p0
		{c2, a1, false}, // ≺ is antisymmetric
	} {
		if got := ex.Precedes(tc.a, tc.b); got != tc.want {
			t.Errorf("Precedes(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if !ex.Concurrent(a2, c1) {
		t.Errorf("a2 and c1 should be concurrent")
	}
	if ex.Concurrent(a1, c2) {
		t.Errorf("a1 and c2 are ordered, not concurrent")
	}
}

func TestPrecedesDummyAxioms(t *testing.T) {
	ex := diamond(t)
	real := EventID{2, 1}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !ex.Precedes(ex.Bottom(i), real) {
				t.Errorf("⊥_%d ≺ real must hold", i)
			}
			if !ex.Precedes(real, ex.Top(j)) {
				t.Errorf("real ≺ ⊤_%d must hold", j)
			}
			if !ex.Precedes(ex.Bottom(i), ex.Top(j)) {
				t.Errorf("⊥_%d ≺ ⊤_%d must hold", i, j)
			}
			if i != j {
				if ex.Precedes(ex.Bottom(i), ex.Bottom(j)) {
					t.Errorf("distinct bottoms must be incomparable")
				}
				if ex.Precedes(ex.Top(i), ex.Top(j)) {
					t.Errorf("distinct tops must be incomparable")
				}
			}
		}
	}
	if ex.Precedes(ex.Bottom(0), ex.Bottom(0)) || ex.Precedes(ex.Top(0), ex.Top(0)) {
		t.Errorf("≺ must be irreflexive on dummies")
	}
	if ex.Precedes(real, ex.Bottom(0)) || ex.Precedes(ex.Top(0), real) {
		t.Errorf("dummy ordering inverted")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	e0 := b.Append(0)
	e1 := b.Append(1)

	if err := b.Message(EventID{5, 1}, e1); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("bad proc: got %v, want ErrNoSuchProcess", err)
	}
	if err := b.Message(EventID{0, 9}, e1); !errors.Is(err, ErrNoSuchEvent) {
		t.Errorf("bad pos: got %v, want ErrNoSuchEvent", err)
	}
	if err := b.Message(EventID{0, 0}, e1); !errors.Is(err, ErrDummyEndpoint) {
		t.Errorf("dummy endpoint: got %v, want ErrDummyEndpoint", err)
	}
	if err := b.Message(e0, EventID{0, 1}); !errors.Is(err, ErrSelfMessage) {
		t.Errorf("self message: got %v, want ErrSelfMessage", err)
	}
	if _, _, err := b.SendRecv(1, 1); !errors.Is(err, ErrSelfMessage) {
		t.Errorf("SendRecv same proc: got %v, want ErrSelfMessage", err)
	}
}

// TestBuilderGrow: Grow sizes the message log once, so the messages that
// follow append without moving it, and a view taken before keeps exactly
// the messages it had.
func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(2)
	send, recv, err := b.SendRecv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	before, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	b.Grow(3)
	first := &b.msgs[0]
	for range 3 {
		if _, _, err := b.SendRecv(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if &b.msgs[0] != first {
		t.Error("the message log moved after Grow(3) and three messages")
	}
	if got := before.Messages(); len(got) != 1 || got[0] != (Message{From: send, To: recv}) {
		t.Errorf("view taken before Grow reads %v; want only %v -> %v", got, send, recv)
	}
	after, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(after.Messages()); got != 4 {
		t.Errorf("view after the messages holds %d; want 4", got)
	}
}

func TestBuildDetectsCycle(t *testing.T) {
	b := NewBuilder(2)
	a1 := b.Append(0)
	a2 := b.Append(0)
	b1 := b.Append(1)
	b2 := b.Append(1)
	// a1 -> b2 and b1 -> a... wait this is acyclic; build the real cycle:
	// a2 -> b1 (message) and b2 -> a1 (message) forces b2 ≺ a1 ≤ a2 ≺ b1 ≤ b2.
	if err := b.Message(a2, b1); err != nil {
		t.Fatal(err)
	}
	if err := b.Message(b2, a1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); !errors.Is(err, ErrCausalCycle) {
		t.Fatalf("Build: got %v, want ErrCausalCycle", err)
	}
}

// TestViewRejectsReceiveThatSent pins the second half of the fresh-sink
// check: a message into a frontier event that has already sent closes a
// cycle (a -> c, then c -> a), so View must refuse it while Build reports
// the cycle.
func TestViewRejectsReceiveThatSent(t *testing.T) {
	b := NewBuilder(2)
	a := b.Append(0)
	c := b.Append(1)
	if err := b.Message(a, c); err != nil {
		t.Fatal(err)
	}
	if _, err := b.View(); err != nil {
		t.Fatalf("View after a fresh-sink message: %v", err)
	}
	if err := b.Message(c, a); err != nil {
		t.Fatal(err)
	}
	if _, err := b.View(); !errors.Is(err, ErrViewUnsafe) {
		t.Fatalf("View: got %v, want ErrViewUnsafe", err)
	}
	if _, err := b.Build(); !errors.Is(err, ErrCausalCycle) {
		t.Fatalf("Build: got %v, want ErrCausalCycle", err)
	}
}

func TestMustBuildPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustBuild did not panic on cyclic execution")
		}
	}()
	b := NewBuilder(2)
	a1 := b.Append(0)
	b1 := b.Append(1)
	a2 := b.Append(0)
	b2 := b.Append(1)
	_ = b.Message(a2, b1)
	_ = b.Message(b2, a1)
	b.MustBuild()
}

func TestLinearExtension(t *testing.T) {
	ex := diamond(t)
	order := ex.LinearExtension()
	if len(order) != ex.NumEvents() {
		t.Fatalf("extension has %d events, want %d", len(order), ex.NumEvents())
	}
	rank := make(map[EventID]int, len(order))
	for i, e := range order {
		rank[e] = i
	}
	for _, a := range ex.RealEvents() {
		for _, b := range ex.RealEvents() {
			if ex.Precedes(a, b) && rank[a] >= rank[b] {
				t.Errorf("linear extension violates %v ≺ %v", a, b)
			}
		}
	}
}

func TestRealAndAllEvents(t *testing.T) {
	ex := diamond(t)
	real := ex.RealEvents()
	if len(real) != 6 {
		t.Fatalf("RealEvents len = %d, want 6", len(real))
	}
	for i := 1; i < len(real); i++ {
		if !real[i-1].Less(real[i]) {
			t.Errorf("RealEvents not sorted at %d", i)
		}
	}
	all := ex.AllEvents()
	if len(all) != 6+6 {
		t.Fatalf("AllEvents len = %d, want 12", len(all))
	}
	nb, nt := 0, 0
	for _, e := range all {
		if ex.IsBottom(e) {
			nb++
		}
		if ex.IsTop(e) {
			nt++
		}
	}
	if nb != 3 || nt != 3 {
		t.Errorf("dummy counts = (%d,%d), want (3,3)", nb, nt)
	}
}

func TestStats(t *testing.T) {
	ex := diamond(t)
	s := ex.Stats()
	if s.Procs != 3 || s.Events != 6 || s.Messages != 2 || s.MaxPerind != 2 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestEmptyExecution(t *testing.T) {
	ex, err := NewBuilder(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumEvents() != 0 {
		t.Fatalf("empty execution has events")
	}
	if !ex.Precedes(ex.Bottom(0), ex.Top(1)) {
		t.Errorf("⊥ ≺ ⊤ must hold even with no real events")
	}
	if got := len(ex.LinearExtension()); got != 0 {
		t.Errorf("linear extension of empty execution has %d events", got)
	}
}

// randomExecution builds a random but valid execution: events are appended in
// a global round-robin-ish order and messages only go from already-placed
// events to fresh receives, which guarantees acyclicity by construction.
func randomExecution(r *rand.Rand, procs, events int, msgProb float64) *Execution {
	b := NewBuilder(procs)
	lastOn := make([]EventID, procs) // zero Pos means none yet
	for i := 0; i < events; i++ {
		p := r.Intn(procs)
		if r.Float64() < msgProb && procs > 1 {
			q := r.Intn(procs - 1)
			if q >= p {
				q++
			}
			if lastOn[q].Pos > 0 {
				recv := b.Append(p)
				if err := b.Message(lastOn[q], recv); err != nil {
					panic(err)
				}
				lastOn[p] = recv
				continue
			}
		}
		lastOn[p] = b.Append(p)
	}
	return b.MustBuild()
}

func TestPrecedesPartialOrderProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		ex := randomExecution(r, 2+r.Intn(4), 5+r.Intn(20), 0.4)
		evs := ex.AllEvents()
		for _, a := range evs {
			if ex.Precedes(a, a) {
				t.Fatalf("irreflexivity violated at %v", a)
			}
			for _, b := range evs {
				if ex.Precedes(a, b) && ex.Precedes(b, a) {
					t.Fatalf("antisymmetry violated at %v,%v", a, b)
				}
				for _, c := range evs {
					if ex.Precedes(a, b) && ex.Precedes(b, c) && !ex.Precedes(a, c) {
						t.Fatalf("transitivity violated: %v ≺ %v ≺ %v", a, b, c)
					}
				}
			}
		}
	}
}

func TestEventIDLessIsTotalOrder(t *testing.T) {
	f := func(p1, p2 int8, q1, q2 int8) bool {
		a := EventID{Proc: int(p1), Pos: int(q1)}
		b := EventID{Proc: int(p2), Pos: int(q2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessageAdjacency(t *testing.T) {
	ex := diamond(t)
	a1 := EventID{0, 1}
	b1 := EventID{1, 1}
	succ := ex.MsgSuccessors(a1)
	if len(succ) != 1 || succ[0] != b1 {
		t.Errorf("MsgSuccessors(a1) = %v, want [b1]", succ)
	}
	pred := ex.MsgPredecessors(b1)
	if len(pred) != 1 || pred[0] != a1 {
		t.Errorf("MsgPredecessors(b1) = %v, want [a1]", pred)
	}
	if got := ex.MsgSuccessors(EventID{2, 1}); len(got) != 0 {
		t.Errorf("c1 has unexpected successors %v", got)
	}
}

func TestSmallAccessors(t *testing.T) {
	b := NewBuilder(2)
	if b.NumProcs() != 2 {
		t.Errorf("Builder.NumProcs = %d", b.NumProcs())
	}
	b.Append(0)
	ex := b.MustBuild()
	if ex.NumProcs() != 2 {
		t.Errorf("Execution.NumProcs = %d", ex.NumProcs())
	}
	if ex.TopPos(0) != 2 || ex.TopPos(1) != 1 {
		t.Errorf("TopPos = %d,%d", ex.TopPos(0), ex.TopPos(1))
	}
}

func TestAppendNPanicsOnNonPositive(t *testing.T) {
	b := NewBuilder(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("AppendN(0) did not panic")
		}
	}()
	b.AppendN(0, 0)
}
