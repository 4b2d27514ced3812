package online

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/poset"
	"causet/internal/poset/posettest"
	"causet/internal/sim"
	"causet/internal/vclock"
)

func TestStreamClocksMatchOffline(t *testing.T) {
	// Drive a random-ish interleaving through the stream, then compare the
	// online clocks with a full offline vclock pass over the snapshot.
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		procs := 2 + r.Intn(4)
		s := NewStream(procs)
		var sends []poset.EventID
		for i := 0; i < 30; i++ {
			p := r.Intn(procs)
			switch {
			case len(sends) > 0 && r.Float64() < 0.35:
				send := sends[r.Intn(len(sends))]
				if send.Proc == p {
					if _, err := s.Local(p); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if _, err := s.Recv(p, send); err != nil {
					t.Fatal(err)
				}
			case r.Float64() < 0.5:
				e, err := s.Send(p)
				if err != nil {
					t.Fatal(err)
				}
				sends = append(sends, e)
			default:
				if _, err := s.Local(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap := s.Snapshot()
		offline := vclock.New(snap.Exec)
		for _, e := range snap.Exec.RealEvents() {
			got, err := s.Clock(e)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(offline.T(e)) {
				t.Fatalf("trial %d: online clock of %v = %v, offline %v", trial, e, got, offline.T(e))
			}
			for _, f := range snap.Exec.RealEvents() {
				onl, err := s.Precedes(e, f)
				if err != nil {
					t.Fatal(err)
				}
				if onl != snap.Exec.Precedes(e, f) {
					t.Fatalf("trial %d: online Precedes(%v,%v) = %v disagrees with oracle", trial, e, f, onl)
				}
			}
		}
	}
}

func TestStreamErrors(t *testing.T) {
	s := NewStream(2)
	if _, err := s.Local(5); !errors.Is(err, ErrBadProc) {
		t.Errorf("Local(5): %v", err)
	}
	if _, err := s.Recv(0, poset.EventID{Proc: 1, Pos: 3}); !errors.Is(err, ErrUnknownSend) {
		t.Errorf("Recv of unknown send: %v", err)
	}
	send, err := s.Send(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(0, send); !errors.Is(err, ErrSelfMessage) {
		t.Errorf("self message: %v", err)
	}
	if _, err := s.Recv(1); !errors.Is(err, ErrUnknownSend) {
		t.Errorf("Recv of no send: %v", err)
	}
	// A bad send anywhere in the list records nothing, not even the edges
	// of the good ones before it.
	if _, err := s.Recv(1, send, poset.EventID{Proc: 0, Pos: 7}); !errors.Is(err, ErrUnknownSend) {
		t.Errorf("Recv with one unknown send: %v", err)
	}
	if got := s.Counts(); !slices.Equal(got, []int{1, 0}) || len(s.Snapshot().Exec.Messages()) != 0 {
		t.Errorf("failed Recv changed the stream: counts %v, messages %v", got, s.Snapshot().Exec.Messages())
	}
	if _, err := s.Clock(poset.EventID{Proc: 0, Pos: 9}); err == nil {
		t.Errorf("Clock of unrecorded event succeeded")
	}
	if _, err := s.Precedes(send, poset.EventID{Proc: 1, Pos: 1}); err == nil {
		t.Errorf("Precedes with unrecorded event succeeded")
	}
	if ok, err := s.Precedes(send, send); err != nil || ok {
		t.Errorf("Precedes(e,e) = %v, %v", ok, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("NewStream(0) did not panic")
			}
		}()
		NewStream(0)
	}()
}

func TestSnapshotCachingAndImmutability(t *testing.T) {
	s := NewStream(2)
	e0, _ := s.Send(0)
	if _, err := s.Recv(1, e0); err != nil {
		t.Fatal(err)
	}
	snap1 := s.Snapshot()
	if snap2 := s.Snapshot(); snap1 != snap2 {
		t.Errorf("snapshot not cached between appends")
	}
	if _, err := s.Local(0); err != nil {
		t.Fatal(err)
	}
	snap3 := s.Snapshot()
	if snap3 == snap1 {
		t.Errorf("snapshot not invalidated by append")
	}
	// The old snapshot must not see the new event.
	if snap1.Exec.NumEvents() != 2 || snap3.Exec.NumEvents() != 3 {
		t.Errorf("snapshot sizes: %d then %d", snap1.Exec.NumEvents(), snap3.Exec.NumEvents())
	}
}

// TestVerdictStability is the package's load-bearing property: once the
// events of two intervals are recorded, every relation verdict computed on
// any later snapshot equals the verdict on the final execution.
func TestVerdictStability(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 15; trial++ {
		procs := 3 + r.Intn(3)
		s := NewStream(procs)
		var all []poset.EventID
		var sends []poset.EventID
		step := func() {
			p := r.Intn(procs)
			if len(sends) > 0 && r.Float64() < 0.4 {
				send := sends[r.Intn(len(sends))]
				if send.Proc != p {
					e, err := s.Recv(p, send)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, e)
					return
				}
			}
			e, err := s.Send(p)
			if err != nil {
				t.Fatal(err)
			}
			sends = append(sends, e)
			all = append(all, e)
		}
		for i := 0; i < 20; i++ {
			step()
		}
		// Pick disjoint intervals from the prefix.
		perm := r.Perm(len(all))
		x := []poset.EventID{all[perm[0]], all[perm[1]]}
		y := []poset.EventID{all[perm[2]], all[perm[3]]}

		record := func(snap *Snapshot) map[core.Relation]bool {
			ivX := interval.MustNew(snap.Exec, x)
			ivY := interval.MustNew(snap.Exec, y)
			fast := core.NewFast(snap.Analysis)
			out := make(map[core.Relation]bool)
			for _, rel := range core.Relations() {
				out[rel] = fast.Eval(rel, ivX, ivY)
			}
			return out
		}
		first := record(s.Snapshot())
		// Extend the execution substantially and re-evaluate at two more
		// prefixes.
		for i := 0; i < 15; i++ {
			step()
			if i%5 == 4 {
				later := record(s.Snapshot())
				for rel, v := range first {
					if later[rel] != v {
						t.Fatalf("trial %d: verdict of %v changed from %v to %v after %d more events",
							trial, rel, v, later[rel], i+1)
					}
				}
			}
		}
	}
}

func TestOnlineMonitorLifecycle(t *testing.T) {
	s := NewStream(3)
	m := NewMonitor(s)
	if err := m.AddCondition("handoff", "R1(phase-a, phase-b)"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCondition("handoff", "R4(phase-a, phase-b)"); err == nil {
		t.Errorf("duplicate condition accepted")
	}
	if err := m.AddCondition("bad", "R1(x"); err == nil {
		t.Errorf("syntax error accepted")
	}
	// Nothing observed yet → nothing settles.
	if res := m.Poll(); len(res) != 0 {
		t.Fatalf("Poll = %v, want nothing settled", res)
	}

	a1, _ := s.Send(0)
	if err := m.Observe("phase-a", a1); err != nil {
		t.Fatal(err)
	}
	b1, err := s.Recv(1, a1)
	if err != nil {
		t.Fatal(err)
	}
	// phase-a observed but not complete → still pending.
	if res := m.Poll(); len(res) != 0 {
		t.Fatalf("Poll = %v, want nothing settled", res)
	}
	if err := m.Complete("phase-a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("phase-a", b1); err == nil {
		t.Errorf("Observe after Complete accepted")
	}
	if err := m.Observe("phase-b", b1); err != nil {
		t.Fatal(err)
	}
	b2, _ := s.Local(1)
	if err := m.Observe("phase-b", b2); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("phase-b"); err != nil {
		t.Fatal(err)
	}
	res := m.Poll()
	if len(res) != 1 || res[0].Name != "handoff" || res[0].State != monitor.Holds {
		t.Fatalf("Poll = %+v, want handoff holds", res)
	}
	// The verdict is delivered once: extending the stream does not
	// re-deliver it, and the settled name stays taken.
	if _, err := s.Local(2); err != nil {
		t.Fatal(err)
	}
	if res2 := m.Poll(); len(res2) != 0 {
		t.Fatalf("second Poll = %v, want nothing", res2)
	}
	if err := m.AddCondition("handoff", "R4(phase-a, phase-b)"); err == nil {
		t.Errorf("settled condition name accepted again")
	}

	names := m.CompletedIntervals()
	if len(names) != 2 || names[0] != "phase-a" || names[1] != "phase-b" {
		t.Errorf("CompletedIntervals = %v", names)
	}
}

func TestOnlineMonitorErrors(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	if err := m.Observe("", poset.EventID{}); err == nil {
		t.Errorf("empty name accepted")
	}
	if err := m.Complete("ghost"); err == nil {
		t.Errorf("Complete of unobserved interval accepted")
	}
	if err := m.Observe("empty-proof", poset.EventID{Proc: 0, Pos: 1}); err != nil {
		t.Fatal(err)
	}
	// The event was never recorded on the stream: evaluation must fail, not
	// silently pass.
	if err := m.Complete("empty-proof"); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("empty-proof"); err == nil || !strings.Contains(err.Error(), "already complete") {
		t.Errorf("second Complete: err = %v, want already complete", err)
	}
	if err := m.AddCondition("c", "R4(empty-proof, empty-proof)"); err != nil {
		t.Fatal(err)
	}
	res := m.Poll()
	if len(res) != 1 || res[0].State != monitor.Failed || res[0].Err == nil {
		t.Fatalf("bogus interval: state = %v err = %v, want failed", res[0].State, res[0].Err)
	}
}

func TestStrongestBetween(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	a, _ := s.Send(0)
	b, err := s.Recv(1, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("first", a); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("second", b); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StrongestBetween("first", "second"); err == nil {
		t.Errorf("StrongestBetween before completion succeeded")
	}
	if err := m.Complete("first"); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("second"); err != nil {
		t.Fatal(err)
	}
	rels, err := m.StrongestBetween("first", "second")
	if err != nil {
		t.Fatal(err)
	}
	// a ≺ b and both singletons: R1 holds, so R1 is the unique maximum.
	if len(rels) != 1 || rels[0] != core.R1 {
		t.Errorf("StrongestBetween = %v, want [R1]", rels)
	}
	back, err := m.StrongestBetween("second", "first")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Errorf("reverse direction should hold nothing, got %v", back)
	}
	if _, err := m.StrongestBetween("first", "nope"); err == nil {
		t.Errorf("unknown interval accepted")
	}
}

// TestOverlappingOperands pins the online monitor's overlap semantics: the
// relations assume disjoint nonatomic events, so a condition over two
// completed intervals that share an event settles Failed with
// *core.ErrOverlap, and StrongestBetween rejects the pair the same way.
func TestOverlappingOperands(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	a, _ := s.Send(0)
	b, err := s.Recv(1, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("both", a, b); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("tail", b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"both", "tail"} {
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddCondition("shared", "R4(both, tail)"); err != nil {
		t.Fatal(err)
	}
	var ov *core.ErrOverlap
	res := m.Poll()
	if len(res) != 1 || res[0].State != monitor.Failed || !errors.As(res[0].Err, &ov) {
		t.Fatalf("Poll = %+v, want one Failed result with *core.ErrOverlap", res)
	}
	if _, err := m.StrongestBetween("both", "tail"); !errors.As(err, &ov) {
		t.Errorf("StrongestBetween over overlapping intervals: err = %v, want *core.ErrOverlap", err)
	}
}

func TestStreamConcurrent(t *testing.T) {
	s := NewStream(4)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Local(p); err != nil {
					t.Errorf("Local: %v", err)
					return
				}
				if i%10 == 0 {
					s.Snapshot()
				}
			}
		}(p)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Exec.NumEvents() != 200 {
		t.Fatalf("events = %d, want 200", snap.Exec.NumEvents())
	}
}

// TestReplayMultiReceive: an event that receives two messages replays as
// one receive that merges both senders, and the replayed stream gives the
// offline monitor's verdicts, vclock.New's clocks and the offline strongest
// relations.
func TestReplayMultiReceive(t *testing.T) {
	b := poset.NewBuilder(3)
	for i := 0; i < 4; i++ {
		b.Append(0)
	}
	s1 := b.Append(1)
	s2 := b.Append(2)
	last := b.Append(0)
	for _, from := range []poset.EventID{s1, s2} {
		if err := b.Message(from, last); err != nil {
			t.Fatal(err)
		}
	}
	res := &sim.Result{Exec: b.MustBuild(), Phases: []sim.Phase{
		{Name: "early", Events: []poset.EventID{{Proc: 0, Pos: 1}, {Proc: 0, Pos: 2}}},
		{Name: "senders", Events: []poset.EventID{s1, s2}},
		{Name: "last", Events: []poset.EventID{last}},
	}}
	diffRuns(t, res, "multi-receive")
	s, err := Replay(res.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Exec.MsgPredecessors(last); !slices.Equal(got, []poset.EventID{s1, s2}) {
		t.Errorf("replayed %v receives from %v, want [%v %v]", last, got, s1, s2)
	}
}

// TestReplayMatchesOriginal: replaying any execution through a Stream
// reproduces its structure and clocks exactly, for posettest's random
// executions and for random DAGs, whose events receive several messages,
// send several, and relay.
func TestReplayMatchesOriginal(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	for trial := 0; trial < 40; trial++ {
		var ex *poset.Execution
		if trial < 20 {
			ex = posettest.Random(r, 2+r.Intn(4), 5+r.Intn(25), 0.5)
		} else {
			ex = posettest.RandomDAG(r, 2+r.Intn(4), 5+r.Intn(40), r.Intn(60)).MustBuild()
		}
		s, err := Replay(ex)
		if err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		if snap.Exec.NumEvents() != ex.NumEvents() || len(snap.Exec.Messages()) != len(ex.Messages()) {
			t.Fatalf("trial %d: shape mismatch after replay", trial)
		}
		offline := vclock.New(ex)
		for _, e := range ex.RealEvents() {
			got, err := s.Clock(e)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(offline.T(e)) {
				t.Fatalf("trial %d: clock of %v = %v, offline %v", trial, e, got, offline.T(e))
			}
		}
		// Relation verdicts agree between original and replayed executions.
		xe, ye := posettest.DisjointIntervals(r, ex, 4)
		if xe == nil {
			continue
		}
		a1 := core.NewAnalysis(ex)
		f1 := core.NewFast(a1)
		x1 := interval.MustNew(ex, xe)
		y1 := interval.MustNew(ex, ye)
		x2 := interval.MustNew(snap.Exec, xe)
		y2 := interval.MustNew(snap.Exec, ye)
		f2 := core.NewFast(snap.Analysis)
		for _, rel := range core.Relations() {
			if f1.Eval(rel, x1, y1) != f2.Eval(rel, x2, y2) {
				t.Fatalf("trial %d: %v differs between original and replay", trial, rel)
			}
		}
	}
}

// TestReplaySizesRings: a replay sizes each ring of a stream that no
// retention policy compacts once, for every row its process will hold, so
// no ring grows; under a policy the rings hold a window instead.
func TestReplaySizesRings(t *testing.T) {
	ex := posettest.Random(rand.New(rand.NewSource(17)), 4, 400, 0.5)
	sized := func(s *Stream, e poset.EventID) error {
		if got, want := s.slots[e.Proc], ex.NumReal(e.Proc); got != want {
			t.Fatalf("after %v: ring of %d rows, want %d", e, got, want)
		}
		return nil
	}
	if _, err := ReplaySteps(ex, sized); err != nil {
		t.Fatal(err)
	}
	s := NewStream(ex.NumProcs())
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 8, Every: 4}); err != nil {
		t.Fatal(err)
	}
	poll := func(*Stream, poset.EventID) error { m.Poll(); return nil }
	if _, err := ReplayStepsOn(s, ex, poll); err != nil {
		t.Fatal(err)
	}
	for p := range ex.NumProcs() {
		if s.slots[p] >= ex.NumReal(p) {
			t.Errorf("under a policy, process %d's ring has %d rows for %d events", p, s.slots[p], ex.NumReal(p))
		}
	}
}
