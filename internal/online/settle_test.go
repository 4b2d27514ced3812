package online

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/sim"
)

// summaryCuts returns deep copies of the cuts a settling pass assembles for
// the named completed interval at the current prefix: X, L(X) and U(X).
func summaryCuts(t *testing.T, m *Monitor, name string) [3]core.IntervalCuts {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var ex *poset.Execution
	m.stream.mu.Lock()
	err := m.prepareLocked(&ex, name, true)
	m.stream.mu.Unlock()
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	out := m.scratch[m.ivs[name].slot-1].cuts
	for k, c := range out {
		out[k] = core.IntervalCuts{
			InterDown: c.InterDown.Clone(), UnionDown: c.UnionDown.Clone(),
			InterUp: c.InterUp.Clone(), UnionUp: c.UnionUp.Clone(),
			FirstPos: slices.Clone(c.FirstPos), LastPos: slices.Clone(c.LastPos),
		}
	}
	m.releaseScratchLocked()
	return out
}

// diffCuts reports the first field where got and want differ, or "".
func diffCuts(got, want *core.IntervalCuts) string {
	for _, f := range []struct {
		name      string
		got, want []int
	}{
		{"InterDown", got.InterDown, want.InterDown},
		{"UnionDown", got.UnionDown, want.UnionDown},
		{"InterUp", got.InterUp, want.InterUp},
		{"UnionUp", got.UnionUp, want.UnionUp},
		{"FirstPos", got.FirstPos, want.FirstPos},
		{"LastPos", got.LastPos, want.LastPos},
	} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Sprintf("%s = %v, snapshot %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// TestSettlementFromSummaries pins settlement from per-interval summaries.
// Over a ring replay, a settling Poll takes no snapshot and builds no
// core.Analysis cuts, while its atoms still count on core.fast.* and each
// referenced interval's up rows are filled once however many settling
// conditions share it. Over every
// pattern and seed TestIncrementalSnapshotAgreement uses, after every
// appended event, the cuts settlement assembles for every completed
// interval X, L(X) and U(X) equal Analysis.Cuts and Analysis.ProxyCuts of a
// snapshot taken at the same moment: the Lemma 16 folds over the extremes
// and the ⊤ reading of unset first-follower cells, pinned directly rather
// than through verdicts.
func TestSettlementFromSummaries(t *testing.T) {
	t.Run("no-snapshot", func(t *testing.T) {
		reg := obs.New()
		s := NewStream(3)
		s.Instrument(reg, nil)
		m := NewMonitor(s)
		m.Instrument(reg)
		res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 4, Seed: 1})
		for i := range res.Phases[:len(res.Phases)-1] {
			a, b := res.Phases[i].Name, res.Phases[i+1].Name
			if err := m.AddCondition(fmt.Sprintf("c%d", i), fmt.Sprintf("R1(%s, %s) && !R4(U(%s), L(%s))", a, b, b, a)); err != nil {
				t.Fatal(err)
			}
			if err := m.AddCondition(fmt.Sprintf("d%d", i), fmt.Sprintf("R2(%s, %s) || R3'(U(%s), L(%s))", a, b, a, b)); err != nil {
				t.Fatal(err)
			}
		}
		counter := func(name string) int64 { return reg.Counter(name).Value() }
		settled := 0
		drivePhases(t, s, m, res, func() {
			snaps, builds, evals := counter("online.snapshots"), counter("core.cut_builds"), counter("core.fast.evals")
			out := m.Poll()
			settled += len(out)
			if len(out) == 0 {
				return
			}
			if d := counter("online.snapshots") - snaps; d != 0 {
				t.Errorf("settling Poll took %d snapshots; want 0", d)
			}
			if d := counter("core.cut_builds") - builds; d != 0 {
				t.Errorf("settling Poll built %d interval cuts; want 0", d)
			}
			if d := counter("core.fast.evals") - evals; d != 2*int64(len(out)) {
				t.Errorf("settling Poll counted %d core.fast.evals for %d two-atom conditions", d, len(out))
			}
			for _, r := range out {
				if r.State != monitor.Holds {
					t.Errorf("%s = %v (%v); successive ring rounds are ordered", r.Name, r.State, r.Err)
				}
			}
		})
		if settled != 2*(len(res.Phases)-1) {
			t.Fatalf("%d of %d conditions settled", settled, 2*(len(res.Phases)-1))
		}
		// Each Poll settled two conditions over the same two intervals and
		// filled each interval's up rows once.
		if len(m.scratch) != 2 {
			t.Errorf("settlement scratch grew to %d entries; want 2, one per interval", len(m.scratch))
		}
	})

	for _, pat := range sim.Patterns() {
		if pat == sim.Random {
			continue
		}
		for seed := int64(0); seed < 4; seed++ {
			res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 5, Seed: seed})
			if err != nil {
				t.Fatalf("%v/seed=%d: %v", pat, seed, err)
			}
			if len(res.Phases) < 2 {
				continue
			}
			s := NewStream(res.Exec.NumProcs())
			m := NewMonitor(s)
			var done []sim.Phase
			compared := 0
			drivePhases(t, s, m, res, func() {
				done = done[:0]
				for _, ph := range res.Phases {
					if iv := m.ivs[ph.Name]; iv != nil && iv.complete {
						done = append(done, ph)
					}
				}
				for _, ph := range done {
					got := summaryCuts(t, m, ph.Name)
					snap := s.Snapshot()
					iv := interval.MustNew(snap.Exec, ph.Events)
					want := [3]*core.IntervalCuts{
						snap.Analysis.Cuts(iv),
						snap.Analysis.ProxyCuts(iv, interval.ProxyL).Cuts,
						snap.Analysis.ProxyCuts(iv, interval.ProxyU).Cuts,
					}
					for k, op := range [3]string{"%s", "L(%s)", "U(%s)"} {
						if d := diffCuts(&got[k], want[k]); d != "" {
							t.Fatalf("%v/seed=%d at %d events: %s: %s", pat, seed,
								snap.Exec.NumEvents(), fmt.Sprintf(op, ph.Name), d)
						}
					}
					compared++
				}
			})
			if compared == 0 {
				t.Fatalf("%v/seed=%d: no completed interval compared", pat, seed)
			}
		}
	}
}

// drivePhases replays res onto s event by event, observing every phase event
// into its phase and completing each phase as its last event arrives, and
// calls after once per appended event.
func drivePhases(t *testing.T, s *Stream, m *Monitor, res *sim.Result, after func()) {
	t.Helper()
	phaseOf := make(map[poset.EventID]int)
	remaining := make([]int, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	if _, err := ReplayStepsOn(s, res.Exec, func(_ *Stream, e poset.EventID) error {
		if pi, ok := phaseOf[e]; ok {
			if err := m.Observe(res.Phases[pi].Name, e); err != nil {
				return err
			}
			if remaining[pi]--; remaining[pi] == 0 {
				if err := m.Complete(res.Phases[pi].Name); err != nil {
					return err
				}
			}
		}
		after()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSettlingPollAllocs pins the allocation budget of a settling Poll: a
// ring of 8 or 32 processes, one R1(round-(r-1), round-r) per lap and no
// retention, so each Poll settles one condition and summarizes one fresh
// interval. Its allocations are the interval's member list and summary,
// one stream view and the returned results, whatever |P|.
func TestSettlingPollAllocs(t *testing.T) {
	for _, procs := range []int{8, 32} {
		s := NewStream(procs)
		m := NewMonitor(s)
		lap := func(r int) {
			name := fmt.Sprintf("round-%d", r)
			if r > 0 {
				if err := m.AddCondition(fmt.Sprintf("c%d", r), fmt.Sprintf("R1(round-%d, %s)", r-1, name)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < procs; i++ {
				send, err := s.Send(i)
				if err != nil {
					t.Fatal(err)
				}
				recv, err := s.Recv((i+1)%procs, send)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Observe(name, send, recv); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Complete(name); err != nil {
				t.Fatal(err)
			}
		}
		const warm, laps = 64, 256
		for r := 0; r < warm; r++ {
			lap(r)
			m.Poll()
		}
		var total uint64
		var m0, m1 runtime.MemStats
		for r := warm; r < warm+laps; r++ {
			lap(r)
			runtime.ReadMemStats(&m0)
			out := m.Poll()
			runtime.ReadMemStats(&m1)
			if len(out) != 1 || out[0].State != monitor.Holds {
				t.Fatalf("lap %d: Poll = %+v; want one Holds", r, out)
			}
			total += m1.Mallocs - m0.Mallocs
		}
		perPoll := float64(total) / laps
		t.Logf("|P| = %d: %.1f allocs per settling Poll", procs, perPoll)
		if perPoll > 12 {
			t.Errorf("|P| = %d: a settling Poll allocates %.1f objects; want <= 12", procs, perPoll)
		}
	}
}

// TestProxyOperandVerdictsMatchOffline settles proxy-operand conditions over
// overlapping and disjoint intervals and demands the offline monitor's
// verdicts and error texts: a proxy's members are its interval's per-node
// extremes, so L(a) and U(a) overlap exactly where a has one event on a
// node, and the overlap report names the materialized proxies.
func TestProxyOperandVerdictsMatchOffline(t *testing.T) {
	s := NewStream(3)
	m := NewMonitor(s)
	a1, _ := s.Send(0)
	a2, _ := s.Local(0)
	b1, err := s.Recv(1, a1)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := s.Send(1)
	c2, err := s.Recv(2, c1)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string][]poset.EventID{"a": {a1, a2, b1}, "b": {b1}, "c": {c1, c2}}
	conds := [][2]string{
		{"self", "R1(L(a), U(a))"},
		{"upper", "R4(U(a), b)"},
		{"lower", "R2(L(a), U(b))"},
		{"apart", "R1(L(a), U(c)) && R4(U(a), L(c))"},
		{"reverse", "R3'(U(c), L(a))"},
	}
	for _, c := range conds {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := m.Observe(name, members[name]...); err != nil {
			t.Fatal(err)
		}
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]monitor.Result)
	for _, r := range m.Poll() {
		got[r.Name] = r
	}
	off := monitor.New(s.Snapshot().Exec)
	for name, evs := range members {
		if err := off.Define(name, evs); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conds {
		if err := off.AddCondition(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	overlapped := 0
	for _, want := range off.Check() {
		if g, w := renderResults([]monitor.Result{got[want.Name]}), renderResults([]monitor.Result{want}); g != w {
			t.Errorf("online %s, offline %s", g, w)
		}
		if want.State == monitor.Failed {
			overlapped++
		}
	}
	if overlapped != 3 {
		t.Errorf("%d conditions failed on overlapping operands; want 3 (self, upper, lower)", overlapped)
	}
}

// TestSettleAfterDirectCompactFails: an interval whose extremes a direct
// Stream.Compact dropped cannot be summarized or have its up rows read.
// The name is poisoned with ErrCompacted and its conditions settle Failed,
// rather than the check loop indexing a dropped row.
func TestSettleAfterDirectCompactFails(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	var evs []poset.EventID
	for i := 0; i < 3; i++ {
		send, _ := s.Send(0)
		recv, err := s.Recv(1, send)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, send, recv)
	}
	observe := func(name string, evs ...poset.EventID) {
		t.Helper()
		if err := m.Observe(name, evs...); err != nil {
			t.Fatal(err)
		}
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	observe("a", evs[0], evs[1])
	observe("b", evs[2], evs[3])
	observe("c", evs[4], evs[5])
	// Summarize b and c while their rows exist, then drop everything but
	// the frontier events.
	if _, err := m.StrongestBetween("b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, n, err := s.Compact([]int{3, 3}); err != nil || n == 0 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	for _, c := range [][2]string{{"built", "R1(a, c)"}, {"filled", "R1(b, c)"}} {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Poll()
	if len(res) != 2 {
		t.Fatalf("Poll = %+v; want two results", res)
	}
	for _, r := range res {
		if r.State != monitor.Failed || !errors.Is(r.Err, ErrCompacted) {
			t.Errorf("%s = %v (%v); want Failed with ErrCompacted", r.Name, r.State, r.Err)
		}
	}
}

// TestSettleFillsLeftOperandsOnly pins that a settling pass fills up rows
// only for the intervals that are the left operand of some ready atom: in
// R1(a, b) && R4(L(a), c) the up cuts of b and c stay nil, for X, L(X) and
// U(X) alike, so a stray read panics instead of reading stale scratch.
func TestSettleFillsLeftOperandsOnly(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	for _, name := range []string{"a", "b", "c"} {
		for p := range 2 {
			e, err := s.Local(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Observe(name, e); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddCondition("x", "R1(a, b) && R4(L(a), c)"); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prepareReadyLocked(m.ready)
	defer m.releaseScratchLocked()
	for name, left := range map[string]bool{"a": true, "b": false, "c": false} {
		for k, c := range m.scratch[m.ivs[name].slot-1].cuts {
			if filled := c.InterUp != nil && c.UnionUp != nil; filled != left {
				t.Errorf("%s cuts[%d]: up rows filled = %v, want %v", name, k, filled, left)
			}
			if c.InterDown == nil || c.UnionDown == nil {
				t.Errorf("%s cuts[%d]: down rows missing", name, k)
			}
		}
	}
}

// TestSettleSpan pins that each settling Poll opens one span on the tracer
// the stream was instrumented with, and a Poll with nothing ready none.
func TestSettleSpan(t *testing.T) {
	s := NewStream(2)
	tr := obs.NewTracer()
	s.Instrument(nil, tr)
	m := NewMonitor(s)
	for _, name := range []string{"a", "b"} {
		send, err := s.Send(0)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := s.Recv(1, send)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(name, send, recv); err != nil {
			t.Fatal(err)
		}
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	m.Poll()
	for _, c := range [][2]string{{"x", "R1(a, b)"}, {"y", "R4(b, a)"}} {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if out := m.Poll(); len(out) != 2 {
		t.Fatalf("Poll = %+v, want two settlements", out)
	}
	m.Poll()
	if n := tr.Len(); n != 1 {
		t.Errorf("tracer holds %d events after one settling pass, want 1", n)
	}
}
