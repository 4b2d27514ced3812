package online

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/vclock"
)

// phaseConditions builds a condition set over consecutive phase pairs of a
// generated workload, mixing relation atoms, negation, disjunction, and the
// conditional form so the differential runs exercise the full DSL surface.
func phaseConditions(phases []sim.Phase) [][2]string {
	var conds [][2]string
	for i := 0; i+1 < len(phases); i++ {
		a, b := phases[i].Name, phases[i+1].Name
		conds = append(conds,
			[2]string{fmt.Sprintf("fwd-%d", i), fmt.Sprintf("R1(%s, %s)", a, b)},
			[2]string{fmt.Sprintf("bwd-%d", i), fmt.Sprintf("R1(%s, %s)", b, a)},
			[2]string{fmt.Sprintf("mix-%d", i), fmt.Sprintf("R2(%s, %s) || !R3(%s, %s)", a, b, a, b)},
			[2]string{fmt.Sprintf("imp-%d", i), fmt.Sprintf("R1(%s, %s) -> R2'(%s, %s)", a, b, a, b)},
		)
	}
	return conds
}

// driveMonitored replays a generated workload event by event onto a fresh
// stream + online monitor, observing every event into its phase interval,
// completing each phase as its last event arrives, and calling Poll after
// every event. It returns the per-event verdict trace (one rendered line per
// appended event, listing every condition in registration order with the
// verdict Poll delivered for it, Pending until then), a rendering of every
// real event's forward and reverse timestamps at the final snapshot, and the
// rendered StrongestBetween answer for every consecutive phase pair. A second
// delivery of a name fails the replay.
func driveMonitored(t testing.TB, res *sim.Result, conds [][2]string) (trace []string, clocks string, strongest []string) {
	t.Helper()
	s := NewStream(res.Exec.NumProcs())
	m := NewMonitor(s)
	for _, c := range conds {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			t.Fatalf("AddCondition(%q): %v", c[0], err)
		}
	}
	phaseOf := make(map[poset.EventID]int)
	remaining := make([]int, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	delivered := make(map[string]monitor.Result, len(conds))
	line := make([]monitor.Result, len(conds))
	if _, err := ReplayStepsOn(s, res.Exec, func(_ *Stream, e poset.EventID) error {
		if pi, ok := phaseOf[e]; ok {
			if err := m.Observe(res.Phases[pi].Name, e); err != nil {
				return err
			}
			remaining[pi]--
			if remaining[pi] == 0 {
				if err := m.Complete(res.Phases[pi].Name); err != nil {
					return err
				}
			}
		}
		for _, r := range m.Poll() {
			if _, dup := delivered[r.Name]; dup {
				return fmt.Errorf("condition %s delivered twice", r.Name)
			}
			delivered[r.Name] = r
		}
		for i, c := range conds {
			r, ok := delivered[c[0]]
			if !ok {
				r = monitor.Result{Name: c[0], State: monitor.Pending}
			}
			line[i] = r
		}
		trace = append(trace, renderResults(line))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}

	snap := s.Snapshot()
	var cl strings.Builder
	for _, e := range snap.Exec.RealEvents() {
		fmt.Fprintf(&cl, "%v T=%v TR=%v\n", e, snap.Analysis.Clocks().T(e), snap.Analysis.Clocks().TR(e))
	}
	clocks = cl.String()

	for i := 0; i+1 < len(res.Phases); i++ {
		rels, err := m.StrongestBetween(res.Phases[i].Name, res.Phases[i+1].Name)
		strongest = append(strongest, fmt.Sprintf("%v/%v", rels, err))
	}
	return trace, clocks, strongest
}

// referenceRun derives what driveMonitored must report, cold from the
// finished execution and independent of the online code: verdicts from the
// offline monitor over every phase, each shown as Pending until the replay
// (the same linear extension) has completed every phase the condition
// references; clocks from vclock.New; StrongestBetween from offline
// HeldTable1 followed by hierarchy.Strongest. By verdict stability an online
// verdict, once reached, equals the offline one.
func referenceRun(t testing.TB, res *sim.Result, conds [][2]string) (trace []string, clocks string, strongest []string) {
	t.Helper()
	off := monitor.New(res.Exec)
	remaining := make(map[string]int, len(res.Phases))
	phaseOf := make(map[poset.EventID]string)
	for _, ph := range res.Phases {
		if err := off.Define(ph.Name, ph.Events); err != nil {
			t.Fatalf("offline Define(%q): %v", ph.Name, err)
		}
		remaining[ph.Name] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = ph.Name
		}
	}
	for _, c := range conds {
		if err := off.AddCondition(c[0], c[1]); err != nil {
			t.Fatalf("offline AddCondition(%q): %v", c[0], err)
		}
	}
	final := off.Check()
	conditions := off.Conditions()
	line := make([]monitor.Result, len(final))
	for _, e := range res.Exec.LinearExtension() {
		if name, ok := phaseOf[e]; ok {
			remaining[name]--
		}
		for i, c := range conditions {
			line[i] = final[i]
			for _, ref := range c.Refs() {
				if remaining[ref] > 0 {
					line[i] = monitor.Result{Name: c.Name, State: monitor.Pending}
					break
				}
			}
		}
		trace = append(trace, renderResults(line))
	}

	cold := vclock.New(res.Exec)
	var cl strings.Builder
	for _, e := range res.Exec.RealEvents() {
		fmt.Fprintf(&cl, "%v T=%v TR=%v\n", e, cold.T(e), cold.TR(e))
	}
	clocks = cl.String()

	for i := 0; i+1 < len(res.Phases); i++ {
		held, err := off.HeldTable1(res.Phases[i].Name, res.Phases[i+1].Name)
		var rels []core.Relation
		if err == nil {
			rels = hierarchy.Strongest(held)
		}
		strongest = append(strongest, fmt.Sprintf("%v/%v", rels, err))
	}
	return trace, clocks, strongest
}

// diffRuns drives one workload through the online monitor and fails on any
// divergence from referenceRun: per-event verdict traces, final clock
// tables, and StrongestBetween answers must be byte-identical.
func diffRuns(t testing.TB, res *sim.Result, label string) {
	t.Helper()
	if len(res.Phases) < 2 {
		t.Fatalf("%s: workload has %d phases; need at least 2", label, len(res.Phases))
	}
	conds := phaseConditions(res.Phases)
	incTrace, incClocks, incStrong := driveMonitored(t, res, conds)
	refTrace, refClocks, refStrong := referenceRun(t, res, conds)
	if len(incTrace) != len(refTrace) {
		t.Fatalf("%s: trace lengths differ: online %d, reference %d", label, len(incTrace), len(refTrace))
	}
	for i := range incTrace {
		if incTrace[i] != refTrace[i] {
			t.Fatalf("%s: verdicts diverge at event %d:\nonline:    %s\nreference: %s", label, i, incTrace[i], refTrace[i])
		}
	}
	if incClocks != refClocks {
		t.Errorf("%s: final clock tables diverge from vclock.New:\nonline:\n%s\noffline:\n%s", label, incClocks, refClocks)
	}
	for i := range incStrong {
		if incStrong[i] != refStrong[i] {
			t.Errorf("%s: StrongestBetween(%d) diverges: online %s, reference %s", label, i, incStrong[i], refStrong[i])
		}
	}
}

// TestIncrementalSnapshotAgreement is the differential anchor of the
// incremental hot path: across every structured workload pattern and a
// spread of seeds, the online monitor must produce byte-identical verdict
// traces, clock tables, and StrongestBetween answers to a cold offline
// reference over the finished execution (referenceRun).
func TestIncrementalSnapshotAgreement(t *testing.T) {
	for _, pat := range sim.Patterns() {
		if pat == sim.Random {
			continue // no phases; covered by the faultsim chaos suite
		}
		for seed := int64(0); seed < 4; seed++ {
			res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 5, Seed: seed})
			if err != nil {
				t.Fatalf("%v/seed=%d: %v", pat, seed, err)
			}
			if len(res.Phases) < 2 {
				continue
			}
			diffRuns(t, res, fmt.Sprintf("%v/seed=%d", pat, seed))
		}
	}
}

// FuzzIncrementalSnapshotAgreement lets the fuzzer search the workload
// space (pattern × size × seed) for any divergence between the online
// monitor and the offline reference.
func FuzzIncrementalSnapshotAgreement(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(3))
	f.Add(int64(7), uint8(5), uint8(3), uint8(2))
	f.Add(int64(42), uint8(7), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, pat, procs, rounds uint8) {
		pats := sim.Patterns()
		p := pats[int(pat)%len(pats)]
		if p == sim.Random {
			p = sim.Ring
		}
		cfg := sim.Config{
			Pattern: p,
			Procs:   2 + int(procs)%5,
			Rounds:  1 + int(rounds)%5,
			Seed:    seed,
		}
		res, err := sim.Generate(cfg)
		if err != nil || len(res.Phases) < 2 {
			t.Skip()
		}
		diffRuns(t, res, fmt.Sprintf("%v/procs=%d/rounds=%d/seed=%d", p, cfg.Procs, cfg.Rounds, seed))
	})
}

// TestStreamAllocsPerEvent pins the append hot path's allocation budget:
// forward clocks and first-follower cells live in flat per-process tables
// that grow by amortized doubling, so the steady-state cost must stay well
// under one allocation per event (a path that allocates each event's clock
// pays at least one per event).
func TestStreamAllocsPerEvent(t *testing.T) {
	const procs, rounds = 8, 512
	s := NewStream(procs)
	// Warm up so slice-growth reallocations of the early doublings don't
	// dominate the measurement.
	ring := func(n int) {
		for r := 0; r < n; r++ {
			for i := 0; i < procs; i++ {
				send, err := s.Send(i)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Recv((i+1)%procs, send); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ring(rounds / 4)
	events := rounds * procs * 2
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ring(rounds)
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	t.Logf("allocs/event = %.3f over %d events", perEvent, events)
	if perEvent > 0.5 {
		t.Errorf("append hot path allocates %.3f objects/event; want <= 0.5", perEvent)
	}
}

// TestColdCutBuildAllocs pins the cut fold's allocation budget: a cold
// Analysis.Cuts build on stream clocks folds the four Table 2 cuts in place
// (forward rows read shared, reverse timestamps through one scratch row per
// up fold), so it makes the same fixed number of allocations whatever |P|
// and |N_X|.
func TestColdCutBuildAllocs(t *testing.T) {
	allocs := func(procs int) float64 {
		s := NewStream(procs)
		var lap []poset.EventID // the middle of three ring laps: |N_X| = procs
		for r := 0; r < 3; r++ {
			for i := 0; i < procs; i++ {
				send, err := s.Send(i)
				if err != nil {
					t.Fatal(err)
				}
				recv, err := s.Recv((i+1)%procs, send)
				if err != nil {
					t.Fatal(err)
				}
				if r == 1 {
					lap = append(lap, send, recv)
				}
			}
		}
		snap := s.Snapshot()
		iv := interval.MustNew(snap.Exec, lap)
		if iv.NodeCount() != procs {
			t.Fatalf("|N_X| = %d; want %d", iv.NodeCount(), procs)
		}
		return testing.AllocsPerRun(20, func() {
			core.NewAnalysisClocks(snap.Exec, snap.Analysis.Clocks()).Cuts(iv)
		})
	}
	small, large := allocs(8), allocs(32)
	t.Logf("allocs per cold build: %.0f at |P| = |N_X| = 8, %.0f at 32", small, large)
	if small != large {
		t.Errorf("cold cut build allocates %.0f objects at |P| = |N_X| = 8 but %.0f at 32; want a fixed count", small, large)
	}
}

// TestSnapshotCounters pins the snapshot accounting: constructions count as
// online.snapshots, cached hits as online.snapshot_reuses.
func TestSnapshotCounters(t *testing.T) {
	reg := obs.New()
	s := NewStream(2)
	s.Instrument(reg, nil)
	if _, err := s.Local(0); err != nil {
		t.Fatal(err)
	}
	s.Snapshot()
	s.Snapshot()
	if _, err := s.Local(1); err != nil {
		t.Fatal(err)
	}
	s.Snapshot()
	reuses := reg.Counter("online.snapshot_reuses").Value()
	snaps := reg.Counter("online.snapshots").Value()
	if reuses != 1 || snaps != 2 {
		t.Errorf("got reuses=%d snapshots=%d; want 1/2", reuses, snaps)
	}
}

// TestMonitorCheckWindow pins what monitor.check_ns measures: settling
// passes, not calls. A Poll with nothing ready records no sample, also when
// a retention appraisal runs in it; each Poll that settles records exactly
// one, however many conditions it settles.
func TestMonitorCheckWindow(t *testing.T) {
	reg := obs.New()
	s := NewStream(2)
	m := NewMonitor(s)
	m.Instrument(reg)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 64, Every: 1}); err != nil {
		t.Fatal(err)
	}
	samples := func() int64 { return reg.Snapshot().Windows["monitor.check_ns"].Count }
	if err := m.AddCondition("c", "R1(A, B)"); err != nil {
		t.Fatal(err)
	}
	m.Poll()
	m.Poll()
	for i, name := range []string{"A", "B"} {
		e, err := s.Local(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(name, e); err != nil {
			t.Fatal(err)
		}
		// One more event puts the cadence due at the Poll, not the Observe.
		if _, err := s.Local(i); err != nil {
			t.Fatal(err)
		}
		if got := m.Poll(); len(got) != 0 {
			t.Fatalf("Poll with %s growing = %+v; want nothing settled", name, got)
		}
		if m.lastAppraise != s.TotalEvents() {
			t.Fatalf("Poll ran no appraisal: last one at %d of %d events", m.lastAppraise, s.TotalEvents())
		}
	}
	if got := samples(); got != 0 {
		t.Fatalf("monitor.check_ns count = %d after empty Polls; want 0", got)
	}
	for _, name := range []string{"A", "B"} {
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Poll(); len(got) != 1 {
		t.Fatalf("settling Poll = %+v; want c settled", got)
	}
	m.Poll()
	if got := samples(); got != 1 {
		t.Fatalf("monitor.check_ns count = %d after one settling Poll; want 1", got)
	}
	for _, name := range []string{"d", "e"} {
		if err := m.AddCondition(name, "R4(A, B)"); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Poll(); len(got) != 2 {
		t.Fatalf("settling Poll = %+v; want d and e settled", got)
	}
	if got := samples(); got != 2 {
		t.Errorf("monitor.check_ns count = %d after two settling Polls; want 2", got)
	}
}

// TestSettlingPassReadsClockOnce pins that a settling pass reads the monitor
// clock once, however many conditions it settles: every settlement in the
// pass takes that instant, so all three detection latencies are equal.
func TestSettlingPassReadsClockOnce(t *testing.T) {
	reg := obs.New()
	s := NewStream(2)
	m := NewMonitor(s)
	m.Instrument(reg)
	base := time.Unix(1_700_000_000, 0)
	reads := 0
	m.SetNow(func() time.Time {
		reads++
		return base.Add(time.Duration(reads) * time.Millisecond)
	})
	for p, name := range []string{"A", "B"} {
		e, err := s.Local(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(name, e); err != nil {
			t.Fatal(err)
		}
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"c1", "c2", "c3"} {
		if err := m.AddCondition(name, "R4(A, B)"); err != nil {
			t.Fatal(err)
		}
	}
	before := reads
	if got := m.Poll(); len(got) != 3 {
		t.Fatalf("Poll = %+v; want three settled", got)
	}
	if got := reads - before; got != 1 {
		t.Errorf("a Poll settling three conditions read the monitor clock %d times; want 1", got)
	}
	// B completed at the second read, the pass read the third: 1 ms each.
	if w := reg.Snapshot().Windows["online.detect_latency_ns"]; w.Count != 3 || w.Sum != 3*time.Millisecond.Nanoseconds() {
		t.Errorf("detection latency window = %+v; want three samples of 1ms", w)
	}
}
