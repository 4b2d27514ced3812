package online

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/sim"
)

// renderResults flattens a settlement delta into one comparable line.
func renderResults(rs []monitor.Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s=%s;", r.Name, r.State)
		if r.Err != nil {
			fmt.Fprintf(&b, "err=%v;", r.Err)
		}
	}
	return b.String()
}

// driveRetained replays a generated workload through a monitor (with the
// given retention policy, or none when nil), polling after every event. It
// returns the per-event settlement trace, the StrongestBetween rendering of
// every adjacent phase pair queried at the moment its second phase completes
// (with retention, intervals are released later — settlement time is when
// the answer must be available), and whether the stream actually compacted.
func driveRetained(t testing.TB, res *sim.Result, conds [][2]string, policy *RetentionPolicy) (trace, strongest []string, compacted bool) {
	t.Helper()
	s := NewStream(res.Exec.NumProcs())
	m := NewMonitor(s)
	if policy != nil {
		if err := m.SetRetention(*policy); err != nil {
			t.Fatalf("SetRetention: %v", err)
		}
	}
	for _, c := range conds {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			t.Fatalf("AddCondition(%q): %v", c[0], err)
		}
	}
	phaseOf := make(map[poset.EventID]int)
	remaining := make([]int, len(res.Phases))
	done := make([]bool, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	if _, err := ReplayStepsOn(s, res.Exec, func(_ *Stream, e poset.EventID) error {
		justDone := -1
		if pi, ok := phaseOf[e]; ok {
			if err := m.Observe(res.Phases[pi].Name, e); err != nil {
				return err
			}
			remaining[pi]--
			if remaining[pi] == 0 {
				if err := m.Complete(res.Phases[pi].Name); err != nil {
					return err
				}
				done[pi] = true
				justDone = pi
			}
		}
		trace = append(trace, renderResults(m.Poll()))
		if justDone >= 0 {
			for _, pair := range [][2]int{{justDone - 1, justDone}, {justDone, justDone + 1}} {
				i, j := pair[0], pair[1]
				if i < 0 || j >= len(res.Phases) || !done[i] || !done[j] {
					continue
				}
				rels, err := m.StrongestBetween(res.Phases[i].Name, res.Phases[j].Name)
				strongest = append(strongest, fmt.Sprintf("%d-%d:%v/%v", i, j, rels, err))
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("replay (retention=%v): %v", policy != nil, err)
	}
	for _, b := range s.CompactedThrough() {
		if b > 0 {
			compacted = true
		}
	}
	return trace, strongest, compacted
}

// diffRetention drives one workload with and without retention and fails on
// any divergence in the settlement trace or the settlement-time
// StrongestBetween answers. Returns whether the retained run compacted.
func diffRetention(t testing.TB, res *sim.Result, label string, policy RetentionPolicy) bool {
	t.Helper()
	conds := phaseConditions(res.Phases)
	bTrace, bStrong, _ := driveRetained(t, res, conds, nil)
	rTrace, rStrong, compacted := driveRetained(t, res, conds, &policy)
	if len(bTrace) != len(rTrace) {
		t.Fatalf("%s: trace lengths differ: baseline %d, retained %d", label, len(bTrace), len(rTrace))
	}
	for i := range bTrace {
		if bTrace[i] != rTrace[i] {
			t.Fatalf("%s: verdicts diverge at event %d:\nbaseline: %s\nretained: %s", label, i, bTrace[i], rTrace[i])
		}
	}
	if len(bStrong) != len(rStrong) {
		t.Fatalf("%s: strongest-pair counts differ: baseline %d, retained %d", label, len(bStrong), len(rStrong))
	}
	for i := range bStrong {
		if bStrong[i] != rStrong[i] {
			t.Errorf("%s: StrongestBetween diverges: baseline %s, retained %s", label, bStrong[i], rStrong[i])
		}
	}
	return compacted
}

// checkTombstones fails when a name has both a live interval record and a
// retirement tombstone. Observe and Complete consult the tombstones only
// when a name has no record, which is sound only while the two never
// coexist; the retention tests call it after every call that may appraise.
func checkTombstones(t testing.TB, m *Monitor) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.ivs {
		if why, ok := m.retired[name]; ok {
			t.Fatalf("interval %q has a live record and a %s tombstone", name, why)
		}
	}
}

// TestCompactionAgreement is the differential anchor of the retention
// subsystem: across workload patterns and seeds, a monitor running under an
// aggressive retention policy must produce byte-identical per-event
// settlement traces and settlement-time StrongestBetween answers to an
// unbounded monitor — compaction must be invisible to verdicts.
func TestCompactionAgreement(t *testing.T) {
	policy := RetentionPolicy{MaxEvents: 24, Every: 8}
	anyCompacted := false
	for _, pat := range sim.Patterns() {
		if pat == sim.Random {
			continue // no phases; covered by the faultsim chaos suite
		}
		for seed := int64(0); seed < 4; seed++ {
			res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 6, Seed: seed})
			if err != nil {
				t.Fatalf("%v/seed=%d: %v", pat, seed, err)
			}
			if len(res.Phases) < 2 {
				continue
			}
			if diffRetention(t, res, fmt.Sprintf("%v/seed=%d", pat, seed), policy) {
				anyCompacted = true
			}
		}
	}
	if !anyCompacted {
		t.Error("no run compacted anything; the differential is vacuous — tighten the policy or enlarge the workloads")
	}
}

// FuzzCompactionAgreement lets the fuzzer search workload × policy space for
// a divergence between the retained and unbounded monitors.
func FuzzCompactionAgreement(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(3), uint8(24), uint8(8))
	f.Add(int64(7), uint8(5), uint8(3), uint8(4), uint8(1), uint8(1))
	f.Add(int64(42), uint8(7), uint8(5), uint8(6), uint8(63), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, pat, procs, rounds, maxEvents, every uint8) {
		pats := sim.Patterns()
		p := pats[int(pat)%len(pats)]
		if p == sim.Random {
			p = sim.Ring
		}
		cfg := sim.Config{
			Pattern: p,
			Procs:   2 + int(procs)%5,
			Rounds:  1 + int(rounds)%6,
			Seed:    seed,
		}
		res, err := sim.Generate(cfg)
		if err != nil || len(res.Phases) < 2 {
			t.Skip()
		}
		policy := RetentionPolicy{
			MaxEvents: 1 + int(maxEvents)%64,
			Every:     1 + int(every)%16,
		}
		diffRetention(t, res, fmt.Sprintf("%v/procs=%d/rounds=%d/seed=%d/%+v", p, cfg.Procs, cfg.Rounds, seed, policy), policy)
	})
}

// TestRetentionLifecycle walks the scripted release path: a settled pair of
// intervals ages out of the window, the stream compacts, and for one more
// window every operation on the released names fails with a clear retention
// error (while a late condition referencing them settles Failed rather than
// hanging). After that window the names are forgotten: unknown, like names
// never used.
func TestRetentionLifecycle(t *testing.T) {
	reg := obs.New()
	s := NewStream(2)
	s.Instrument(reg, nil)
	m := NewMonitor(s)
	m.Instrument(reg)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 8, Every: 4}); err != nil {
		t.Fatal(err)
	}
	a, err := s.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Local(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]poset.EventID{"A": a, "B": b} {
		if err := m.Observe(name, e); err != nil {
			t.Fatal(err)
		}
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddCondition("c", "R1(A, B)"); err != nil {
		t.Fatal(err)
	}
	first := m.Poll()
	if len(first) != 1 || first[0].State == monitor.Pending {
		t.Fatalf("Poll after completion = %v; want one settled result", first)
	}
	if got := m.Poll(); len(got) != 0 {
		t.Fatalf("second Poll = %v; want empty delta", got)
	}

	// Age the pair out of the window: the appraisal cadence runs off Poll.
	// The appraisal at event 12 releases them, 10 events after their
	// condition settled.
	for i := 0; i < 10; i++ {
		if _, err := s.Local(i % 2); err != nil {
			t.Fatal(err)
		}
		m.Poll()
		checkTombstones(t, m)
	}

	st := m.RetentionStats()
	if st.Released != 2 || st.Held != 0 {
		t.Fatalf("RetentionStats = %+v; want Released=2 Held=0", st)
	}
	compacted := false
	for _, w := range s.CompactedThrough() {
		if w > 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Errorf("stream never compacted: CompactedThrough=%v", s.CompactedThrough())
	}
	if got := reg.Counter("monitor.released_intervals").Value(); got != 2 {
		t.Errorf("monitor.released_intervals = %d; want 2", got)
	}

	released := func(err error) bool {
		return errors.Is(err, ErrRetired) && strings.Contains(err.Error(), "released")
	}
	if err := m.Observe("A", poset.EventID{Proc: 0, Pos: 1}); !released(err) {
		t.Errorf("Observe on released interval: err = %v; want released error", err)
	}
	if err := m.Complete("A"); !released(err) {
		t.Errorf("Complete on released interval: err = %v; want released error", err)
	}
	if _, err := m.StrongestBetween("A", "B"); !released(err) {
		t.Errorf("StrongestBetween on released intervals: err = %v; want released error", err)
	}
	if err := m.AddCondition("late", "R1(A, B)"); err != nil {
		t.Fatalf("AddCondition(late): %v", err)
	}
	late := m.Poll()
	if len(late) != 1 || late[0].State != monitor.Failed || !released(late[0].Err) {
		t.Fatalf("late condition = %+v; want immediate Failed with retention error", late)
	}

	// Observing an already-compacted position must be rejected, not absorbed.
	if err := m.Observe("fresh", poset.EventID{Proc: 0, Pos: 1}); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Errorf("Observe of compacted event: err = %v; want compacted error", err)
	}

	// One window after the release the names are forgotten.
	for i := 0; i < 12; i++ {
		if _, err := s.Local(i % 2); err != nil {
			t.Fatal(err)
		}
		m.Poll()
		checkTombstones(t, m)
	}
	if err := m.Complete("A"); err == nil || errors.Is(err, ErrRetired) || !strings.Contains(err.Error(), "never observed") {
		t.Errorf("Complete on forgotten interval: err = %v; want never-observed error", err)
	}
	if _, err := m.StrongestBetween("A", "B"); err == nil || errors.Is(err, ErrRetired) || !strings.Contains(err.Error(), "not complete") {
		t.Errorf("StrongestBetween on forgotten intervals: err = %v; want not-complete error", err)
	}
	e, err := s.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("A", e); err != nil {
		t.Errorf("Observe on forgotten interval: %v; want a new interval", err)
	}
	checkTombstones(t, m)
}

// TestRetentionAbandonsIdleIntervals covers the growing-map leak fix: a
// stalled interval nobody completes is evicted after AbandonAfter events,
// its waiting conditions settle Failed, and the abandonment counter ticks.
func TestRetentionAbandonsIdleIntervals(t *testing.T) {
	reg := obs.New()
	s := NewStream(2)
	m := NewMonitor(s)
	m.Instrument(reg)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 64, AbandonAfter: 16, Every: 4}); err != nil {
		t.Fatal(err)
	}
	e, err := s.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("stalled", e); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCondition("waits", "R1(stalled, stalled)"); err != nil {
		t.Fatal(err)
	}
	var delta []monitor.Result
	for i := 0; i < 32; i++ {
		if _, err := s.Local(i % 2); err != nil {
			t.Fatal(err)
		}
		delta = append(delta, m.Poll()...)
		checkTombstones(t, m)
	}
	if len(delta) != 1 || delta[0].Name != "waits" || delta[0].State != monitor.Failed {
		t.Fatalf("settlements = %+v; want waits=failed after abandonment", delta)
	}
	if !strings.Contains(delta[0].Err.Error(), "abandoned") {
		t.Errorf("waits error = %v; want abandonment error", delta[0].Err)
	}
	st := m.RetentionStats()
	if st.Abandoned != 1 || st.Growing != 0 {
		t.Errorf("RetentionStats = %+v; want Abandoned=1 Growing=0", st)
	}
	if got := reg.Counter("monitor.abandoned_intervals").Value(); got != 1 {
		t.Errorf("monitor.abandoned_intervals = %d; want 1", got)
	}
}

// TestRetentionBoundsMemory is the leak regression for the unbounded-growth
// bug this subsystem fixes: a long stream of short-lived intervals (some
// never completed) must leave both the monitor's growing map and the
// stream's per-event state bounded by the policy window, not by stream
// length — measured structurally and with ReadMemStats.
func TestRetentionBoundsMemory(t *testing.T) {
	const procs, rounds = 4, 4000
	s := NewStream(procs)
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 256, AbandonAfter: 256, Every: 64}); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	maxRetained := 0
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("r-%d", r)
		for p := 0; p < procs; p++ {
			e, err := s.Local(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Observe(name, e); err != nil {
				t.Fatal(err)
			}
		}
		// Every third interval is never completed: the abandonment path must
		// keep the growing map from accumulating them.
		if r%3 != 0 {
			if err := m.Complete(name); err != nil {
				t.Fatal(err)
			}
			if err := m.AddCondition(fmt.Sprintf("c-%d", r), fmt.Sprintf("R1(%s, %s)", name, name)); err != nil {
				t.Fatal(err)
			}
		}
		m.Poll()
		checkTombstones(t, m)
		if ret := s.RetainedEvents(); ret > maxRetained {
			maxRetained = ret
		}
	}
	m.CompactNow()
	checkTombstones(t, m)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st := m.RetentionStats()
	// The working set is one policy window plus the appraisal cadence slack;
	// anything proportional to the 16k-event stream is a leak.
	if bound := 4 * (256 + 64*procs); maxRetained > bound {
		t.Errorf("retained events peaked at %d; want <= %d (policy window, not stream length)", maxRetained, bound)
	}
	// Stalled intervals inside the AbandonAfter window are legitimately
	// still growing; one window holds at most 256/(procs·3) ≈ 22 of them.
	if st.Growing > 2*256/(procs*3) {
		t.Errorf("growing map holds %d intervals at the end; abandonment should bound it by the window (stats %+v)", st.Growing, st)
	}
	if st.Released == 0 || st.Abandoned == 0 {
		t.Errorf("expected both releases and abandonments, got %+v", st)
	}
	// Generous cap: the per-name verdict/retirement tombstones are the only
	// state allowed to scale with stream length, and they are tiny.
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 24<<20 {
		t.Errorf("heap grew %d bytes over %d events; retention should keep this to the working set plus tombstones", grew, rounds*procs)
	}
	t.Logf("retained peak %d, final %d; heap delta %d bytes; stats %+v",
		maxRetained, st.Retained, int64(m1.HeapAlloc)-int64(m0.HeapAlloc), st)
}

// TestRetentionModeConflicts pins SetRetention's one rejection: a policy
// with neither window set.
func TestRetentionModeConflicts(t *testing.T) {
	m := NewMonitor(NewStream(2))
	if err := m.SetRetention(RetentionPolicy{}); err == nil {
		t.Error("SetRetention with no window succeeded")
	}
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 8}); err != nil {
		t.Fatalf("SetRetention: %v", err)
	}
}

// TestStreamPinClampsWatermark verifies the in-flight send protocol: a
// pinned send is never compacted however deep the requested watermark, and
// unpinning releases it for the next compaction.
func TestStreamPinClampsWatermark(t *testing.T) {
	s := NewStream(2)
	for i := 0; i < 6; i++ {
		if _, err := s.Send(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Local(1); err != nil {
			t.Fatal(err)
		}
	}
	pinned := poset.EventID{Proc: 0, Pos: 3}
	s.Pin(pinned)
	applied, _, err := s.Compact([]int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if applied[0] != 2 {
		t.Fatalf("watermark with pin at p0:3 = %v; want p0 clamped to 2", applied)
	}
	if _, err := s.Recv(1, pinned); err != nil {
		t.Fatalf("Recv of pinned send after compaction: %v", err)
	}
	s.Unpin(pinned)
	applied, _, err = s.Compact([]int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if applied[0] <= 2 {
		t.Fatalf("watermark after unpin = %v; want p0 above 2", applied)
	}
}

// TestSeriesIndependentOfConditions pins the registry-cardinality side of
// the memory bound: condition names are unbounded input on a long stream, so
// no series may be minted from them — the registry holds the same series
// after 2000 settlements as after the first.
func TestSeriesIndependentOfConditions(t *testing.T) {
	const procs, rounds = 4, 2000
	reg := obs.New()
	s := NewStream(procs)
	s.Instrument(reg, nil)
	m := NewMonitor(s)
	m.Instrument(reg)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 64, Every: 16}); err != nil {
		t.Fatal(err)
	}
	series := func() []string {
		snap := reg.Snapshot()
		var out []string
		for _, names := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range names {
				out = append(out, name)
			}
		}
		for name := range snap.Histograms {
			out = append(out, name)
		}
		for name := range snap.Windows {
			out = append(out, name)
		}
		for name := range snap.Infos {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	var first []string
	settled := 0
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("r-%d", r)
		for p := 0; p < procs; p++ {
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
		if r > 0 {
			if err := m.AddCondition(fmt.Sprintf("c-%d", r), fmt.Sprintf("R1(r-%d, %s)", r-1, name)); err != nil {
				t.Fatal(err)
			}
		}
		settled += len(m.Poll())
		if first == nil && settled > 0 {
			first = series()
		}
	}
	m.CompactNow()
	if settled != rounds-1 {
		t.Fatalf("%d of %d conditions settled", settled, rounds-1)
	}
	if got := series(); !slices.Equal(got, first) {
		t.Errorf("series after %d settlements:\n%v\nafter the first:\n%v", settled, got, first)
	}
}

// TestRetentionWindowRestartsAtLastUse pins MaxEvents' promise that an
// interval's window restarts when the last condition referencing it
// settles: A completes long before B, yet StrongestBetween(A, B) still
// answers when their condition settles, and A goes exactly one window after
// that settlement.
func TestRetentionWindowRestartsAtLastUse(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 8, Every: 1}); err != nil {
		t.Fatal(err)
	}
	a, err := s.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("A", a); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("A"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCondition("c", "R1(A, B)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b, err := s.Local(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe("B", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Complete("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Local(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Poll(); len(got) != 1 || got[0].Name != "c" {
		t.Fatalf("Poll = %+v; want c settled", got)
	}
	if _, err := m.StrongestBetween("A", "B"); err != nil {
		t.Fatalf("StrongestBetween at settlement: %v", err)
	}
	for i := 1; i <= 9; i++ {
		if _, err := s.Local(i % 2); err != nil {
			t.Fatal(err)
		}
		m.Poll()
		checkTombstones(t, m)
		_, err := m.StrongestBetween("A", "B")
		switch released := err != nil && strings.Contains(err.Error(), "released"); {
		case i < 9 && err != nil:
			t.Fatalf("%d events after settlement: %v; want A still held", i, err)
		case i == 9 && !released:
			t.Fatalf("9 events after settlement: err = %v; want A released", err)
		}
	}
}

// TestReleaseFreesIntervalRecords pins that released and abandoned names
// leave only their tombstones behind, and those for one window: conditions
// over an abandoned interval and a never-observed one, and intervals whose
// Define failed, all free their interval records once settled and out of the
// window, and a window later their names.
func TestReleaseFreesIntervalRecords(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 8, AbandonAfter: 16, Every: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e, err := s.Local(i % 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(fmt.Sprintf("stall-%d", i), e); err != nil {
			t.Fatal(err)
		}
		if err := m.AddCondition(fmt.Sprintf("c-%d", i), fmt.Sprintf("R1(stall-%d, ghost-%d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("bad-%d", i)
		if err := m.Observe(name, poset.EventID{Proc: 0, Pos: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
		if err := m.AddCondition(fmt.Sprintf("p-%d", i), fmt.Sprintf("R4(%s, %s)", name, name)); err != nil {
			t.Fatal(err)
		}
	}
	failed := 0
	for i := 0; i < 64; i++ {
		if _, err := s.Local(i % 2); err != nil {
			t.Fatal(err)
		}
		for _, r := range m.Poll() {
			if r.State != monitor.Failed {
				t.Errorf("%s = %v; want failed", r.Name, r.State)
			}
			failed++
		}
		checkTombstones(t, m)
		if failed == 70 {
			m.mu.Lock()
			for name, cs := range m.conds {
				if cs.c != nil {
					t.Errorf("condition %s keeps its compiled form after settling", name)
				}
			}
			m.mu.Unlock()
		}
	}
	m.CompactNow()
	checkTombstones(t, m)
	if failed != 70 {
		t.Fatalf("%d of 70 conditions settled", failed)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ivs) != 0 {
		t.Errorf("%d interval records survive; want none", len(m.ivs))
	}
	// The last retirements, at event 68, are a window behind event 114.
	if len(m.retired) != 0 || m.abandoned != 50 || m.released != 20 {
		t.Errorf("tombstones: %d retired (%d abandoned, %d released); want 0 (50, 20)", len(m.retired), m.abandoned, m.released)
	}
	if len(m.conds) != 0 || len(m.ready) != 0 || len(m.ledger) != 0 {
		t.Errorf("%d condition records, %d ready, %d ledger entries; want none", len(m.conds), len(m.ready), len(m.ledger))
	}
}

// TestLedgerForgetsAfterWindow pins the name ledger's contract: a released
// or abandoned interval and a settled condition keep their names reserved
// for one retention window after they retire, each giving the error it gave
// at retirement, and one window later the monitor has forgotten them: an
// Observe starts a new interval, a condition over a forgotten interval
// waits for it, and a condition registered again under a settled name is a
// new condition whose verdict Poll delivers once.
func TestLedgerForgetsAfterWindow(t *testing.T) {
	const window = 8
	s := NewStream(2)
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: window, AbandonAfter: window, Every: 1}); err != nil {
		t.Fatal(err)
	}
	event := func(p int) poset.EventID {
		t.Helper()
		e, err := s.Local(p)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		checkTombstones(t, m)
	}
	var results []monitor.Result
	poll := func() {
		t.Helper()
		results = append(results, m.Poll()...)
		checkTombstones(t, m)
	}
	age := func(n int) {
		t.Helper()
		for i := range n {
			event(i % 2)
			poll()
		}
	}
	retired := func(err error, why string) bool {
		return errors.Is(err, ErrRetired) && strings.Contains(err.Error(), why)
	}
	defined := func(name string) {
		t.Helper()
		err := m.AddCondition(name, "R4(A, B)")
		if err == nil || !strings.Contains(err.Error(), "already defined") {
			t.Fatalf("AddCondition(%s) inside its window: err = %v; want already defined", name, err)
		}
		checkTombstones(t, m)
	}

	// Event 3: A and B are complete, c over them settles, S grows with w
	// waiting on it.
	a := event(0)
	must(m.Observe("A", a))
	must(m.Complete("A"))
	must(m.Observe("B", event(1)))
	must(m.Complete("B"))
	must(m.Observe("S", event(0)))
	must(m.AddCondition("c", "R1(A, B)"))
	must(m.AddCondition("w", "R1(S, S)"))
	poll()
	if len(results) != 1 || results[0].Name != "c" {
		t.Fatalf("settled %+v; want c", results)
	}
	defined("c")
	age(window) // event 11: the last one inside c's window
	defined("c")

	// Event 12: c is forgotten a window after it settled; A and B are
	// released and S is abandoned, a window after their last use, and w
	// fails with S.
	age(1)
	m.mu.Lock()
	_, kept := m.conds["c"]
	m.mu.Unlock()
	if kept {
		t.Fatal("c outlived its window")
	}
	if len(results) != 2 || results[1].Name != "w" || !retired(results[1].Err, "abandoned") {
		t.Fatalf("settled %+v; want w failed on abandoned S", results)
	}
	reserved := func() {
		t.Helper()
		if err := m.Observe("A", a); !retired(err, "released") {
			t.Errorf("Observe(A) inside the window: err = %v; want released", err)
		}
		if err := m.Complete("B"); !retired(err, "released") {
			t.Errorf("Complete(B) inside the window: err = %v; want released", err)
		}
		if _, err := m.StrongestBetween("A", "B"); !retired(err, "released") {
			t.Errorf("StrongestBetween(A, B) inside the window: err = %v; want released", err)
		}
		if err := m.Observe("S", a); !retired(err, "abandoned") {
			t.Errorf("Observe(S) inside the window: err = %v; want abandoned", err)
		}
		checkTombstones(t, m)
		defined("w")
	}
	reserved()
	age(window) // event 20: the last one inside the window
	reserved()
	must(m.AddCondition("late", "R1(A, S)"))
	poll()
	if n := len(results); results[n-1].Name != "late" || !retired(results[n-1].Err, "released") {
		t.Fatalf("settled %+v; want late failed on released A", results)
	}

	// Event 21: A, B, S and w are forgotten; late, settled at event 20, is
	// not.
	age(1)
	m.mu.Lock()
	_, lateKept := m.conds["late"]
	nRetired, nConds, nLedger := len(m.retired), len(m.conds), len(m.ledger)
	m.mu.Unlock()
	if nRetired != 0 || nConds != 1 || nLedger != 1 || !lateKept {
		t.Fatalf("a window after retirement: %d retired, %d conditions, %d ledger entries; want 0, late, late's",
			nRetired, nConds, nLedger)
	}
	before := len(results)
	must(m.Observe("A", event(0)))
	must(m.AddCondition("w", "R1(A, B)"))
	must(m.AddCondition("c", "R1(A, B)"))
	poll()
	if err := m.Complete("B"); err == nil || errors.Is(err, ErrRetired) || !strings.Contains(err.Error(), "never observed") {
		t.Errorf("Complete(B) after the window: err = %v; want never observed", err)
	}
	must(m.Complete("A"))
	poll()
	if len(results) != before {
		t.Fatalf("settled %+v while B is unobserved; want w and c waiting", results[before:])
	}
	must(m.Observe("B", event(1)))
	must(m.Complete("B"))
	poll()
	poll()
	got := map[string]int{}
	for _, r := range results[before:] {
		got[r.Name]++
		if r.State == monitor.Failed {
			t.Errorf("%s = failed: %v; want a verdict over the new A and B", r.Name, r.Err)
		}
	}
	if len(got) != 2 || got["w"] != 1 || got["c"] != 1 {
		t.Errorf("settled %v after the window; want w and c once each", got)
	}
}

// TestSettledBeforeRetentionEntersWindow pins that a condition settled
// before SetRetention enters the window at that call, as an interval
// observed before it does: its name is reserved for one window from there.
func TestSettledBeforeRetentionEntersWindow(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
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
	if err := m.AddCondition("c", "R4(A, B)"); err != nil {
		t.Fatal(err)
	}
	if got := m.Poll(); len(got) != 1 {
		t.Fatalf("Poll = %+v; want c settled", got)
	}
	for range 20 {
		if _, err := s.Local(0); err != nil {
			t.Fatal(err)
		}
		m.Poll()
	}
	if err := m.AddCondition("c", "R4(A, B)"); err == nil {
		t.Fatal("without a policy, a settled name was registered again")
	}
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 8, Every: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range 9 {
		if err := m.AddCondition("c", "R4(A, B)"); err == nil {
			t.Fatalf("%d events after SetRetention: c registered again inside the window", i)
		}
		if _, err := s.Local(0); err != nil {
			t.Fatal(err)
		}
		m.Poll()
	}
	if err := m.AddCondition("c", "R4(A, B)"); err != nil {
		t.Errorf("a window after SetRetention: %v; want c registered again", err)
	}
}
