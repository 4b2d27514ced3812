package trace

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"causet/internal/poset"
	"causet/internal/rt"
	"causet/internal/sim"
)

func sample(t *testing.T) (*poset.Execution, map[string][]poset.EventID) {
	t.Helper()
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 2, Seed: 1})
	named := map[string][]poset.EventID{}
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	return res.Exec, named
}

func assertRoundTrip(t *testing.T, ex *poset.Execution, named map[string][]poset.EventID, f2 *File) {
	t.Helper()
	ex2, err := f2.Execution()
	if err != nil {
		t.Fatalf("Execution: %v", err)
	}
	if ex2.NumProcs() != ex.NumProcs() || ex2.NumEvents() != ex.NumEvents() {
		t.Fatalf("shape mismatch after round trip")
	}
	m1, m2 := ex.Messages(), ex2.Messages()
	if len(m1) != len(m2) {
		t.Fatalf("message count mismatch")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("message %d mismatch: %v vs %v", i, m1[i], m2[i])
		}
	}
	ivs, err := f2.AllIntervals(ex2)
	if err != nil {
		t.Fatalf("AllIntervals: %v", err)
	}
	if len(ivs) != len(named) {
		t.Fatalf("interval count = %d, want %d", len(ivs), len(named))
	}
	for name, events := range named {
		iv, ok := ivs[name]
		if !ok {
			t.Fatalf("interval %q missing", name)
		}
		if iv.Size() != len(events) {
			t.Fatalf("interval %q has %d events, want %d", name, iv.Size(), len(events))
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ex, named := sample(t)
	f := New(ex, named)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ring-round-0") {
		t.Errorf("JSON output lacks interval names")
	}
	f2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertRoundTrip(t, ex, named, f2)
}

func TestGobRoundTrip(t *testing.T) {
	ex, named := sample(t)
	f := New(ex, named)
	var buf bytes.Buffer
	if err := f.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertRoundTrip(t, ex, named, f2)
}

func TestSaveLoadByExtension(t *testing.T) {
	ex, named := sample(t)
	f := New(ex, named)
	dir := t.TempDir()
	for _, name := range []string{"trace.json", "trace.gob"} {
		path := filepath.Join(dir, name)
		if err := f.Save(path); err != nil {
			t.Fatalf("Save(%s): %v", name, err)
		}
		f2, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		assertRoundTrip(t, ex, named, f2)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("Load of missing file succeeded")
	}
	if err := f.Save(filepath.Join(dir, "no-such-dir", "t.json")); err == nil {
		t.Errorf("Save into missing directory succeeded")
	}
}

func TestVersionCheck(t *testing.T) {
	f := &File{Version: 99, Counts: []int{1}}
	if _, err := f.Execution(); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestMalformedTraces(t *testing.T) {
	// Negative count.
	f := &File{Version: FormatVersion, Counts: []int{-1}}
	if _, err := f.Execution(); err == nil {
		t.Errorf("negative count accepted")
	}
	// Message to a dummy position.
	f = &File{
		Version:  FormatVersion,
		Counts:   []int{2, 2},
		Messages: []MessageRec{{From: EventRec{0, 0}, To: EventRec{1, 1}}},
	}
	if _, err := f.Execution(); err == nil {
		t.Errorf("dummy endpoint accepted")
	}
	// Causal cycle.
	f = &File{
		Version: FormatVersion,
		Counts:  []int{2, 2},
		Messages: []MessageRec{
			{From: EventRec{0, 2}, To: EventRec{1, 1}},
			{From: EventRec{1, 2}, To: EventRec{0, 1}},
		},
	}
	if _, err := f.Execution(); !errors.Is(err, poset.ErrCausalCycle) {
		t.Errorf("cycle: err = %v, want ErrCausalCycle", err)
	}
	// Garbage JSON.
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Errorf("garbage JSON accepted")
	}
	if _, err := ReadGob(strings.NewReader("garbage")); err == nil {
		t.Errorf("garbage gob accepted")
	}
}

func TestIntervalLookup(t *testing.T) {
	ex, named := sample(t)
	f := New(ex, named)
	ex2, err := f.Execution()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Interval(ex2, "nope"); !errors.Is(err, ErrNoInterval) {
		t.Errorf("err = %v, want ErrNoInterval", err)
	}
	iv, err := f.Interval(ex2, "ring-round-1")
	if err != nil {
		t.Fatal(err)
	}
	if iv.Size() != len(named["ring-round-1"]) {
		t.Errorf("wrong interval size")
	}
	names := f.IntervalNames()
	if len(names) != 2 || names[0] != "ring-round-0" {
		t.Errorf("IntervalNames = %v", names)
	}
	// Duplicate names must be rejected by AllIntervals.
	f.Intervals = append(f.Intervals, f.Intervals[0])
	if _, err := f.AllIntervals(ex2); !errors.Is(err, ErrDupInterval) {
		t.Errorf("err = %v, want ErrDupInterval", err)
	}
	// An interval with an out-of-range event must fail materialization.
	f.Intervals = []IntervalRec{{Name: "bad", Events: []EventRec{{Proc: 0, Pos: 99}}}}
	if _, err := f.AllIntervals(ex2); err == nil {
		t.Errorf("out-of-range interval accepted")
	}
}

func TestComputeStats(t *testing.T) {
	// Fully sequential: 2 procs, chain of messages → density 1.
	b := poset.NewBuilder(2)
	s1, r1, err := b.SendRecv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, r2, err := b.SendRecv(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = []poset.EventID{s1, r1, s2, r2}
	ex := b.MustBuild()
	st := ComputeStats(ex)
	if st.Events != 4 || st.Messages != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.OrderedPairs != 6 || st.Density != 1.0 {
		t.Errorf("chain density = %v (%d pairs), want 1.0 (6)", st.Density, st.OrderedPairs)
	}
	// Fully concurrent: no messages → density only from program order.
	b2 := poset.NewBuilder(2)
	b2.AppendN(0, 2)
	b2.AppendN(1, 2)
	st2 := ComputeStats(b2.MustBuild())
	if st2.OrderedPairs != 2 { // one ordered pair per process
		t.Errorf("concurrent OrderedPairs = %d, want 2", st2.OrderedPairs)
	}
	if st2.Density >= 0.5 {
		t.Errorf("concurrent density = %v, want < 0.5", st2.Density)
	}
	// Empty execution must not divide by zero.
	st3 := ComputeStats(poset.NewBuilder(2).MustBuild())
	if st3.Density != 0 || st3.Events != 0 {
		t.Errorf("empty stats = %+v", st3)
	}
}

func TestTimingRoundTrip(t *testing.T) {
	ex, named := sample(t)
	tm := rt.Synthesize(ex, rt.SynthesizeConfig{Seed: 5})
	f := New(ex, named)
	f.SetTiming(tm)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "times_ns") {
		t.Errorf("timed trace lacks times_ns field")
	}
	f2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := f2.Execution()
	if err != nil {
		t.Fatal(err)
	}
	tm2, err := f2.Timing(ex2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ex.RealEvents() {
		if tm.Of(e) != tm2.Of(e) {
			t.Fatalf("timestamp of %v changed across serialization", e)
		}
	}
	// Untimed traces report a clear error.
	f3 := New(ex, nil)
	if _, err := f3.Timing(ex); err == nil {
		t.Errorf("Timing on untimed trace succeeded")
	}
	// Corrupt times fail validation on load.
	f.TimesNS[0] = f.TimesNS[0][:1]
	if _, err := f.Timing(ex); err == nil {
		t.Errorf("malformed times accepted")
	}
}

// TestExecutionAllocsIndependentOfMessages pins that Execution sizes the
// builder's message log once: a trace with eight times the messages of
// another, over the same processes, costs the same number of allocations.
func TestExecutionAllocsIndependentOfMessages(t *testing.T) {
	allocs := func(rounds int) (float64, int) {
		res := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: 4, Rounds: rounds, Seed: 1})
		f := New(res.Exec, nil)
		n := testing.AllocsPerRun(10, func() {
			if _, err := f.Execution(); err != nil {
				t.Fatal(err)
			}
		})
		return n, len(f.Messages)
	}
	small, smallMsgs := allocs(16)
	large, largeMsgs := allocs(128)
	t.Logf("%.0f allocs for %d messages, %.0f for %d", small, smallMsgs, large, largeMsgs)
	if large > small {
		t.Errorf("Execution allocates %.0f objects for %d messages, %.0f for %d; want no growth",
			large, largeMsgs, small, smallMsgs)
	}
}
