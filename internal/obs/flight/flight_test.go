package flight

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"causet/internal/obs"
	"causet/internal/obs/alert"
	"causet/internal/obs/tsdb"
)

func TestRingBounds(t *testing.T) {
	r := New(2, 4)
	for i := 1; i <= 10; i++ {
		r.Record(0, i, "internal", "", nil)
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d events, capacity 4", r.Len())
	}
	b := r.Snapshot("test", nil)
	if b.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", b.Dropped)
	}
	if len(b.Events) != 4 {
		t.Fatalf("bundle holds %d events", len(b.Events))
	}
	// Oldest first, and exactly the last 4 positions.
	for i, ev := range b.Events {
		if ev.Pos != 7+i {
			t.Errorf("event %d has pos %d, want %d", i, ev.Pos, 7+i)
		}
		if i > 0 && b.Events[i].Seq != b.Events[i-1].Seq+1 {
			t.Errorf("seq not monotone at %d: %+v", i, b.Events)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := New(1, 0)
	if r.cap != DefaultCapacity {
		t.Errorf("cap = %d, want DefaultCapacity", r.cap)
	}
}

// TestClockCorrectness replays a known message pattern and checks the
// recorded vector clocks against the hand-computed values.
func TestClockCorrectness(t *testing.T) {
	r := New(3, 16)
	// p0: e1 (send), p1: e1 (recv from p0:1), p1: e2 (send), p2: e1 (recv from p1:2)
	r.Record(0, 1, "send", "m1", nil)
	r.Record(1, 1, "recv", "m1", &EventRef{Proc: 0, Pos: 1})
	r.Record(1, 2, "send", "m2", nil)
	r.Record(2, 1, "recv", "m2", &EventRef{Proc: 1, Pos: 2})
	b := r.Snapshot("test", nil)
	want := [][]int{
		{1, 0, 0}, // p0:1
		{1, 1, 0}, // p1:1 after merge
		{1, 2, 0}, // p1:2
		{1, 2, 1}, // p2:1 knows everything upstream
	}
	for i, ev := range b.Events {
		if ev.Approx {
			t.Errorf("event %d marked approx with live send window", i)
		}
		if len(ev.Clock) != 3 {
			t.Fatalf("event %d clock %v", i, ev.Clock)
		}
		for p, v := range want[i] {
			if ev.Clock[p] != v {
				t.Errorf("event %d clock = %v, want %v", i, ev.Clock, want[i])
			}
		}
	}
	if b.Clocks[2][0] != 1 || b.Clocks[2][1] != 2 || b.Clocks[2][2] != 1 {
		t.Errorf("final clock p2 = %v", b.Clocks[2])
	}
}

// TestApproxEviction forces the bounded send window to evict a send clock
// and checks the dependent recv is marked approximate with a lower-bound
// clock that still covers the send's own component.
// TestRecordClock: events recorded with known clocks keep them exactly,
// interleave in sequence with Record, never read as approximate, and set
// the final per-process clocks.
func TestRecordClock(t *testing.T) {
	r := New(3, 8)
	r.RecordClock(1, 1, "send", nil, []int{0, 1, 0})
	r.RecordClock(2, 1, "send", nil, []int{0, 0, 1})
	r.RecordClock(0, 1, "recv", &EventRef{Proc: 1, Pos: 1}, []int{1, 1, 1})
	r.Record(0, 2, "internal", "", nil)
	r.RecordClock(5, 1, "internal", nil, []int{0, 0, 0}) // no such process: ignored
	b := r.Snapshot("test", nil)
	want := [][]int{{0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {2, 1, 1}}
	if len(b.Events) != len(want) {
		t.Fatalf("bundle holds %d events, want %d", len(b.Events), len(want))
	}
	for i, ev := range b.Events {
		if ev.Seq != int64(i) || ev.Approx || !slices.Equal(ev.Clock, want[i]) {
			t.Errorf("event %d = %+v, want seq %d clock %v, not approx", i, ev, i, want[i])
		}
	}
	if b.Events[2].From == nil || *b.Events[2].From != (EventRef{Proc: 1, Pos: 1}) {
		t.Errorf("recv From = %v, want p1:1", b.Events[2].From)
	}
	for p, c := range [][]int{{2, 1, 1}, {0, 1, 0}, {0, 0, 1}} {
		if !slices.Equal(b.Clocks[p], c) {
			t.Errorf("final clock of p%d = %v, want %v", p, b.Clocks[p], c)
		}
	}
}

func TestApproxEviction(t *testing.T) {
	capacity := 4
	r := New(2, capacity)
	r.Record(0, 1, "send", "old", nil)
	// Flood the send window (factor 4 × capacity) until "old" is evicted.
	for i := 2; i <= sendWindowFactor*capacity+2; i++ {
		r.Record(0, i, "send", "", nil)
	}
	r.Record(1, 1, "recv", "old", &EventRef{Proc: 0, Pos: 1})
	b := r.Snapshot("test", nil)
	last := b.Events[len(b.Events)-1]
	if last.Kind != "recv" || !last.Approx {
		t.Fatalf("evicted-send recv not marked approx: %+v", last)
	}
	if last.Clock[0] < 1 {
		t.Errorf("approx clock %v does not cover the send's own component", last.Clock)
	}
	if last.Clock[1] != 1 {
		t.Errorf("approx clock %v has wrong local component", last.Clock)
	}
}

func TestBundleJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New(3, 8)
	sent := []EventRef{}
	pos := [3]int{}
	for i := 0; i < 40; i++ {
		p := rng.Intn(3)
		pos[p]++
		switch rng.Intn(3) {
		case 0:
			r.Record(p, pos[p], "send", "s", nil)
			sent = append(sent, EventRef{Proc: p, Pos: pos[p]})
		case 1:
			if len(sent) > 0 {
				from := sent[rng.Intn(len(sent))]
				if from.Proc != p {
					r.Record(p, pos[p], "recv", "r", &from)
					continue
				}
			}
			r.Record(p, pos[p], "internal", "i", nil)
		default:
			r.Record(p, pos[p], "internal", "i", nil)
		}
	}
	reg := obs.New()
	reg.Counter("flight.test").Add(5)
	b := r.Snapshot("violation: demo", reg)
	if b.Metrics == nil || b.Metrics.Counters["flight.test"] != 5 {
		t.Fatalf("metrics snapshot missing: %+v", b.Metrics)
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != FormatVersion || back.Reason != b.Reason ||
		back.Procs != b.Procs || back.Dropped != b.Dropped || len(back.Events) != len(b.Events) {
		t.Fatalf("round-trip lost header: %+v vs %+v", back, b)
	}
	for i := range b.Events {
		a, z := b.Events[i], back.Events[i]
		if a.Seq != z.Seq || a.Proc != z.Proc || a.Pos != z.Pos || a.Kind != z.Kind {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, a, z)
		}
		for j := range a.Clock {
			if a.Clock[j] != z.Clock[j] {
				t.Fatalf("event %d clock mismatch", i)
			}
		}
	}
}

func TestDump(t *testing.T) {
	r := New(2, 4)
	r.Record(0, 1, "internal", "x", nil)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := r.Dump(path, "panic: test", nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "panic: test" || len(b.Events) != 1 {
		t.Errorf("dumped bundle = %+v", b)
	}
	if b.CapturedAt == "" {
		t.Error("bundle lacks capture timestamp")
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(0, 1, "internal", "", nil) // must not panic
	if r.Len() != 0 {
		t.Error("nil recorder Len != 0")
	}
	if r.Snapshot("x", nil) != nil {
		t.Error("nil recorder Snapshot != nil")
	}
	if err := r.Dump("/nonexistent/x.json", "x", nil); err == nil {
		t.Error("nil recorder Dump must error")
	}
}

func TestAttachTelemetry(t *testing.T) {
	r := New(2, 8)
	r.Record(0, 1, "internal", "boot", nil)

	st := tsdb.NewStore(tsdb.Options{})
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 2*TsdbTail; i++ {
		st.Append("violations", tsdb.KindCounter, base.Add(time.Duration(i)*time.Second), int64(i))
	}
	rules, err := alert.ParseRules("hot[critical]: rate(violations, 60s) > 0")
	if err != nil {
		t.Fatal(err)
	}
	eng := alert.NewEngine(st, rules)
	eng.Evaluate(base.Add(time.Duration(2*TsdbTail) * time.Second))
	r.Attach(st, eng)

	b := r.Snapshot("violation: test", nil)
	if b.Tsdb == nil || len(b.Tsdb.Series) != 1 {
		t.Fatalf("bundle tsdb = %+v", b.Tsdb)
	}
	if n := len(b.Tsdb.Series[0].Points); n != TsdbTail {
		t.Fatalf("bundle tsdb tail %d points, want %d", n, TsdbTail)
	}
	if len(b.Alerts) != 1 || b.Alerts[0].Rule != "hot" || b.Alerts[0].State != "firing" {
		t.Fatalf("bundle alerts = %+v", b.Alerts)
	}

	// Round-trips through JSON with the sections intact.
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tsdb == nil || len(back.Tsdb.Series[0].Points) != TsdbTail || len(back.Alerts) != 1 {
		t.Fatalf("round trip lost telemetry: %+v", back)
	}

	// Nil attachments and nil recorder stay no-ops.
	r.Attach(nil, nil)
	if b := r.Snapshot("x", nil); b.Tsdb != nil || b.Alerts != nil {
		t.Fatal("detached recorder still bundles telemetry")
	}
	var nilR *Recorder
	nilR.Attach(st, eng)
}
