package online

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/logx"
	"causet/internal/obs/tsdb"
)

// TestDetectionLatencyEndToEnd drives the full telemetry chain on a timed
// trace with a known decisive-event→settlement lag: interval A completes at
// t0+10ms, B (the decisive completion) at t0+50ms, and Poll runs at
// t0+60ms — so detection latency is exactly 10ms — then verifies that the
// condition_settled log event carries that lag and the tsdb query API
// reports it after one sampler tick.
func TestDetectionLatencyEndToEnd(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	reg := obs.New()
	m.Instrument(reg)
	var logBuf bytes.Buffer
	m.SetLogger(logx.New(&logBuf, logx.Info))

	base := time.Unix(1_700_000_000, 0)
	vnow := base
	m.SetNow(func() time.Time { return vnow })

	if err := m.AddCondition("ordered", "R1(A, B)"); err != nil {
		t.Fatal(err)
	}
	a1, err := s.Send(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("A", a1); err != nil {
		t.Fatal(err)
	}
	vnow = base.Add(10 * time.Millisecond)
	if err := m.Complete("A"); err != nil {
		t.Fatal(err)
	}
	b1, err := s.Recv(1, a1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("B", b1); err != nil {
		t.Fatal(err)
	}
	vnow = base.Add(50 * time.Millisecond)
	if err := m.Complete("B"); err != nil {
		t.Fatal(err)
	}

	vnow = base.Add(60 * time.Millisecond)
	res := m.Poll()
	if len(res) != 1 || res[0].State != monitor.Holds {
		t.Fatalf("results = %+v", res)
	}

	want := (10 * time.Millisecond).Nanoseconds()
	snap := reg.Snapshot()
	if w := snap.Windows["online.detect_latency_ns"]; w.Count != 1 || w.P50 != want {
		t.Fatalf("latency window = %+v, want count 1 p50 %d", w, want)
	}
	if h := snap.Histograms["online.detect_latency_hist_ns"]; h.Count != 1 || h.Sum != want {
		t.Fatalf("latency histogram = %+v, want count 1 sum %d", h, want)
	}
	settled := 0
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var line struct {
			Event     string `json:"event"`
			Condition string `json:"condition"`
			Latency   int64  `json:"detect_latency_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line not valid JSON: %v\n%s", err, sc.Text())
		}
		if line.Event == "condition_settled" {
			settled++
			if line.Condition != "ordered" || line.Latency != want {
				t.Fatalf("condition_settled = %s with latency %d, want ordered with %d", line.Condition, line.Latency, want)
			}
		}
	}
	if settled != 1 {
		t.Fatalf("%d condition_settled events, want 1", settled)
	}

	// One sampler tick later the lag is answerable from the tsdb query API.
	st := tsdb.NewStore(tsdb.Options{})
	smp := tsdb.NewSampler(reg, st, time.Second)
	smp.SampleOnce(vnow)
	if p, ok := st.Latest("online.detect_latency_ns.p50"); !ok || p.V != want {
		t.Fatalf("tsdb p50 series = %v ok=%v, want %d", p, ok, want)
	}
	if v, ok := st.Quantile("online.detect_latency_ns.p99", 0.99, time.Minute, vnow); !ok || v != want {
		t.Fatalf("tsdb quantile query = %d ok=%v, want %d", v, ok, want)
	}
	if v, ok := st.Increase("online.detect_latency_ns.count", time.Minute, vnow); ok && v != 0 {
		// Single sample → no increase computable yet; a second tick shows it.
		t.Fatalf("increase over one sample = %d ok=%v", v, ok)
	}
	smp.SampleOnce(vnow.Add(time.Second))
	if v, ok := st.Avg("online.detect_latency_ns.sum", time.Minute, vnow.Add(time.Second)); !ok || v != float64(want) {
		t.Fatalf("tsdb sum series avg = %v ok=%v, want %d", v, ok, want)
	}
}

// TestDetectionLatencyWallClock exercises the default clock path: without
// SetNow the monitor falls back to time.Now (monotonic), so the settled
// latency is some small positive number.
func TestDetectionLatencyWallClock(t *testing.T) {
	s := NewStream(2)
	m := NewMonitor(s)
	reg := obs.New()
	m.Instrument(reg)
	if err := m.AddCondition("c", "R1(A, B)"); err != nil {
		t.Fatal(err)
	}
	a1, _ := s.Send(0)
	if err := m.Observe("A", a1); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("A"); err != nil {
		t.Fatal(err)
	}
	b1, _ := s.Recv(1, a1)
	if err := m.Observe("B", b1); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("B"); err != nil {
		t.Fatal(err)
	}
	m.Poll()
	snap := reg.Snapshot()
	w := snap.Windows["online.detect_latency_ns"]
	if w.Count != 1 || w.Sum < 0 {
		t.Fatalf("latency window = %+v, want one non-negative sample", w)
	}
}

// TestDetectionLatencySkipsUnstamped pins the no-stamp path: a condition
// that settles as failed before any referenced interval completes records
// no latency sample.
func TestDetectionLatencySkipsUnstamped(t *testing.T) {
	s := NewStream(1)
	m := NewMonitor(s)
	reg := obs.New()
	m.Instrument(reg)
	// Condition over an interval completed with an unrecorded event ID: the
	// snapshot rejects it and the condition fails at Poll.
	if err := m.AddCondition("c", "R1(A, A)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Local(0); err != nil {
		t.Fatal(err)
	}
	a1, _ := s.Local(0)
	if err := m.Observe("A", a1); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("A"); err != nil {
		t.Fatal(err)
	}
	m.Poll()
	// A completed and was stamped, so this settlement does carry a latency;
	// the unstamped path needs a condition with no completed references,
	// which settle() can only reach via a define failure. Exercise it
	// directly instead: detectLatency over a condition referencing nothing
	// stamped.
	m.mu.Lock()
	lat, ok := m.detectLatency(&monitor.Condition{Name: "ghost", Src: "R1(x, y)", Expr: monitor.MustParse("R1(x, y)")}, time.Now())
	m.mu.Unlock()
	if ok || lat != 0 {
		t.Fatalf("detectLatency of unstamped refs = %v ok=%v, want 0 false", lat, ok)
	}
}
