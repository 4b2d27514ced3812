package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestCounterConcurrentExactness: striped counters lose no increments under
// contention (run under -race in CI).
func TestCounterConcurrentExactness(t *testing.T) {
	reg := New()
	c := reg.Counter("c")
	const goroutines, perG = 32, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("Value() = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterInterning(t *testing.T) {
	reg := New()
	a, b := reg.Counter("same"), reg.Counter("same")
	if a != b {
		t.Error("Counter(name) did not intern")
	}
	a.Add(2)
	b.Add(3)
	if got := reg.Counter("same").Value(); got != 5 {
		t.Errorf("interned counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	reg := New()
	g := reg.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	reg := New()
	h := reg.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
	if h.Sum() != 5+10+11+99+5000 {
		t.Errorf("Sum() = %d", h.Sum())
	}
	snap := reg.Snapshot().Histograms["h"]
	// Buckets: ≤10, ≤100, ≤1000, overflow.
	want := []int64{2, 2, 0, 1}
	if len(snap.Counts) != len(want) {
		t.Fatalf("bucket counts = %v, want %v", snap.Counts, want)
	}
	for i := range want {
		if snap.Counts[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, snap.Counts[i], want[i])
		}
	}
}

// TestNilSafety: every instrument and the registry itself are no-ops on nil
// receivers — this is the disabled path the hot loops rely on.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	if c != nil {
		t.Error("nil registry returned a non-nil counter")
	}
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := reg.Gauge("g")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := reg.Histogram("h", SizeBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram observed")
	}
	snap := reg.Snapshot()
	if snap.Counters == nil || len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot = %v", snap)
	}
	if names := reg.CounterNames(); len(names) != 0 {
		t.Errorf("nil registry CounterNames = %v", names)
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := New()
	reg.Counter("evals").Add(7)
	reg.Gauge("depth").Set(3)
	reg.Histogram("ns", DurationBuckets).Observe(500)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, buf.String())
	}
	if round.Counters["evals"] != 7 || round.Gauges["depth"] != 3 {
		t.Errorf("round-trip lost values: %+v", round)
	}
	if h := round.Histograms["ns"]; h.Count != 1 || h.Sum != 500 {
		t.Errorf("histogram round-trip: %+v", h)
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	reg := New()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.Counter("shared").Add(1)
			reg.Gauge("shared-g").Add(1)
			reg.Histogram("shared-h", SizeBuckets).Observe(1)
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 16 {
		t.Errorf("shared counter = %d, want 16", got)
	}
	if got := reg.Histogram("shared-h", SizeBuckets).Count(); got != 16 {
		t.Errorf("shared histogram count = %d, want 16", got)
	}
}
