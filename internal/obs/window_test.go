package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock returns a nowFn that advances by step on every call.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestWindowRateAndQuantiles(t *testing.T) {
	w := newWindow(8)
	w.nowFn = fakeClock(time.Unix(0, 0), 100*time.Millisecond)
	for v := int64(1); v <= 8; v++ {
		w.Observe(v * 10)
	}
	// 8 samples 100ms apart span 700ms → (8-1)/0.7 = 10 obs/sec.
	if got := w.Rate(); got < 9.99 || got > 10.01 {
		t.Errorf("Rate() = %v, want 10", got)
	}
	if got := w.Quantile(0.5); got != 40 {
		t.Errorf("Quantile(0.5) = %d, want 40", got)
	}
	if got := w.Quantile(1.0); got != 80 {
		t.Errorf("Quantile(1.0) = %d, want 80", got)
	}
	if got := w.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %d, want 10", got)
	}

	// Overflow: two more observations evict the two oldest.
	w.Observe(90)
	w.Observe(100)
	if got := w.Count(); got != 10 {
		t.Errorf("Count() = %d, want 10 (lifetime)", got)
	}
	snap := w.Snapshot()
	if snap.Buffered != 8 {
		t.Errorf("Buffered = %d, want 8", snap.Buffered)
	}
	if snap.Sum != 10+20+30+40+50+60+70+80+90+100 {
		t.Errorf("Sum = %d (lifetime)", snap.Sum)
	}
	// Buffered values are now 30..100; nearest-rank p50 of 8 values = 4th.
	if snap.P50 != 60 {
		t.Errorf("P50 = %d, want 60", snap.P50)
	}
	if snap.P99 != 100 {
		t.Errorf("P99 = %d, want 100", snap.P99)
	}
}

func TestWindowEmptyAndSingle(t *testing.T) {
	w := newWindow(4)
	if w.Rate() != 0 || w.Quantile(0.5) != 0 {
		t.Error("empty window should report zero rate and quantiles")
	}
	w.Observe(7)
	if w.Rate() != 0 {
		t.Error("single-sample window has no rate")
	}
	if got := w.Quantile(0.99); got != 7 {
		t.Errorf("Quantile over one sample = %d, want 7", got)
	}
}

// TestWindowObserveAt pins that ObserveAt stamps a sample with the time it
// is given and reads no clock of its own.
func TestWindowObserveAt(t *testing.T) {
	w := newWindow(4)
	w.nowFn = func() time.Time {
		t.Fatal("ObserveAt read the window's clock")
		return time.Time{}
	}
	base := time.Unix(0, 0)
	for i := range 3 {
		w.ObserveAt(int64(i), base.Add(time.Duration(i)*250*time.Millisecond))
	}
	// 3 samples spanning 500ms → (3-1)/0.5 = 4 obs/sec.
	if got := w.Rate(); got < 3.99 || got > 4.01 {
		t.Errorf("Rate() = %v, want 4", got)
	}
	if got := w.Count(); got != 3 {
		t.Errorf("Count() = %d, want 3", got)
	}
}

func TestWindowNilSafety(t *testing.T) {
	var w *Window
	w.Observe(1)
	w.ObserveAt(1, time.Now())
	if w.Count() != 0 || w.Rate() != 0 || w.Quantile(0.5) != 0 {
		t.Error("nil window is not a no-op")
	}
	if snap := w.Snapshot(); snap != (WindowSnapshot{}) {
		t.Errorf("nil window snapshot = %+v", snap)
	}
	var reg *Registry
	if reg.Window("w", 8) != nil {
		t.Error("nil registry returned a non-nil window")
	}
}

func TestWindowRegistry(t *testing.T) {
	reg := New()
	a, b := reg.Window("same", 8), reg.Window("same", 99)
	if a != b {
		t.Error("Window(name) did not intern")
	}
	a.Observe(5)
	snap := reg.Snapshot()
	ws, ok := snap.Windows["same"]
	if !ok || ws.Count != 1 || ws.Sum != 5 {
		t.Errorf("snapshot windows = %+v", snap.Windows)
	}
	// A capacity below 1 falls back to the default instead of panicking.
	if w := reg.Window("tiny", 0); w.capacity != defaultWindowCap {
		t.Errorf("capacity = %d, want default %d", w.capacity, defaultWindowCap)
	}
}

func TestWindowConcurrent(t *testing.T) {
	reg := New()
	w := reg.Window("c", 64)
	var wg sync.WaitGroup
	const goroutines, perG = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Observe(int64(i))
				_ = w.Rate()
			}
		}()
	}
	wg.Wait()
	if got := w.Count(); got != goroutines*perG {
		t.Errorf("Count() = %d, want %d", got, goroutines*perG)
	}
}
