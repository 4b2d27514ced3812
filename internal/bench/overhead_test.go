package bench

import (
	"testing"
	"time"

	"causet/internal/batch"
	"causet/internal/core"
	"causet/internal/obs"
	"causet/internal/obs/tsdb"
)

// These tests are the E13 sampler-overhead gate: attaching the telemetry
// sampler to the registry behind the E10 fused sweep must be free on the
// kernel's hot path. The deterministic halves of the gate — identical
// comparison counts and zero allocations under sampling — catch any change
// that moves sampler work onto the evaluation path; the wall-clock half
// uses a deliberately lenient bound (CI timers are noisy) while the
// headline < 1% ns/cmp number is tracked across PRs by the committed
// benchtab reports (EXPERIMENTS.md E13).

// sampledSweep runs the size-8 E10 fused sweep against reg while a sampler
// (if st is non-nil) ticks the registry at an aggressive 1ms cadence, and
// reports total fused comparisons and ns/profile.
func sampledSweep(reg *obs.Registry, st *tsdb.Store, reps int) (cmp int64, ns float64) {
	var smp *tsdb.Sampler
	if st != nil {
		smp = tsdb.NewSampler(reg, st, time.Millisecond)
		smp.Start()
		defer smp.Stop()
	}
	rows := ProfileSweepObs([]int{8}, reps, 7, reg, nil)
	for _, r := range rows {
		ns += r.FusedNs
	}
	return reg.Snapshot().Counters["core.fast.comparisons"], ns
}

// TestSamplerOverheadDeterministic: a live sampler reads the registry, never
// steers it — the fused sweep must spend exactly the same number of
// comparisons with and without one attached.
func TestSamplerOverheadDeterministic(t *testing.T) {
	plainCmp, _ := sampledSweep(obs.New(), nil, 2)
	reg := obs.New()
	sampledCmp, _ := sampledSweep(reg, tsdb.NewStore(tsdb.Options{}), 2)
	if plainCmp == 0 {
		t.Fatal("sweep recorded no comparisons")
	}
	if sampledCmp != plainCmp {
		t.Fatalf("comparison counts diverge under sampling: %d vs %d", sampledCmp, plainCmp)
	}
}

// TestSamplerOverheadZeroAllocs: the fused kernel stays allocation-free on a
// registry that is being sampled — the sampler's own allocations live on its
// goroutine and between kernel calls, never inside EvalProfile.
func TestSamplerOverheadZeroAllocs(t *testing.T) {
	res, pairs := profilePairs(8, 7)
	reg := obs.New()
	a := core.NewAnalysis(res.Exec)
	a.Instrument(reg, nil)
	eng := batch.New(a, batch.Options{Workers: 1})
	eng.Profiles(pairs) // warm the proxy-cut caches

	st := tsdb.NewStore(tsdb.Options{})
	smp := tsdb.NewSampler(reg, st, time.Second)
	smp.SampleOnce(time.Unix(0, 0)) // sampled registry, quiesced between runs
	x, y := pairs[0].X, pairs[0].Y
	if n := testing.AllocsPerRun(200, func() { a.EvalProfile(x, y) }); n != 0 {
		t.Errorf("EvalProfile on a sampled registry: %.1f allocs/op, want 0", n)
	}
	smp.SampleOnce(time.Unix(0, int64(time.Second)))
	if got, ok := st.Latest("core.fused.comparisons"); !ok || got.V == 0 {
		t.Errorf("sampler missed the kernel's counters: %+v ok=%v", got, ok)
	}
}

// TestSamplerOverheadTiming: ns/cmp with a 1ms sampler must stay within 2×
// of the unsampled sweep. The bound is loose on purpose — shared CI boxes
// jitter far beyond the real overhead — but it still fails fast if sampling
// ever serializes with evaluation (which shows up as 10–1000×).
func TestSamplerOverheadTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	sweep := func(st bool) float64 {
		var store *tsdb.Store
		if st {
			store = tsdb.NewStore(tsdb.Options{})
		}
		_, ns := sampledSweep(obs.New(), store, 2)
		return ns
	}
	// Best-of-3 on each side squeezes scheduler noise out of the ratio. The
	// sides' repetitions interleave (unsampled, sampled, unsampled, …), so a
	// burst of host load slows both sides rather than one.
	plain, sampled := sweep(false), sweep(true)
	for i := 1; i < 3; i++ {
		plain = min(plain, sweep(false))
		sampled = min(sampled, sweep(true))
	}
	if plain <= 0 || sampled <= 0 {
		t.Fatalf("non-positive timings: plain=%v sampled=%v", plain, sampled)
	}
	if ratio := sampled / plain; ratio > 2.0 {
		t.Errorf("sampled/unsampled ns ratio = %.2f, want <= 2.0 (sampler on the hot path?)", ratio)
	}
}
