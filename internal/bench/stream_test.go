package bench

import (
	"testing"

	"causet/internal/sim"
)

// TestStreamSweepAgreesAndSpeedsUp runs a small E14 grid and asserts the
// correctness half of the experiment: the online monitor and the cold
// recompute settle every condition with identical verdicts, and the
// measured quantities are sane.
func TestStreamSweepAgreesAndSpeedsUp(t *testing.T) {
	rows, err := StreamSweep([]StreamConfig{{Procs: 4, Rounds: 2}, {Procs: 4, Rounds: 8}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows; want 2", len(rows))
	}
	for _, r := range rows {
		if !r.Agree {
			t.Errorf("procs=%d rounds=%d: verdict vectors diverge between the online monitor and the cold recompute", r.Procs, r.Rounds)
		}
		if r.Events != r.Procs*r.Rounds*2 {
			t.Errorf("procs=%d rounds=%d: %d events; want %d", r.Procs, r.Rounds, r.Events, r.Procs*r.Rounds*2)
		}
		if r.IncNs <= 0 || r.LegNs <= 0 || r.IncEvSec <= 0 || r.LegEvSec <= 0 {
			t.Errorf("procs=%d rounds=%d: non-positive timings: %+v", r.Procs, r.Rounds, r)
		}
	}
}

// BenchmarkStreamIncremental measures the full online monitor loop (append
// + Observe/Complete + Poll per event); one op is one monitored replay of
// the 4×8 ring workload.
func BenchmarkStreamIncremental(b *testing.B) {
	benchmarkStream(b, func(res *sim.Result, conds [][2]string) (streamRun, error) {
		return runStream(res, conds, nil, nil)
	})
}

// BenchmarkStreamLegacy is the same replay through the cold-recompute
// baseline (runCold) — the E14 baseline.
func BenchmarkStreamLegacy(b *testing.B) {
	benchmarkStream(b, runCold)
}

func benchmarkStream(b *testing.B, run func(*sim.Result, [][2]string) (streamRun, error)) {
	res, conds := streamWorkload(StreamConfig{Procs: 4, Rounds: 8}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(res, conds); err != nil {
			b.Fatal(err)
		}
	}
}
