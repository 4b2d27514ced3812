package bench

import (
	"fmt"
	"runtime"
	"testing"

	"causet/internal/batch"
	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/sim"
)

// BenchmarkMatrix measures batch.Engine.Matrix per cell on the shape of the
// repository benchmark's offline-matrix workload at a smaller size: the
// rounds of a 16-process sim.Gossip execution as intervals, every ordered
// pair of rounds a cell, on a warm cut cache, at workers 1 and 2. Besides
// -benchmem's per-call columns it reports ns/cell and allocs/cell (from
// runtime.MemStats deltas around the timed loop).
func BenchmarkMatrix(b *testing.B) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: 16, Rounds: 128, Seed: 1})
	names := make([]string, len(res.Phases))
	ivs := make([]*interval.Interval, len(res.Phases))
	for i, ph := range res.Phases {
		names[i] = ph.Name
		ivs[i] = interval.MustNew(res.Exec, ph.Events)
	}
	cells := float64(len(ivs) * (len(ivs) - 1))
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := batch.New(core.NewAnalysis(res.Exec), batch.Options{Workers: workers})
			if _, _, err := eng.Matrix(names, ivs); err != nil { // warm the cut cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Matrix(names, ivs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			ops := float64(b.N) * cells
			b.ReportMetric(b.Elapsed().Seconds()*1e9/ops, "ns/cell")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/ops, "allocs/cell")
		})
	}
}
