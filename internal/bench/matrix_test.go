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
// pair of rounds a cell, at workers 1 and 2. The warm legs reuse one
// Analysis whose cut cache an untimed call filled; the cold legs take a
// fresh Analysis per iteration (built untimed), so each timed call also
// builds every interval's cuts — the call offline-matrix times. Besides
// -benchmem's per-call columns it reports ns/cell, allocs/cell (from
// runtime.MemStats deltas over the timed calls) and words/cell, the
// sweep's plane words (Stats.SweepWords) per cell.
func BenchmarkMatrix(b *testing.B) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: 16, Rounds: 128, Seed: 1})
	names := make([]string, len(res.Phases))
	ivs := make([]*interval.Interval, len(res.Phases))
	for i, ph := range res.Phases {
		names[i] = ph.Name
		ivs[i] = interval.MustNew(res.Exec, ph.Events)
	}
	cells := float64(len(ivs) * (len(ivs) - 1))
	for _, cold := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			leg := "warm"
			if cold {
				leg = "cold"
			}
			b.Run(fmt.Sprintf("%s/workers=%d", leg, workers), func(b *testing.B) {
				opts := batch.Options{Workers: workers}
				eng := batch.New(core.NewAnalysis(res.Exec), opts)
				if _, _, err := eng.Matrix(names, ivs); err != nil { // warm the cut cache
					b.Fatal(err)
				}
				b.ReportAllocs()
				// mallocs accumulates the allocations of the timed calls only.
				var ms runtime.MemStats
				var mallocs uint64
				var words int64
				b.ResetTimer()
				runtime.ReadMemStats(&ms)
				mallocs -= ms.Mallocs
				for i := 0; i < b.N; i++ {
					if cold {
						b.StopTimer()
						runtime.ReadMemStats(&ms)
						mallocs += ms.Mallocs
						eng = batch.New(core.NewAnalysis(res.Exec), opts)
						runtime.ReadMemStats(&ms)
						mallocs -= ms.Mallocs
						b.StartTimer()
					}
					_, st, err := eng.Matrix(names, ivs)
					if err != nil {
						b.Fatal(err)
					}
					words += st.SweepWords
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs
				ops := float64(b.N) * cells
				b.ReportMetric(b.Elapsed().Seconds()*1e9/ops, "ns/cell")
				b.ReportMetric(float64(mallocs)/ops, "allocs/cell")
				b.ReportMetric(float64(words)/ops, "words/cell")
			})
		}
	}
}
