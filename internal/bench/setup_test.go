package bench

import (
	"bytes"
	"testing"

	"causet/internal/core"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/trace"
)

// BenchmarkSetup measures the offline set-up path stage by stage on the
// input of the repository benchmark's offline-matrix workload: a
// 16-process sim.Gossip execution of 1,300 rounds (seed 3), each round a
// named interval, as trace JSON bytes. decode is trace.ReadJSON, execution
// is File.Execution (the poset build and its Kahn pass), analysis is
// core.NewAnalysis (vclock.New) and intervals is File.AllIntervals.
func BenchmarkSetup(b *testing.B) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: 16, Rounds: 1300, Seed: 3})
	named := make(map[string][]poset.EventID, len(res.Phases))
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	var buf bytes.Buffer
	if err := trace.New(res.Exec, named).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	input := buf.Bytes()
	f, err := trace.ReadJSON(bytes.NewReader(input))
	if err != nil {
		b.Fatal(err)
	}
	ex, err := f.Execution()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			if _, err := trace.ReadJSON(bytes.NewReader(input)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execution", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Execution(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analysis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.NewAnalysis(ex)
		}
	})
	b.Run("intervals", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.AllIntervals(ex); err != nil {
				b.Fatal(err)
			}
		}
	})
}
