package bench

import (
	"runtime"
	"time"

	"causet/internal/batch"
	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/sim"
)

// ProfileRow is one point of experiment E10: the fused 32-relation profile
// kernel (core.EvalProfile via batch.Engine.Profiles) against the
// per-relation scan (scanProfiles: 32 independent EvalRel32Count calls per
// pair) on the E7 ring workload at |N_X| = |N_Y| = N. Costs are per
// profile, i.e. per ordered pair × all 32 relations of ℛ. The Legacy
// columns are the scan's.
type ProfileRow struct {
	N            int
	Pairs        int     // ordered round pairs per batch
	FusedNs      float64 // ns per profile, fused kernel
	LegacyNs     float64 // ns per profile, 32 independent scans
	FusedCmp     float64 // comparisons per profile, fused
	LegacyCmp    float64 // comparisons per profile, scan
	FusedAllocs  float64 // heap allocations per profile, fused
	LegacyAllocs float64 // heap allocations per profile, scan
	FusedBytes   float64 // heap bytes per profile, fused
	LegacyBytes  float64 // heap bytes per profile, scan
	Speedup      float64 // LegacyNs / FusedNs
	Agree        bool    // identical masks on every pair
}

// profilePairs builds the E10 workload at size n: the rounds of a ring
// execution as intervals, paired over every ordered round pair.
func profilePairs(n int, seed int64) (*sim.Result, []batch.Pair) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: n, Rounds: 8, Seed: seed})
	ivs := make([]*interval.Interval, 0, len(res.Phases))
	for _, ph := range res.Phases {
		ivs = append(ivs, interval.MustNew(res.Exec, ph.Events))
	}
	var pairs []batch.Pair
	for i, x := range ivs {
		for j, y := range ivs {
			if i != j {
				pairs = append(pairs, batch.Pair{X: x, Y: y})
			}
		}
	}
	return res, pairs
}

// scanProfiles is the E10 baseline: it decides the 32 relations of ℛ for
// every pair with one EvalRel32Count scan each under the fast evaluator,
// writes each pair's mask (bit i set iff core.AllRel32()[i] holds) into
// masks, and returns the number of holding relations and the comparisons
// spent. The pairs must not overlap.
func scanProfiles(a *core.Analysis, pairs []batch.Pair, masks []uint32) (held, cmp int64) {
	ev := core.NewFast(a)
	all := core.AllRel32()
	for i, p := range pairs {
		var mask uint32
		for bit, r := range all {
			ok, checks, err := a.EvalRel32Count(ev, r, p.X, p.Y, interval.DefPerNode)
			if err != nil {
				// Per-node proxies of valid intervals are never empty.
				panic(err)
			}
			cmp += checks
			if ok {
				mask |= 1 << uint(bit)
				held++
			}
		}
		masks[i] = mask
	}
	return held, cmp
}

// ProfileSweep runs E10: for each N it profiles every ordered round pair of
// the ring workload through the fused kernel, on a serial (Workers: 1)
// engine, and through scanProfiles, both over one Analysis per size — both
// paths hit the same warm proxy-cut cache, so the measured gap is the
// kernel itself, not cache effects. Per-profile allocations and bytes come
// from runtime.MemStats deltas around the timed loop (single-threaded, so
// the deltas are exact).
func ProfileSweep(ns []int, reps int, seed int64) []ProfileRow {
	return ProfileSweepObs(ns, reps, seed, nil, nil)
}

// ProfileSweepObs is ProfileSweep with the per-size Analysis and the fused
// engine instrumented against reg and tr (either may be nil): the registry
// accumulates the core.* evaluator and kernel counters and the batch.*
// engine counters across the sweep, which benchtab -json snapshots into its
// report.
func ProfileSweepObs(ns []int, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) []ProfileRow {
	if reps < 1 {
		reps = 1
	}
	rows := make([]ProfileRow, 0, len(ns))
	for _, n := range ns {
		res, pairs := profilePairs(n, seed)
		a := core.NewAnalysis(res.Exec)
		a.Instrument(reg, tr)
		fused := batch.New(a, batch.Options{Workers: 1, Metrics: reg, Tracer: tr})
		masks := make([]uint32, len(pairs))
		fusedPass := func() int64 {
			_, st := fused.Profiles(pairs)
			return st.Comparisons
		}
		scanPass := func() int64 {
			_, cmp := scanProfiles(a, pairs, masks)
			return cmp
		}

		// Warm the cut and proxy-cut caches out of the timed loops, and
		// cross-check the two paths pair-for-pair while at it.
		fp, _ := fused.Profiles(pairs)
		scanPass()
		agree := true
		for i := range pairs {
			if fp[i].Bits != masks[i] {
				agree = false
				break
			}
		}

		measure := func(pass func() int64) (nsOp, cmpOp, allocsOp, bytesOp float64) {
			ops := float64(reps) * float64(len(pairs))
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var cmp int64
			start := time.Now()
			for i := 0; i < reps; i++ {
				cmp += pass()
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			nsOp = float64(elapsed.Nanoseconds()) / ops
			cmpOp = float64(cmp) / ops
			allocsOp = float64(m1.Mallocs-m0.Mallocs) / ops
			bytesOp = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
			return
		}

		row := ProfileRow{N: n, Pairs: len(pairs), Agree: agree}
		row.FusedNs, row.FusedCmp, row.FusedAllocs, row.FusedBytes = measure(fusedPass)
		row.LegacyNs, row.LegacyCmp, row.LegacyAllocs, row.LegacyBytes = measure(scanPass)
		if row.FusedNs > 0 {
			row.Speedup = row.LegacyNs / row.FusedNs
		}
		rows = append(rows, row)
	}
	return rows
}
