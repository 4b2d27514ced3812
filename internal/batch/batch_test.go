package batch

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/poset"
	"causet/internal/poset/posettest"
	"causet/internal/sim"
)

// evaluators are the three differential peers; every batch verdict must be
// identical under all of them (the paper's Table 1 equivalence, now asserted
// under concurrency).
var evaluators = map[string]func(*core.Analysis) core.Evaluator{
	"naive": func(a *core.Analysis) core.Evaluator { return core.NewNaive(a) },
	"proxy": func(a *core.Analysis) core.Evaluator { return core.NewProxy(a) },
	"fast":  func(a *core.Analysis) core.Evaluator { return core.NewFast(a) },
}

// randomWorkload draws a random execution plus a set of pairwise-disjoint
// intervals and the full pair×relation query list over them.
func randomWorkload(r *rand.Rand) (*core.Analysis, []*interval.Interval, []Query) {
	for {
		ex := posettest.Random(r, 2+r.Intn(5), 12+r.Intn(30), 0.45)
		sets := posettest.DisjointN(r, ex, 4, 4)
		if sets == nil {
			continue
		}
		ivs := make([]*interval.Interval, 0, len(sets))
		for _, s := range sets {
			if len(s) == 0 {
				ivs = nil
				break
			}
			ivs = append(ivs, interval.MustNew(ex, s))
		}
		if ivs == nil {
			continue
		}
		var pairs []Pair
		for i, x := range ivs {
			for j, y := range ivs {
				if i != j {
					pairs = append(pairs, Pair{X: x, Y: y})
				}
			}
		}
		return core.NewAnalysis(ex), ivs, PairQueries(pairs, core.Relations())
	}
}

// TestDifferentialEvaluatorAgreement runs the three evaluators concurrently
// over the same randomized batches on one shared Analysis and asserts they
// return identical verdicts query-for-query (run with -race: this is also
// the engine's concurrency-safety certificate).
func TestDifferentialEvaluatorAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		a, _, qs := randomWorkload(r)
		got := make(map[string]*Results, len(evaluators))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for name, ne := range evaluators {
			wg.Add(1)
			go func(name string, ne func(*core.Analysis) core.Evaluator) {
				defer wg.Done()
				res := New(a, Options{Workers: 4, NewEvaluator: ne}).EvalQueries(qs)
				mu.Lock()
				got[name] = res
				mu.Unlock()
			}(name, ne)
		}
		wg.Wait()
		for i := range qs {
			nv := got["naive"].Results[i]
			pv := got["proxy"].Results[i]
			fv := got["fast"].Results[i]
			if nv.Err != nil || pv.Err != nil || fv.Err != nil {
				t.Fatalf("trial %d query %d: unexpected error %v/%v/%v", trial, i, nv.Err, pv.Err, fv.Err)
			}
			if nv.Held != pv.Held || pv.Held != fv.Held {
				t.Fatalf("trial %d: evaluators disagree on %v: naive=%v proxy=%v fast=%v",
					trial, qs[i], nv.Held, pv.Held, fv.Held)
			}
		}
		if nh, fh := got["naive"].Stats.Held, got["fast"].Stats.Held; nh != fh {
			t.Fatalf("trial %d: held tallies differ: naive=%d fast=%d", trial, nh, fh)
		}
	}
}

// TestWorkerIndependence is the determinism property: the full Results
// value — verdicts, per-query comparison counts, and aggregate stats — is
// identical for every worker count.
func TestWorkerIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 15; trial++ {
		ex := posettest.Random(r, 2+r.Intn(5), 12+r.Intn(30), 0.45)
		sets := posettest.DisjointN(r, ex, 4, 4)
		if sets == nil || len(sets[0]) == 0 || len(sets[1]) == 0 || len(sets[2]) == 0 || len(sets[3]) == 0 {
			continue
		}
		ivs := make([]*interval.Interval, len(sets))
		for i, s := range sets {
			ivs[i] = interval.MustNew(ex, s)
		}
		var pairs []Pair
		for i, x := range ivs {
			for j, y := range ivs {
				if i != j {
					pairs = append(pairs, Pair{X: x, Y: y})
				}
			}
		}
		qs := PairQueries(pairs, core.Relations())
		a := core.NewAnalysis(ex)
		var want *Results
		for _, workers := range workerCounts {
			res := New(a, Options{Workers: workers}).EvalQueries(qs)
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(want.Results, res.Results) {
				t.Fatalf("trial %d: results differ at workers=%d", trial, workers)
			}
			if want.Stats != res.Stats {
				t.Fatalf("trial %d: stats differ at workers=%d: %+v vs %+v",
					trial, workers, want.Stats, res.Stats)
			}
		}
	}
}

// reverseInterval maps an interval of ex onto the mirrored events of the
// reversed execution.
func reverseInterval(ex, rev *poset.Execution, iv *interval.Interval) *interval.Interval {
	events := make([]poset.EventID, 0, iv.Size())
	for _, e := range iv.Events() {
		events = append(events, poset.ReverseID(ex, e))
	}
	return interval.MustNew(rev, events)
}

// TestDualityMetamorphic uses time reversal as a metamorphic oracle for
// whole batches: rel(X, Y) on ex must equal hierarchy.Converse(rel)(Y', X')
// on poset.Reverse(ex), query-for-query, when both batches run in parallel.
func TestDualityMetamorphic(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for trial := 0; trial < 20; trial++ {
		a, _, qs := randomWorkload(r)
		ex := a.Execution()
		rev := poset.Reverse(ex)
		arev := core.NewAnalysis(rev)
		dual := make([]Query, len(qs))
		for i, q := range qs {
			dual[i] = Query{
				Rel: hierarchy.Converse(q.Rel),
				X:   reverseInterval(ex, rev, q.Y),
				Y:   reverseInterval(ex, rev, q.X),
			}
		}
		fwd := New(a, Options{Workers: 4}).EvalQueries(qs)
		bwd := New(arev, Options{Workers: 4}).EvalQueries(dual)
		for i := range qs {
			if fwd.Results[i].Err != nil || bwd.Results[i].Err != nil {
				t.Fatalf("trial %d query %d: unexpected error", trial, i)
			}
			if fwd.Results[i].Held != bwd.Results[i].Held {
				t.Fatalf("trial %d: %v=%v but dual %v(Y',X')=%v on reversed execution",
					trial, qs[i].Rel, fwd.Results[i].Held, dual[i].Rel, bwd.Results[i].Held)
			}
		}
	}
}

// TestEvalQueriesRejectsOverlapAndForeign covers the reject paths: an
// overlapping pair yields *core.ErrOverlap in place, a foreign interval an
// error, and both are tallied without disturbing neighboring results.
func TestEvalQueriesRejectsOverlapAndForeign(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a, ivs, _ := randomWorkload(r)
	ex := a.Execution()
	overlapping, err := ivs[0].Union(ivs[1])
	if err != nil {
		t.Fatal(err)
	}
	other := posettest.Random(r, 2, 6, 0.3)
	foreign := interval.MustNew(other, other.RealEvents()[:1])
	qs := []Query{
		{Rel: core.R4, X: ivs[0], Y: ivs[1]},
		{Rel: core.R4, X: ivs[0], Y: overlapping},
		{Rel: core.R4, X: foreign, Y: ivs[1]},
	}
	res := New(a, Options{Workers: 2}).EvalQueries(qs)
	if res.Results[0].Err != nil {
		t.Fatalf("disjoint query rejected: %v", res.Results[0].Err)
	}
	var ovl *core.ErrOverlap
	if !errors.As(res.Results[1].Err, &ovl) {
		t.Fatalf("overlap query: got %v, want *core.ErrOverlap", res.Results[1].Err)
	}
	if res.Results[2].Err == nil {
		t.Fatalf("foreign-execution query accepted")
	}
	if res.Stats.Errors != 2 || res.Stats.Queries != 3 {
		t.Fatalf("stats = %+v, want 2 errors over 3 queries", res.Stats)
	}
	_ = ex
}

// TestProfilesMatchesHoldingRel32 checks the parallel 32-relation profiles
// against the serial core.HoldingRel32, and the overlap reject path.
func TestProfilesMatchesHoldingRel32(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		a, ivs, _ := randomWorkload(r)
		pairs := []Pair{{X: ivs[0], Y: ivs[1]}, {X: ivs[2], Y: ivs[3]}, {X: ivs[1], Y: ivs[2]}}
		profiles, stats := New(a, Options{Workers: 4}).Profiles(pairs)
		fast := core.NewFast(a)
		for i, p := range pairs {
			want := a.HoldingRel32(fast, p.X, p.Y)
			if !reflect.DeepEqual(profiles[i].Holding, want) {
				t.Fatalf("trial %d pair %d: profile %v, want %v", trial, i, profiles[i].Holding, want)
			}
			var bits uint32
			for bit, r32 := range core.AllRel32() {
				for _, h := range want {
					if h == r32 {
						bits |= 1 << uint(bit)
					}
				}
			}
			if profiles[i].Bits != bits {
				t.Fatalf("trial %d pair %d: bits %032b, want %032b", trial, i, profiles[i].Bits, bits)
			}
		}
		if stats.Queries != int64(len(pairs)) {
			t.Fatalf("stats.Queries = %d, want %d", stats.Queries, len(pairs))
		}

		overlapping, err := ivs[0].Union(ivs[1])
		if err != nil {
			t.Fatal(err)
		}
		profiles, stats = New(a, Options{Workers: 2}).Profiles([]Pair{{X: ivs[0], Y: overlapping}})
		var ovl *core.ErrOverlap
		if !errors.As(profiles[0].Err, &ovl) || len(profiles[0].Holding) != 0 {
			t.Fatalf("overlapping pair: got %+v, want ErrOverlap and empty profile", profiles[0])
		}
		if stats.Errors != 1 {
			t.Fatalf("stats = %+v, want one error", stats)
		}
	}
}

// TestMatrixMatchesSummarize checks that the parallel all-pairs matrix
// renders byte-identically to the serial hierarchy.Summarize, including
// overlap cells, for every worker count.
func TestMatrixMatchesSummarize(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		a, ivs, _ := randomWorkload(r)
		// Append an overlapping interval so "ovl" cells are exercised.
		overlapping, err := ivs[0].Union(ivs[1])
		if err != nil {
			t.Fatal(err)
		}
		ivs = append(ivs, overlapping)
		names := []string{"a", "b", "c", "d", "ovl"}
		want, err := hierarchy.Summarize(a, core.NewFast(a), names, ivs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			got, _, err := New(a, Options{Workers: workers}).Matrix(names, ivs)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("trial %d workers=%d: matrix differs from Summarize:\n%s\nwant:\n%s",
					trial, workers, got.String(), want.String())
			}
		}
	}
	if _, _, err := New(core.NewAnalysis(posettest.Random(r, 2, 4, 0.3)), Options{}).Matrix([]string{"a"}, nil); err == nil {
		t.Fatalf("mismatched names/intervals accepted")
	}
}

// TestMatrixNamesForeignInterval: an interval of another execution is
// reported under its own name wherever it sits, not under its row's.
func TestMatrixNamesForeignInterval(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	a, ivs, _ := randomWorkload(r)
	_, others, _ := randomWorkload(r)
	for _, at := range []int{1, 2, 4} {
		mixed := slices.Insert(slices.Clone(ivs), at, others[0])
		names := slices.Insert([]string{"a", "b", "c", "d"}, at, "foreign")
		for _, workers := range []int{1, 4} {
			_, _, err := New(a, Options{Workers: workers}).Matrix(names, mixed)
			want := `batch: interval "foreign" from a different execution`
			if err == nil || err.Error() != want {
				t.Errorf("foreign interval at %d, workers=%d: err = %v, want %q", at, workers, err, want)
			}
		}
	}
}

// TestMatrixAllocs pins the fused matrix to its kernel: on a warm cut cache
// a call allocates the matrix rows and a fixed handful of values, nothing
// per cell. The matrix must still equal hierarchy.Summarize.
func TestMatrixAllocs(t *testing.T) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: 8, Rounds: 64, Seed: 5})
	names := make([]string, len(res.Phases))
	ivs := make([]*interval.Interval, len(res.Phases))
	for i, ph := range res.Phases {
		names[i] = ph.Name
		ivs[i] = interval.MustNew(res.Exec, ph.Events)
	}
	a := core.NewAnalysis(res.Exec)
	want, err := hierarchy.Summarize(a, core.NewFast(a), names, ivs)
	if err != nil {
		t.Fatal(err)
	}
	cells := float64(len(ivs) * (len(ivs) - 1))
	for _, workers := range []int{1, 2} {
		eng := New(core.NewAnalysis(res.Exec), Options{Workers: workers})
		got, _, err := eng.Matrix(names, ivs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: matrix differs from Summarize:\n%s\nwant:\n%s", workers, got, want)
		}
		perCell := testing.AllocsPerRun(5, func() {
			if _, _, err := eng.Matrix(names, ivs); err != nil {
				t.Fatal(err)
			}
		}) / cells
		if perCell > 0.05 {
			t.Errorf("workers=%d: %.3f allocations per cell, want ≤ 0.05", workers, perCell)
		}
	}
}

// TestSharedAnalysisStress hammers one Analysis from many engines
// at once and asserts the build-once guarantee: the number of cut builds
// equals the number of distinct intervals, not the number of queriers.
func TestSharedAnalysisStress(t *testing.T) {
	r := rand.New(rand.NewSource(331))
	ex := posettest.Random(r, 6, 120, 0.5)
	sets := posettest.DisjointN(r, ex, 12, 6)
	if sets == nil {
		t.Fatal("workload generation failed")
	}
	ivs := make([]*interval.Interval, len(sets))
	for i, s := range sets {
		ivs[i] = interval.MustNew(ex, s)
	}
	var pairs []Pair
	for i, x := range ivs {
		for j, y := range ivs {
			if i != j {
				pairs = append(pairs, Pair{X: x, Y: y})
			}
		}
	}
	qs := PairQueries(pairs, core.Relations())
	a := core.NewAnalysis(ex)
	var wg sync.WaitGroup
	results := make([]*Results, 6)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = New(a, Options{Workers: 4}).EvalQueries(qs)
		}(g)
	}
	wg.Wait()
	// 32-relation proxies build extra per-proxy intervals, so only the
	// plain-relation path runs here: builds must equal |ivs| exactly.
	if got := a.CutBuilds(); got != int64(len(ivs)) {
		t.Fatalf("%d cut builds for %d distinct intervals", got, len(ivs))
	}
	for g := 1; g < len(results); g++ {
		if !reflect.DeepEqual(results[0].Results, results[g].Results) {
			t.Fatal("concurrent engines disagree")
		}
	}
}

// TestFusedMatchesLegacyScan is the engine-level differential for the fused
// kernels: Profiles and Matrix on the default (fast-evaluator) engine must
// be result-identical to engines over the naive and proxy evaluators, which
// scan relation by relation, while the fused profile and Table 1 kernels
// spend fewer comparisons than the same per-relation scans under the fast
// evaluator. (Matrix's own comparisons are the sweep's, bounded by
// TestMatrixSweepBounds.)
func TestFusedMatchesLegacyScan(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	names := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 10; trial++ {
		a, ivs, _ := randomWorkload(r)
		var pairs []Pair
		for i, x := range ivs {
			for j, y := range ivs {
				if i != j {
					pairs = append(pairs, Pair{X: x, Y: y})
				}
			}
		}
		fused := New(a, Options{Workers: 4})
		fp, fs := fused.Profiles(pairs)
		fm, fms, err := fused.Matrix(names, ivs)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"naive", "proxy"} {
			scan := New(a, Options{Workers: 4, NewEvaluator: evaluators[name]})
			sp, ss := scan.Profiles(pairs)
			for i := range pairs {
				if fp[i].Bits != sp[i].Bits {
					t.Fatalf("trial %d pair %d: masks differ: fused=%032b %s=%032b",
						trial, i, fp[i].Bits, name, sp[i].Bits)
				}
				if !reflect.DeepEqual(fp[i].Holding, sp[i].Holding) {
					t.Fatalf("trial %d pair %d: holding differs: fused=%v %s=%v",
						trial, i, fp[i].Holding, name, sp[i].Holding)
				}
			}
			if fs.Held != ss.Held || fs.Queries != ss.Queries {
				t.Fatalf("trial %d: stats differ: fused=%+v %s=%+v", trial, fs, name, ss)
			}
			sm, sms, err := scan.Matrix(names, ivs)
			if err != nil {
				t.Fatal(err)
			}
			if fm.String() != sm.String() {
				t.Fatalf("trial %d: fused matrix differs from %s:\n%s\nwant:\n%s",
					trial, name, fm.String(), sm.String())
			}
			if fms.Held != sms.Held {
				t.Fatalf("trial %d: matrix held tallies differ: fused=%d %s=%d",
					trial, fms.Held, name, sms.Held)
			}
		}

		// The comparison budgets of the per-relation scans the kernel
		// replaces: 32 EvalRel32Count calls per profile pair, and one
		// EvalCount per canonical relation per pair against the fused
		// Table 1 kernel (core.Analysis.EvalTable1) on the same pair.
		ev := core.NewFast(a)
		var scanCmp, cellCmp, kernelCmp int64
		for _, p := range pairs {
			if p.X.Overlaps(p.Y) {
				continue
			}
			for _, rel := range core.AllRel32() {
				_, checks, err := a.EvalRel32Count(ev, rel, p.X, p.Y, interval.DefPerNode)
				if err != nil {
					t.Fatal(err)
				}
				scanCmp += checks
			}
			for _, rel := range hierarchy.Canonical() {
				_, checks := ev.EvalCount(rel, p.X, p.Y)
				cellCmp += checks
			}
			_, checks := a.EvalTable1(p.X, p.Y)
			kernelCmp += checks
		}
		if fs.Comparisons >= scanCmp {
			t.Fatalf("trial %d: fused profiles spent %d comparisons, the scan %d — no win",
				trial, fs.Comparisons, scanCmp)
		}
		// The scan decides only the six canonical relations while the fused
		// kernel decides all eight, so tiny workloads can tie; the kernel
		// must simply never spend more.
		if kernelCmp > cellCmp {
			t.Fatalf("trial %d: fused Table 1 kernel spent %d comparisons, the scan %d — regression",
				trial, kernelCmp, cellCmp)
		}
	}
}
