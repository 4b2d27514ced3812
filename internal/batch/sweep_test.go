package batch

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/sim"
)

// phaseFamily returns a sim execution's phases as a named interval family,
// followed by a duplicate of the first phase under another name and the
// union of the first two phases, so duplicate and overlap cells occur.
func phaseFamily(t *testing.T, cfg sim.Config) (*sim.Result, []string, []*interval.Interval) {
	t.Helper()
	res := sim.MustGenerate(cfg)
	var names []string
	var ivs []*interval.Interval
	for _, ph := range res.Phases {
		names = append(names, ph.Name)
		ivs = append(ivs, interval.MustNew(res.Exec, ph.Events))
	}
	union, err := ivs[0].Union(ivs[1])
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, "dup", "union")
	ivs = append(ivs, interval.MustNew(res.Exec, ivs[0].Events()), union)
	return res, names, ivs
}

// kernelMatrix is the per-cell oracle for the sweep: every cell decided by
// the fused Table 1 kernel (core.Analysis.EvalTable1) after an Overlaps
// check, with the canonical relations it holds tallied as Held.
func kernelMatrix(a *core.Analysis, ivs []*interval.Interval) ([][]hierarchy.Cell, int64) {
	var canon uint8
	for _, r := range hierarchy.Canonical() {
		canon |= 1 << uint(r)
	}
	var held int64
	cells := make([][]hierarchy.Cell, len(ivs))
	for i, x := range ivs {
		cells[i] = make([]hierarchy.Cell, len(ivs))
		for j, y := range ivs {
			switch {
			case i == j:
			case x.Overlaps(y):
				cells[i][j].Overlap = true
			default:
				v, _ := a.EvalTable1(x, y)
				v &= canon
				held += int64(bits.OnesCount8(v))
				cells[i][j].Strongest = hierarchy.StrongestOf(v)
			}
		}
	}
	return cells, held
}

var sweepShapes = []sim.Config{
	{Pattern: sim.Gossip, Procs: 16, Rounds: 130, Seed: 3},
	{Pattern: sim.Ring, Procs: 6, Rounds: 62, Seed: 1},
	{Pattern: sim.Broadcast, Procs: 5, Rounds: 63, Seed: 2},
	{Pattern: sim.Pipeline, Procs: 7, Rounds: 64, Seed: 4},
	{Pattern: sim.ClientServer, Procs: 9, Rounds: 20, Seed: 5},
	{Pattern: sim.Periodic, Procs: 4, Rounds: 40, Seed: 6},
	{Pattern: sim.Barrier, Procs: 5, Rounds: 33, Seed: 7},
}

// TestMatrixMatchesTable1Kernel checks the sweep cell for cell against the
// per-cell fused kernel it replaced, on every sim pattern, with families
// crossing the 64-column word boundary, at workers 1, 2 and 3; Held must
// match the kernel's tally.
func TestMatrixMatchesTable1Kernel(t *testing.T) {
	for _, cfg := range sweepShapes {
		res, names, ivs := phaseFamily(t, cfg)
		a := core.NewAnalysis(res.Exec)
		want, wantHeld := kernelMatrix(a, ivs)
		for _, workers := range []int{1, 2, 3} {
			pm, st, err := New(a, Options{Workers: workers}).Matrix(names, ivs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for j := range want[i] {
					if !reflect.DeepEqual(pm.Cells[i][j], want[i][j]) {
						t.Fatalf("%v workers=%d: cell %s→%s = %v, kernel %v",
							cfg.Pattern, workers, names[i], names[j], pm.Cells[i][j], want[i][j])
					}
				}
			}
			if st.Held != wantHeld {
				t.Errorf("%v workers=%d: Held = %d, kernel %d", cfg.Pattern, workers, st.Held, wantHeld)
			}
		}
	}
}

// TestMatrixSweepBounds pins the sweep's accounting to closed forms in |P|
// and n. Per node, each of the six walks merges a row order of at most n
// intervals against a column order of at most n, one comparison per step,
// so Comparisons ≤ 12·|P|·n; each walk applies its running bitset to a row
// at most once, so SweepWords ≤ 6·|P|·n·⌈n/64⌉. Both counts, and the whole
// Stats, are independent of the worker count, and both are positive on a
// real workload, so the bounds are not met vacuously.
func TestMatrixSweepBounds(t *testing.T) {
	for _, cfg := range sweepShapes {
		res, names, ivs := phaseFamily(t, cfg)
		n, procs := int64(len(ivs)), int64(res.Exec.NumProcs())
		reg := obs.New()
		var first Stats
		for k, workers := range []int{1, 2, 3} {
			_, st, err := New(core.NewAnalysis(res.Exec), Options{Workers: workers, Metrics: reg}).Matrix(names, ivs)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				first = st
			} else if st != first {
				t.Fatalf("%v: stats differ at workers=%d: %+v vs %+v", cfg.Pattern, workers, st, first)
			}
		}
		if first.Queries != n*(n-1) {
			t.Errorf("%v: Queries = %d, want n(n-1) = %d", cfg.Pattern, first.Queries, n*(n-1))
		}
		if c, bound := first.Comparisons, 12*procs*n; c <= 0 || c > bound {
			t.Errorf("%v: Comparisons = %d, want in (0, 12·|P|·n = %d]", cfg.Pattern, c, bound)
		}
		if w, bound := first.SweepWords, 6*procs*n*((n+63)/64); w <= 0 || w > bound {
			t.Errorf("%v: SweepWords = %d, want in (0, 6·|P|·n·⌈n/64⌉ = %d]", cfg.Pattern, w, bound)
		}
		if got := reg.Counter("batch.sweep_words").Value(); got != 3*first.SweepWords {
			t.Errorf("%v: batch.sweep_words = %d over three calls, want %d", cfg.Pattern, got, 3*first.SweepWords)
		}
		if got := reg.Counter("batch.comparisons").Value(); got != 3*first.Comparisons {
			t.Errorf("%v: batch.comparisons = %d over three calls, want %d", cfg.Pattern, got, 3*first.Comparisons)
		}
	}
}

// matrixFamily grows a random execution through one poset.Builder, taking a
// view halfway (a prefix of the final view) and one at the end, and draws a
// family of size intervals over it: random event sets (which may overlap),
// one-node intervals, intervals on the halfway view, and duplicates of an
// earlier member's events under a new name. It returns the final view and
// the named family.
func matrixFamily(r *rand.Rand, procs, events, size int, msgProb float64) (*poset.Execution, []string, []*interval.Interval) {
	b := poset.NewBuilder(procs)
	lastOn := make([]poset.EventID, procs)
	var half *poset.Execution
	for i := 0; i < events; i++ {
		if i == events/2 {
			half = mustView(b)
		}
		p := r.Intn(procs)
		if q := r.Intn(procs); q != p && lastOn[q].Pos > 0 && r.Float64() < msgProb {
			recv := b.Append(p)
			if err := b.Message(lastOn[q], recv); err != nil {
				panic(err)
			}
			lastOn[p] = recv
			continue
		}
		lastOn[p] = b.Append(p)
	}
	full := mustView(b)
	pick := func(ex *poset.Execution, node int) *interval.Interval {
		var pool []poset.EventID
		for _, e := range ex.RealEvents() {
			if node < 0 || e.Proc == node {
				pool = append(pool, e)
			}
		}
		if len(pool) == 0 {
			pool = full.RealEvents()
			ex = full
		}
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		return interval.MustNew(ex, pool[:1+r.Intn(min(4, len(pool)))])
	}
	names := make([]string, size)
	ivs := make([]*interval.Interval, size)
	for k := range ivs {
		names[k] = fmt.Sprint("i", k)
		switch kind := r.Intn(8); {
		case kind == 0 && k > 0:
			prev := ivs[r.Intn(k)]
			ivs[k] = interval.MustNew(prev.Execution(), prev.Events())
		case kind == 1:
			ivs[k] = pick(full, r.Intn(procs))
		case kind <= 3:
			ivs[k] = pick(half, -1)
		default:
			ivs[k] = pick(full, -1)
		}
	}
	return full, names, ivs
}

func mustView(b *poset.Builder) *poset.Execution {
	ex, err := b.View()
	if err != nil {
		panic(err)
	}
	return ex
}

// FuzzMatrixAgreement is the differential fuzz target for the sweep: on a
// fuzzed execution and interval family — overlapping intervals, duplicates,
// one-node intervals, intervals of a prefix view, and family sizes around
// the 64-column word boundary — Matrix at workers 1 and 3 must equal
// hierarchy.Summarize over the naive evaluator cell for cell, with the same
// Stats at both worker counts.
func FuzzMatrixAgreement(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40), uint8(100), uint8(0))
	f.Add(int64(2), uint8(4), uint8(60), uint8(160), uint8(1))
	f.Add(int64(3), uint8(2), uint8(30), uint8(60), uint8(2))
	f.Add(int64(4), uint8(5), uint8(80), uint8(200), uint8(3))
	f.Add(int64(5), uint8(1), uint8(50), uint8(128), uint8(4))
	f.Add(int64(6), uint8(0), uint8(20), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, procsB, eventsB, msgProbB, sizeB uint8) {
		sizes := []int{0, 1, 63, 64, 65}
		size := 2 + int(sizeB)%9
		if k := int(sizeB) % 8; k < len(sizes) {
			size = sizes[k]
		}
		r := rand.New(rand.NewSource(seed))
		ex, names, ivs := matrixFamily(r, 1+int(procsB%6), 4+int(eventsB%60), size, float64(msgProbB)/255)
		a := core.NewAnalysis(ex)
		want, err := hierarchy.Summarize(a, core.NewNaive(a), names, ivs)
		if err != nil {
			t.Fatal(err)
		}
		var first Stats
		for k, workers := range []int{1, 3} {
			got, st, err := New(a, Options{Workers: workers}).Matrix(names, ivs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: matrix differs from naive Summarize:\n%s\nwant:\n%s", workers, got, want)
			}
			if k == 0 {
				first = st
			} else if st != first {
				t.Fatalf("stats differ across workers: %+v vs %+v", st, first)
			}
		}
	})
}
