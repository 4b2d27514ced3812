package monitor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/poset/posettest"
	"causet/internal/sim"
)

// TestRecheckBuildsNoCuts pins Key Idea 1 for conditions: proxy operands
// resolve through the analysis's proxy-cut cache, so once a condition has
// been checked, re-checking it builds neither cuts nor proxy cuts.
func TestRecheckBuildsNoCuts(t *testing.T) {
	m := fixture(t)
	if err := m.AddCondition("proxied", "R1(L(r0), U(r1))"); err != nil {
		t.Fatal(err)
	}
	first := m.Check()[0]
	if first.State != Holds && first.State != Violated {
		t.Fatalf("first check: state = %v err = %v", first.State, first.Err)
	}
	a := m.Analysis()
	cuts, proxies := a.CutBuilds(), a.ProxyCutBuilds()
	for i := 0; i < 1000; i++ {
		if r := m.Check()[0]; r.State != first.State {
			t.Fatalf("check %d: state = %v, want %v", i, r.State, first.State)
		}
	}
	if got := a.CutBuilds(); got != cuts {
		t.Errorf("1000 re-checks built %d cuts, want 0", got-cuts)
	}
	if got := a.ProxyCutBuilds(); got != proxies {
		t.Errorf("1000 re-checks built %d proxy cuts, want 0", got-proxies)
	}
}

// TestRel32AtomsMatchNaive is the differential for proxy operands: each of
// the 32 relations of ℛ, written as a condition atom such as
// R2'(U(x), L(y)), decides exactly as the naive evaluator does on the same
// per-node proxies.
func TestRel32AtomsMatchNaive(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		ex := posettest.Random(r, 2+r.Intn(4), 8+r.Intn(30), 0.45)
		xs, ys := posettest.DisjointIntervals(r, ex, 5)
		if xs == nil {
			continue
		}
		m := New(ex)
		if err := m.Define("x", xs); err != nil {
			t.Fatal(err)
		}
		if err := m.Define("y", ys); err != nil {
			t.Fatal(err)
		}
		a := m.Analysis()
		x, _ := m.Interval("x")
		y, _ := m.Interval("y")
		naive := core.NewNaive(a)
		for _, rel := range core.AllRel32() {
			want, err := a.EvalRel32(naive, rel, x, y, interval.DefPerNode)
			if err != nil {
				t.Fatal(err)
			}
			src := fmt.Sprintf("%v(%v(x), %v(y))", rel.R, rel.PX, rel.PY)
			got, err := m.Eval(src)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, src, err)
			}
			if got != want {
				t.Errorf("trial %d: %s = %v, naive %v = %v", trial, src, got, rel, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pair generated")
	}
}

// TestEvaluateForeignProxyFails: a lookup that hands back another
// execution's interval, proxied or not, settles the condition Failed with
// core.ErrForeignInterval instead of panicking in the proxy cache.
func TestEvaluateForeignProxyFails(t *testing.T) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 1, Seed: 5})
	other := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 1, Seed: 6})
	a := core.NewAnalysis(res.Exec)
	near := interval.MustNew(res.Exec, res.Phases[0].Events)
	far := interval.MustNew(other.Exec, other.Phases[0].Events)
	lookup := func(name string) (*interval.Interval, bool) {
		if name == "far" {
			return far, true
		}
		return near, true
	}
	for _, src := range []string{"R1(L(far), near)", "R4(near, U(far))", "R1(far, near)"} {
		r := Evaluate(NewCondition("c", src, MustParse(src)), AnalysisOperands(a, lookup), nil)
		if r.State != Failed || !errors.Is(r.Err, core.ErrForeignInterval) {
			t.Errorf("%s: state = %v err = %v, want failed with %v", src, r.State, r.Err, core.ErrForeignInterval)
		}
	}
}

// TestOperandsOverlapMatchesMembers is the differential for the overlap
// check Evaluate makes on resolved operands: for random, often overlapping,
// interval pairs and every plain/L/U combination of operands, it agrees
// with Interval.Overlaps on the operands' member intervals, the per-node
// proxies materialized.
func TestOperandsOverlapMatchesMembers(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	kinds := []AtomOperand{{}, {UseProxy: true, Proxy: interval.ProxyL}, {UseProxy: true, Proxy: interval.ProxyU}}
	overlaps := 0
	for trial := 0; trial < 300; trial++ {
		ex := posettest.Random(r, 1+r.Intn(5), 1+r.Intn(40), 0.4)
		x := interval.MustNew(ex, posettest.RandomInterval(r, ex, 12))
		y := interval.MustNew(ex, posettest.RandomInterval(r, ex, 12))
		ops := AnalysisOperands(core.NewAnalysis(ex), nil)
		for _, ox := range kinds {
			for _, oy := range kinds {
				cx, err := ops.Cuts(ox, x)
				if err != nil {
					t.Fatal(err)
				}
				cy, err := ops.Cuts(oy, y)
				if err != nil {
					t.Fatal(err)
				}
				want := members(ox, x).Overlaps(members(oy, y))
				if got := operandsOverlap(ox, x, cx, oy, y, cy); got != want {
					t.Fatalf("trial %d: overlap(%v of %v, %v of %v) = %v, members say %v",
						trial, ox, x, oy, y, got, want)
				}
				if want {
					overlaps++
				}
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("no overlapping operand pair generated")
	}
}
