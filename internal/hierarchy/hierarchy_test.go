package hierarchy

import (
	"math/rand"
	"reflect"
	"testing"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/poset"
	"causet/internal/poset/posettest"
)

func TestImpliesLattice(t *testing.T) {
	cases := []struct {
		r, s core.Relation
		want bool
	}{
		{core.R1, core.R1, true},
		{core.R1, core.R2Prime, true},
		{core.R1, core.R3, true},
		{core.R1, core.R2, true},
		{core.R1, core.R3Prime, true},
		{core.R1, core.R4, true},
		{core.R2Prime, core.R2, true},
		{core.R2Prime, core.R3, false},
		{core.R2Prime, core.R3Prime, false},
		{core.R3, core.R3Prime, true},
		{core.R3, core.R2, false},
		{core.R2, core.R4, true},
		{core.R2, core.R2Prime, false},
		{core.R3Prime, core.R4, true},
		{core.R4, core.R1, false},
		{core.R4, core.R2, false},
		// Equivalent pairs collapse.
		{core.R1Prime, core.R2Prime, true},
		{core.R1, core.R1Prime, true},
		{core.R4, core.R4Prime, true},
		{core.R4Prime, core.R3Prime, false},
	}
	for _, tc := range cases {
		if got := Implies(tc.r, tc.s); got != tc.want {
			t.Errorf("Implies(%v, %v) = %v, want %v", tc.r, tc.s, got, tc.want)
		}
	}
}

func TestHasseEdgesAreCovering(t *testing.T) {
	edges := HasseEdges()
	if len(edges) != 6 {
		t.Fatalf("edges = %d, want 6", len(edges))
	}
	for _, e := range edges {
		if !Implies(e[0], e[1]) {
			t.Errorf("edge %v → %v not an implication", e[0], e[1])
		}
		if Implies(e[1], e[0]) {
			t.Errorf("edge %v → %v is not strict", e[0], e[1])
		}
		// Covering: no canonical relation strictly between the endpoints.
		for _, c := range Canonical() {
			if c == e[0] || c == e[1] {
				continue
			}
			if Implies(e[0], c) && Implies(c, e[1]) {
				t.Errorf("edge %v → %v is not covering (%v between)", e[0], e[1], c)
			}
		}
	}
}

// randomPair draws a random execution and a disjoint interval pair.
func randomPair(r *rand.Rand) (*core.Analysis, *interval.Interval, *interval.Interval) {
	for {
		ex := posettest.Random(r, 2+r.Intn(4), 4+r.Intn(16), 0.45)
		xe, ye := posettest.DisjointIntervals(r, ex, 4)
		if xe == nil {
			continue
		}
		return core.NewAnalysis(ex), interval.MustNew(ex, xe), interval.MustNew(ex, ye)
	}
}

// TestImpliesSoundAndComplete verifies the lattice empirically: whenever
// Implies(r, s) and r holds, s holds (soundness on every instance); and for
// every non-implication a separating witness exists (completeness across
// the batch — the lattice claims no implication it shouldn't).
func TestImpliesSoundAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	separated := make(map[[2]core.Relation]bool)
	for trial := 0; trial < 1500; trial++ {
		a, x, y := randomPair(r)
		fast := core.NewFast(a)
		held := make(map[core.Relation]bool)
		for _, rel := range core.Relations() {
			held[rel] = fast.Eval(rel, x, y)
		}
		for _, r1 := range core.Relations() {
			for _, r2 := range core.Relations() {
				if Implies(r1, r2) {
					if held[r1] && !held[r2] {
						t.Fatalf("trial %d: %v holds, %v implied but fails (X=%v Y=%v)",
							trial, r1, r2, x, y)
					}
				} else if held[r1] && !held[r2] {
					separated[[2]core.Relation{r1, r2}] = true
				}
			}
		}
	}
	for _, r1 := range Canonical() {
		for _, r2 := range Canonical() {
			if r1 == r2 || Implies(r1, r2) {
				continue
			}
			if !separated[[2]core.Relation{r1, r2}] {
				t.Errorf("no witness for %v ∧ ¬%v across trials; either the lattice misses an implication or the workload is too narrow", r1, r2)
			}
		}
	}
}

func TestConverseInvolutionAndTable(t *testing.T) {
	want := map[core.Relation]core.Relation{
		core.R1: core.R1, core.R1Prime: core.R1,
		core.R2: core.R3Prime, core.R3Prime: core.R2,
		core.R2Prime: core.R3, core.R3: core.R2Prime,
		core.R4: core.R4, core.R4Prime: core.R4,
	}
	for r, w := range want {
		if got := Converse(r); got != w {
			t.Errorf("Converse(%v) = %v, want %v", r, got, w)
		}
		if got := Converse(Converse(r)); got != canon(r) {
			t.Errorf("Converse² of %v = %v", r, got)
		}
	}
}

// reverseInterval maps an interval through poset.ReverseID into the
// reversed execution.
func reverseInterval(ex, rev *poset.Execution, iv *interval.Interval) *interval.Interval {
	events := make([]poset.EventID, 0, iv.Size())
	for _, e := range iv.Events() {
		events = append(events, poset.ReverseID(ex, e))
	}
	return interval.MustNew(rev, events)
}

// TestConverseEmpirical: r(X, Y) on ex equals Converse(r)(Y', X') on the
// time-reversed execution, for all relations and random instances.
func TestConverseEmpirical(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 150; trial++ {
		a, x, y := randomPair(r)
		ex := a.Execution()
		rev := poset.Reverse(ex)
		arev := core.NewAnalysis(rev)
		fast := core.NewFast(a)
		fastRev := core.NewFast(arev)
		xr := reverseInterval(ex, rev, x)
		yr := reverseInterval(ex, rev, y)
		for _, rel := range core.Relations() {
			want := fast.Eval(rel, x, y)
			got := fastRev.Eval(Converse(rel), yr, xr)
			if got != want {
				t.Fatalf("trial %d: %v(X,Y)=%v but %v(Y',X') on reversed = %v",
					trial, rel, want, Converse(rel), got)
			}
		}
	}
}

// randomTriple draws three pairwise disjoint intervals of one execution.
func randomTriple(r *rand.Rand) (*core.Analysis, [3]*interval.Interval) {
	for {
		ex := posettest.Random(r, 2+r.Intn(4), 6+r.Intn(18), 0.5)
		sets := posettest.DisjointN(r, ex, 3, 3)
		if sets == nil {
			continue
		}
		a := core.NewAnalysis(ex)
		var ivs [3]*interval.Interval
		ok := true
		for i, s := range sets {
			if len(s) == 0 {
				ok = false
				break
			}
			ivs[i] = interval.MustNew(ex, s)
		}
		if !ok {
			continue
		}
		return a, ivs
	}
}

// TestComposeSound: whenever r(X,Y) and s(Y,Z) hold, Compose(r,s) holds
// between X and Z — on every random instance.
func TestComposeSound(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 2000; trial++ {
		a, ivs := randomTriple(r)
		fast := core.NewFast(a)
		x, y, z := ivs[0], ivs[1], ivs[2]
		for _, r1 := range Canonical() {
			if !fast.Eval(r1, x, y) {
				continue
			}
			for _, r2 := range Canonical() {
				if !fast.Eval(r2, y, z) {
					continue
				}
				tRel, ok := Compose(r1, r2)
				if !ok {
					continue
				}
				if !fast.Eval(tRel, x, z) {
					t.Fatalf("trial %d: %v(X,Y) ∧ %v(Y,Z) but ¬%v(X,Z)\nX=%v Y=%v Z=%v",
						trial, r1, r2, tRel, x, y, z)
				}
			}
		}
	}
}

// TestComposeDuality: the composition table is closed under time-reversal
// duality, Compose(r, s) = Converse(Compose(Converse(s), Converse(r))) —
// a purely algebraic cross-check that catches any asymmetric table typo.
func TestComposeDuality(t *testing.T) {
	for _, r1 := range Canonical() {
		for _, r2 := range Canonical() {
			t1, ok1 := Compose(r1, r2)
			t2, ok2 := Compose(Converse(r2), Converse(r1))
			if ok1 != ok2 {
				t.Errorf("duality: Compose(%v,%v) defined=%v but dual defined=%v", r1, r2, ok1, ok2)
				continue
			}
			if ok1 && Converse(t2) != t1 {
				t.Errorf("duality: Compose(%v,%v)=%v but dual gives %v", r1, r2, t1, Converse(t2))
			}
		}
	}
}

// TestComposeMaximal: for every table cell, some instance separates the
// entry from every strictly stronger relation; and for every empty cell,
// some instance satisfies r ∧ s with not even R4 between X and Z. This
// certifies the table entries are the strongest sound ones.
func TestComposeMaximal(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	type key struct {
		r1, r2, u core.Relation
	}
	need := make(map[key]bool)
	for _, r1 := range Canonical() {
		for _, r2 := range Canonical() {
			tRel, ok := Compose(r1, r2)
			if !ok {
				need[key{r1, r2, core.R4}] = true // must see r∧s∧¬R4
				continue
			}
			for _, u := range Canonical() {
				if u != tRel && Implies(u, tRel) {
					need[key{r1, r2, u}] = true // must see r∧s∧¬u
				}
			}
		}
	}
	for trial := 0; trial < 30000 && len(need) > 0; trial++ {
		a, ivs := randomTriple(r)
		fast := core.NewFast(a)
		x, y, z := ivs[0], ivs[1], ivs[2]
		var heldXY, heldYZ, heldXZ [int(core.R4Prime) + 1]bool
		for _, rel := range Canonical() {
			heldXY[rel] = fast.Eval(rel, x, y)
			heldYZ[rel] = fast.Eval(rel, y, z)
			heldXZ[rel] = fast.Eval(rel, x, z)
		}
		for k := range need {
			if heldXY[k.r1] && heldYZ[k.r2] && !heldXZ[k.u] {
				delete(need, k)
			}
		}
	}
	for k := range need {
		t.Errorf("no witness that %v∘%v does not guarantee %v — table entry may be too weak",
			k.r1, k.r2, k.u)
	}
}

func TestStrongest(t *testing.T) {
	got := Strongest([]core.Relation{core.R4, core.R2, core.R2Prime, core.R4Prime})
	if len(got) != 1 || got[0] != core.R2Prime {
		t.Errorf("Strongest = %v, want [R2']", got)
	}
	got = Strongest([]core.Relation{core.R3Prime, core.R2, core.R4})
	if len(got) != 2 {
		t.Errorf("Strongest = %v, want two maximal elements", got)
	}
	if len(Strongest(nil)) != 0 {
		t.Errorf("Strongest(nil) non-empty")
	}
	// Equivalent duplicates collapse.
	got = Strongest([]core.Relation{core.R1, core.R1Prime})
	if len(got) != 1 || got[0] != core.R1 {
		t.Errorf("Strongest with equivalents = %v", got)
	}
}

// TestStrongestOfMatchesStrongest checks the table against its definition
// for every mask: Strongest of the canonical relations set in the mask, in
// Canonical() order, element for element and nil for nil.
func TestStrongestOfMatchesStrongest(t *testing.T) {
	for m := 0; m < 256; m++ {
		var held []core.Relation
		for _, r := range Canonical() {
			if m&(1<<uint(r)) != 0 {
				held = append(held, r)
			}
		}
		want := Strongest(held)
		if got := StrongestOf(uint8(m)); !reflect.DeepEqual(got, want) {
			t.Errorf("StrongestOf(%08b) = %#v, want %#v", m, got, want)
		}
	}
}

// TestStrongestOfAppendCopies: the returned slices are shared, so appending
// to one must reallocate rather than write into the table.
func TestStrongestOfAppendCopies(t *testing.T) {
	var before [256][]core.Relation
	for m := range before {
		before[m] = append([]core.Relation(nil), StrongestOf(uint8(m))...)
	}
	for m := 0; m < 256; m++ {
		s := StrongestOf(uint8(m))
		if cap(s) != len(s) {
			t.Errorf("StrongestOf(%08b): cap %d > len %d", m, cap(s), len(s))
		}
		grown := append(s, core.R4Prime)
		grown[0] = core.R4Prime
	}
	for m := range before {
		if got := StrongestOf(uint8(m)); !reflect.DeepEqual(append([]core.Relation(nil), got...), before[m]) {
			t.Errorf("StrongestOf(%08b) = %v after appends, was %v", m, got, before[m])
		}
	}
}

func TestCanonicalOrder(t *testing.T) {
	c := Canonical()
	if len(c) != 6 {
		t.Fatalf("Canonical = %v", c)
	}
	// Strongest-first: no later element implies an earlier one.
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			if Implies(c[j], c[i]) {
				t.Errorf("Canonical order violated: %v (later) implies %v", c[j], c[i])
			}
		}
	}
}
