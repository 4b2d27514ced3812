package interval

import (
	"math/rand"
	"testing"

	"causet/internal/poset"
	"causet/internal/poset/posettest"
)

// sharesEvent is the reference for Overlaps: a brute-force set
// intersection over the members.
func sharesEvent(x, y *Interval) bool {
	in := make(map[poset.EventID]bool, x.Size())
	for _, e := range x.Events() {
		in[e] = true
	}
	for _, e := range y.Events() {
		if in[e] {
			return true
		}
	}
	return false
}

// checkOverlaps compares Overlaps in both argument orders with sharesEvent.
func checkOverlaps(t *testing.T, name string, x, y *Interval) {
	t.Helper()
	want := sharesEvent(x, y)
	if got := x.Overlaps(y); got != want {
		t.Errorf("%s: %v.Overlaps(%v) = %v, want %v", name, x, y, got, want)
	}
	if got := y.Overlaps(x); got != want {
		t.Errorf("%s: %v.Overlaps(%v) = %v, want %v", name, y, x, got, want)
	}
}

// randomPair draws two intervals of ex: each real event joins X with
// probability px and Y with probability py, independently, so the members
// of the two interleave on shared nodes and coincide only by chance. An
// operand left empty gets one random event.
func randomPair(r *rand.Rand, ex *poset.Execution, px, py float64) (x, y *Interval) {
	real := ex.RealEvents()
	var xs, ys []poset.EventID
	for _, e := range real {
		if r.Float64() < px {
			xs = append(xs, e)
		}
		if r.Float64() < py {
			ys = append(ys, e)
		}
	}
	if len(xs) == 0 {
		xs = append(xs, real[r.Intn(len(real))])
	}
	if len(ys) == 0 {
		ys = append(ys, real[r.Intn(len(real))])
	}
	return MustNew(ex, xs), MustNew(ex, ys)
}

// line builds an execution of procs processes with n internal events each.
func line(procs, n int) (*poset.Builder, *poset.Execution) {
	b := poset.NewBuilder(procs)
	for p := 0; p < procs; p++ {
		b.AppendN(p, n)
	}
	return b, b.MustBuild()
}

func TestOverlapsMatchesSetIntersection(t *testing.T) {
	ev := func(p, pos int) poset.EventID { return poset.EventID{Proc: p, Pos: pos} }
	_, ex := line(4, 8)

	// Members interleaved on a shared node: the position ranges intersect
	// but the sets are disjoint, unless one position coincides.
	odd := MustNew(ex, []poset.EventID{ev(0, 1), ev(0, 3), ev(0, 5), ev(0, 7)})
	even := MustNew(ex, []poset.EventID{ev(0, 2), ev(0, 4), ev(0, 6), ev(0, 8)})
	checkOverlaps(t, "interleaved", odd, even)
	checkOverlaps(t, "interleaved, one shared", odd, MustNew(ex, []poset.EventID{ev(0, 2), ev(0, 5), ev(0, 6)}))
	checkOverlaps(t, "interleaved on two nodes", MustNew(ex, []poset.EventID{ev(0, 1), ev(0, 3), ev(1, 2), ev(1, 6)}),
		MustNew(ex, []poset.EventID{ev(0, 2), ev(1, 1), ev(1, 3), ev(1, 7)}))
	checkOverlaps(t, "nested ranges", MustNew(ex, []poset.EventID{ev(2, 1), ev(2, 8)}),
		MustNew(ex, []poset.EventID{ev(2, 3), ev(2, 4), ev(2, 5)}))
	checkOverlaps(t, "touching ranges", MustNew(ex, []poset.EventID{ev(1, 1), ev(1, 4)}),
		MustNew(ex, []poset.EventID{ev(1, 4), ev(1, 6)}))
	checkOverlaps(t, "no shared node", MustNew(ex, []poset.EventID{ev(0, 1), ev(1, 1)}),
		MustNew(ex, []poset.EventID{ev(2, 1), ev(3, 1)}))

	// One-node operands against many-node operands.
	wide := MustNew(ex, []poset.EventID{ev(0, 4), ev(1, 2), ev(1, 5), ev(2, 7), ev(3, 3)})
	for _, one := range [][]poset.EventID{
		{ev(1, 5)}, {ev(1, 3)}, {ev(1, 1), ev(1, 2)}, {ev(1, 3), ev(1, 4), ev(1, 6)}, {ev(3, 3), ev(3, 4)}, {ev(2, 8)},
	} {
		checkOverlaps(t, "one node vs many", MustNew(ex, one), wide)
	}

	// Intervals of a prefix execution against intervals of the full one.
	b, _ := line(3, 4)
	pre, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		b.AppendN(p, 4)
	}
	full, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	early := MustNew(pre, []poset.EventID{ev(0, 2), ev(1, 4), ev(2, 1)})
	checkOverlaps(t, "prefix, later events", early, MustNew(full, []poset.EventID{ev(0, 5), ev(1, 6), ev(2, 8)}))
	checkOverlaps(t, "prefix, straddling", early, MustNew(full, []poset.EventID{ev(0, 1), ev(0, 3), ev(1, 4), ev(1, 5)}))
	checkOverlaps(t, "prefix, interleaved", MustNew(pre, []poset.EventID{ev(2, 1), ev(2, 3)}),
		MustNew(full, []poset.EventID{ev(2, 2), ev(2, 4), ev(2, 6)}))

	// Operands whose executions have different process counts.
	_, small := line(2, 4)
	checkOverlaps(t, "fewer processes", MustNew(small, []poset.EventID{ev(1, 2)}),
		MustNew(ex, []poset.EventID{ev(1, 2), ev(3, 1)}))
	checkOverlaps(t, "fewer processes, disjoint", MustNew(small, []poset.EventID{ev(0, 1), ev(1, 2)}),
		MustNew(ex, []poset.EventID{ev(2, 2), ev(3, 1)}))

	// Random pairs, dense and sparse, on random executions.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		ex := posettest.Random(r, 1+r.Intn(6), 1+r.Intn(60), 0.3)
		x, y := randomPair(r, ex, r.Float64(), r.Float64()/4)
		checkOverlaps(t, "random", x, y)
	}
}

// FuzzOverlapsAgreement is the differential fuzz target for Overlaps: each
// input names a random execution and two random, typically interleaved,
// intervals of it, and Overlaps must agree with the set intersection in
// both argument orders.
func FuzzOverlapsAgreement(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40), uint8(128), uint8(16))
	f.Add(int64(2), uint8(0), uint8(20), uint8(255), uint8(255))
	f.Add(int64(3), uint8(5), uint8(90), uint8(30), uint8(200))
	f.Add(int64(-9), uint8(1), uint8(4), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, procsB, eventsB, pxB, pyB uint8) {
		r := rand.New(rand.NewSource(seed))
		ex := posettest.Random(r, 1+int(procsB%8), 1+int(eventsB%96), 0.3)
		x, y := randomPair(r, ex, float64(pxB)/255, float64(pyB)/255)
		checkOverlaps(t, "fuzz", x, y)
	})
}
