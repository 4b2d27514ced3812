package causet_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"causet"
	"causet/internal/batch"
	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
)

// TestBatchAcceptsEarlierSnapshotIntervals: intervals built on an earlier
// snapshot of one online stream belong to a prefix of a later snapshot's
// execution, which core.Analysis accepts (poset.Prefix). The batch engine
// must accept them too: Matrix, EvalQueries, Profiles and causet.Summarize
// over the later snapshot's analysis each agree with hierarchy.Summarize,
// including the overlap cell of an interval that spans both snapshots.
func TestBatchAcceptsEarlierSnapshotIntervals(t *testing.T) {
	const procs = 3
	s := causet.NewStream(procs)
	var names []string
	var ivs []*causet.Interval
	round := func(r int) []causet.EventID {
		var events []causet.EventID
		from, err := s.Send(r % procs)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, from)
		for k := 1; k <= procs; k++ {
			to, err := s.Recv((r+k)%procs, from)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, to)
			from = to
		}
		return events
	}
	addRounds := func(lo, hi int) [][]causet.EventID {
		var out [][]causet.EventID
		for r := lo; r < hi; r++ {
			out = append(out, round(r))
		}
		return out
	}
	define := func(ex *causet.Execution, rounds [][]causet.EventID, first int) {
		for k, events := range rounds {
			iv, err := causet.NewInterval(ex, events)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprint("round-", first+k))
			ivs = append(ivs, iv)
		}
	}
	early := addRounds(0, 3)
	define(s.Snapshot().Exec, early, 0)
	late := addRounds(3, 6)
	snap := s.Snapshot()
	define(snap.Exec, late, 3)
	span, err := causet.NewInterval(snap.Exec, append(append([]causet.EventID(nil), early[2]...), late[0]...))
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, "span")
	ivs = append(ivs, span)
	if ivs[0].Execution() == snap.Exec {
		t.Fatal("fixture: the first rounds must live on the earlier snapshot")
	}

	a := snap.Analysis
	want, err := hierarchy.Summarize(a, core.NewFast(a), names, ivs)
	if err != nil {
		t.Fatal(err)
	}

	got, err := causet.Summarize(a, causet.NewFast(a), names, ivs)
	if err != nil {
		t.Fatalf("causet.Summarize: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("causet.Summarize:\n%s\nwant:\n%s", got, want)
	}

	eng := batch.New(a, batch.Options{Workers: 2})
	pm, _, err := eng.Matrix(names, ivs)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if !reflect.DeepEqual(pm, want) {
		t.Errorf("Matrix:\n%s\nwant:\n%s", pm, want)
	}

	var pairs []batch.Pair
	var at [][2]int
	for i, x := range ivs {
		for j, y := range ivs {
			if i != j {
				pairs = append(pairs, batch.Pair{X: x, Y: y})
				at = append(at, [2]int{i, j})
			}
		}
	}
	canon := hierarchy.Canonical()
	res := eng.EvalQueries(batch.PairQueries(pairs, canon))
	for k, ij := range at {
		cell := hierarchy.Cell{}
		var held []core.Relation
		for r, rel := range canon {
			out := res.Results[k*len(canon)+r]
			var ovl *core.ErrOverlap
			switch {
			case errors.As(out.Err, &ovl):
				cell.Overlap = true
			case out.Err != nil:
				t.Fatalf("EvalQueries %s→%s: %v", names[ij[0]], names[ij[1]], out.Err)
			case out.Held:
				held = append(held, rel)
			}
		}
		cell.Strongest = hierarchy.Strongest(held)
		if w := want.Cells[ij[0]][ij[1]]; !reflect.DeepEqual(cell, w) {
			t.Errorf("EvalQueries %s→%s: %v, want %v", names[ij[0]], names[ij[1]], cell, w)
		}
	}

	// A profile relates the proxies of X and Y. R1 between the whole
	// intervals is R1 from U_X to L_Y, and R4 is R4 from L_X to U_Y, so a
	// profile's R1 bit marks a cell whose strongest relation is R1 and its
	// R4 bit a cell where any relation holds.
	r1 := core.Rel32{R: core.R1, PX: interval.ProxyU, PY: interval.ProxyL}
	r4 := core.Rel32{R: core.R4, PX: interval.ProxyL, PY: interval.ProxyU}
	profiles, _ := eng.Profiles(pairs)
	for k, ij := range at {
		p, w := profiles[k], want.Cells[ij[0]][ij[1]]
		var ovl *core.ErrOverlap
		if w.Overlap {
			if !errors.As(p.Err, &ovl) {
				t.Errorf("Profiles %s→%s: err %v, want overlap", names[ij[0]], names[ij[1]], p.Err)
			}
			continue
		}
		if p.Err != nil {
			t.Fatalf("Profiles %s→%s: %v", names[ij[0]], names[ij[1]], p.Err)
		}
		hasR1 := p.Bits&(1<<uint(core.Rel32Bit(r1))) != 0
		hasR4 := p.Bits&(1<<uint(core.Rel32Bit(r4))) != 0
		if hasR1 != reflect.DeepEqual(w.Strongest, []core.Relation{core.R1}) || hasR4 != (len(w.Strongest) > 0) {
			t.Errorf("Profiles %s→%s: R1(U,L)=%v R4(L,U)=%v, cell %v", names[ij[0]], names[ij[1]], hasR1, hasR4, w)
		}
	}
}
