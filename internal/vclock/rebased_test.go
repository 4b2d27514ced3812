package vclock

import (
	"strings"
	"testing"

	"causet/internal/poset"
)

// rebasedFrom derives rebased clocks from fully materialized ones by
// slicing off the first base[p] rows of each process — exactly the storage
// shape a compacted stream snapshot presents.
func rebasedFrom(full *Clocks, ex *poset.Execution, base []int) *Clocks {
	fwd := make([][]VC, ex.NumProcs())
	rev := make([][]VC, ex.NumProcs())
	for p := range fwd {
		fwd[p] = full.fwd[p][base[p]:]
		rev[p] = full.rev[p][base[p]:]
	}
	return NewRebased(ex, fwd, rev, base)
}

func pipeline(t *testing.T) *poset.Execution {
	t.Helper()
	b := poset.NewBuilder(3)
	for r := 0; r < 4; r++ {
		if _, _, err := b.SendRecv(0, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.SendRecv(1, 2); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func TestRebasedClocksAgreeOnRetainedEvents(t *testing.T) {
	ex := pipeline(t)
	full := New(ex)
	base := []int{2, 2, 1} // retain from positions 3,3,2 upward
	reb := rebasedFrom(full, ex, base)

	for p := 0; p < ex.NumProcs(); p++ {
		for pos := base[p] + 1; pos <= ex.NumReal(p); pos++ {
			e := poset.EventID{Proc: p, Pos: pos}
			if !reb.T(e).Equal(full.T(e)) {
				t.Fatalf("T(%v): rebased %v, full %v", e, reb.T(e), full.T(e))
			}
			if !reb.TR(e).Equal(full.TR(e)) {
				t.Fatalf("TR(%v): rebased %v, full %v", e, reb.TR(e), full.TR(e))
			}
		}
		// Dummies never rebase.
		if !reb.T(ex.Top(p)).Equal(full.T(ex.Top(p))) {
			t.Fatalf("T(top %d) disagrees", p)
		}
	}

	// Precedes on retained x retained pairs, and with a compacted left
	// operand (only the right row is read).
	for p := 0; p < ex.NumProcs(); p++ {
		for pos := 1; pos <= ex.NumReal(p); pos++ {
			a := poset.EventID{Proc: p, Pos: pos}
			for q := 0; q < ex.NumProcs(); q++ {
				for qos := base[q] + 1; qos <= ex.NumReal(q); qos++ {
					b := poset.EventID{Proc: q, Pos: qos}
					if got, want := reb.Precedes(a, b), full.Precedes(a, b); got != want {
						t.Fatalf("Precedes(%v, %v): rebased %v, full %v", a, b, got, want)
					}
				}
			}
		}
	}
}

// TestTRIntoMatchesTR checks the allocation-free reverse timestamp against
// TR on materialized and rebased clocks, dummies included, writing into a
// scratch row that still holds another event's garbage.
func TestTRIntoMatchesTR(t *testing.T) {
	ex := pipeline(t)
	full := New(ex)
	base := []int{2, 2, 1}
	for _, c := range []*Clocks{full, rebasedFrom(full, ex, base)} {
		events := []poset.EventID{}
		for p := 0; p < ex.NumProcs(); p++ {
			events = append(events, ex.Bottom(p), ex.Top(p))
			for pos := base[p] + 1; pos <= ex.NumReal(p); pos++ {
				events = append(events, poset.EventID{Proc: p, Pos: pos})
			}
		}
		dst := VC{-1, -1, -1}
		for _, e := range events {
			c.TRInto(e, dst)
			if want := c.TR(e); !dst.Equal(want) {
				t.Fatalf("TRInto(%v) = %v; TR = %v", e, dst, want)
			}
		}
	}
}

func TestRebasedClocksPanicOnCompactedRow(t *testing.T) {
	ex := pipeline(t)
	full := New(ex)
	base := []int{2, 2, 1}
	reb := rebasedFrom(full, ex, base)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("T of a compacted event did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "compacted") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	reb.T(poset.EventID{Proc: 0, Pos: 1})
}
