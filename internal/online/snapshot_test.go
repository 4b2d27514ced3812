package online

import (
	"fmt"
	"strings"
	"testing"

	"causet/internal/interval"
	"causet/internal/poset"
	"causet/internal/sim"
)

// renderSnapshot renders what a snapshot answers about the events retained
// at base: T and TR of each, and Analysis.Cuts of iv (over the same events,
// nil for none). Two snapshots agree on those events when their renderings
// are equal.
func renderSnapshot(t *testing.T, snap *Snapshot, base []int, iv []poset.EventID) string {
	t.Helper()
	var b strings.Builder
	clk := snap.Analysis.Clocks()
	for p, lo := range base {
		for pos := lo + 1; pos <= snap.Exec.NumReal(p); pos++ {
			e := poset.EventID{Proc: p, Pos: pos}
			fmt.Fprintf(&b, "%v T=%v TR=%v\n", e, clk.T(e), clk.TR(e))
		}
	}
	if iv != nil {
		x, err := interval.New(snap.Exec, iv)
		if err != nil {
			t.Fatalf("interval over retained events: %v", err)
		}
		c := snap.Analysis.Cuts(x)
		fmt.Fprintf(&b, "cuts %v %v %v %v %v %v\n", c.InterDown, c.UnionDown, c.InterUp, c.UnionUp, c.FirstPos, c.LastPos)
	}
	return b.String()
}

// TestSnapshotsAcrossCompaction pins that a Snapshot holds its own copy of
// the stream's rows. Each workload is fed into two streams in lockstep, with
// the pins ReplayStepsOn takes; one compacts every few events, the other
// never does. After each compaction the compacted stream's snapshot agrees
// with its uncompacted twin's on T and TR of every retained event and on
// Analysis.Cuts of an interval made of the newest retained events, and every
// snapshot taken earlier still reads as it did when it was taken, however
// many appends and in-place compactions followed.
func TestSnapshotsAcrossCompaction(t *testing.T) {
	const every, lag = 5, 2
	compactions := 0
	for _, pat := range []sim.Pattern{sim.Ring, sim.Gossip, sim.Pipeline, sim.Broadcast} {
		for seed := int64(0); seed < 3; seed++ {
			res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 6, Seed: seed})
			if err != nil {
				t.Fatalf("%v/seed=%d: %v", pat, seed, err)
			}
			ex := res.Exec
			label := fmt.Sprintf("%v/seed=%d", pat, seed)
			comp, twin := NewStream(ex.NumProcs()), NewStream(ex.NumProcs())
			type taken struct {
				snap     *Snapshot
				base     []int
				iv       []poset.EventID
				rendered string
			}
			var earlier []taken
			steps := 0
			if _, err := ReplayStepsOn(comp, ex, func(_ *Stream, e poset.EventID) error {
				if from := ex.MsgPredecessors(e); from != nil {
					if _, err := twin.Recv(e.Proc, from[0]); err != nil {
						return err
					}
				} else if _, err := twin.Local(e.Proc); err != nil {
					return err
				}
				if steps++; steps%every != 0 {
					return nil
				}
				w := comp.Counts()
				for p := range w {
					w[p] -= lag
				}
				if _, dropped, err := comp.Compact(w); err != nil || dropped == 0 {
					return err
				}
				compactions++
				base := comp.CompactedThrough()
				var iv []poset.EventID
				for p, n := range comp.Counts() {
					for pos := max(base[p]+1, n-1); pos <= n; pos++ {
						iv = append(iv, poset.EventID{Proc: p, Pos: pos})
					}
				}
				got := renderSnapshot(t, comp.Snapshot(), base, iv)
				if want := renderSnapshot(t, twin.Snapshot(), base, iv); got != want {
					t.Fatalf("%s: after compaction to %v at step %d:\ncompacted:\n%s\nuncompacted:\n%s", label, base, steps, got, want)
				}
				earlier = append(earlier, taken{comp.Snapshot(), base, iv, got})
				for k, old := range earlier {
					if again := renderSnapshot(t, old.snap, old.base, old.iv); again != old.rendered {
						t.Fatalf("%s: snapshot %d changed by step %d:\nthen:\n%s\nnow:\n%s", label, k, steps, old.rendered, again)
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("%s: replay: %v", label, err)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no stream compacted; the comparison is vacuous")
	}
	t.Logf("%d compactions checked", compactions)
}
