package bench

import (
	"runtime"
	"sort"
	"testing"

	"causet/internal/obs"
	"causet/internal/online"
)

// TestSoakBoundedHeap is the CI smoke for the E15 soak, two points of the
// sweep kept small enough for the test suite:
//
//   - a 100k-event stream where the retained working set must stay flat —
//     bounded by the policy window plus appraisal slack, independent of
//     stream length — with cross-schedule verdict agreement;
//   - a 20k-event stream under the unbounded cap, where the unbounded leg
//     joins the comparison and its linear memory growth is visible;
//   - between the two, the retained leg's peak heap within 2x.
//
// The full-scale sweep (≥1M events) runs via benchtab -table e15.
func TestSoakBoundedHeap(t *testing.T) {
	long := SoakConfig{Procs: 4, Rounds: 25_000, Window: 256, Every: 64}
	short := SoakConfig{Procs: 4, Rounds: 5_000, Window: 256, Every: 64}
	rows, err := SoakSweep([]SoakConfig{long, short})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Logf("events=%d retained max/end=%d/%d (unbounded %d) heap ret/unb=%d/%d released=%d settled=%d unbRan=%t agree=%t",
			row.Events, row.RetRetainedMax, row.RetRetainedEnd, row.UnbRetainedMax,
			row.RetHeapPeak, row.UnbHeapPeak, row.Released, row.Settled, row.UnbRan, row.Agree)
		if !row.Agree {
			t.Errorf("events=%d: verdict traces disagree across legs", row.Events)
		}
		if row.Settled != row.Rounds-1 {
			t.Errorf("events=%d: settled = %d, want %d", row.Events, row.Settled, row.Rounds-1)
		}
		if row.Released == 0 {
			t.Errorf("events=%d: retention released no interval", row.Events)
		}
		// The retained working set: the MaxEvents window, up to Every events
		// of appraisal lag, the growing round, and consistent-cut clamp
		// slack. A generous constant multiple of the window still rejects
		// anything that scales with stream length.
		if bound := 8 * row.Window; row.RetRetainedMax > bound {
			t.Errorf("events=%d: retained leg held %d events at peak, want <= %d (window %d)",
				row.Events, row.RetRetainedMax, bound, row.Window)
		}
	}

	if rows[0].Events != 100_000 {
		t.Fatalf("long row events = %d, want 100000", rows[0].Events)
	}
	if rows[0].UnbRan {
		t.Error("long row ran the unbounded leg above the cap")
	}
	// Absolute ceiling for the flat leg; generous, but 100k events of
	// unbounded clock rows alone blow far past it.
	if rows[0].RetHeapPeak > 64<<20 {
		t.Errorf("long row retained peak heap %d bytes, want <= 64MiB", rows[0].RetHeapPeak)
	}

	// The retained leg remembers the names of one retention window, not of
	// the run, so its heap does not grow with the stream: five times the
	// events may not double the peak.
	if rows[0].RetHeapPeak > 2*rows[1].RetHeapPeak {
		t.Errorf("retained peak heap %d bytes at %d events, more than 2x the %d at %d",
			rows[0].RetHeapPeak, rows[0].Events, rows[1].RetHeapPeak, rows[1].Events)
	}

	if !rows[1].UnbRan {
		t.Fatal("short row skipped the unbounded comparison leg")
	}
	if rows[1].UnbRetainedMax != rows[1].Events {
		t.Errorf("unbounded leg retained %d events, want %d", rows[1].UnbRetainedMax, rows[1].Events)
	}
	// Live heap: the retained leg must come in clearly under the unbounded
	// leg, which carries per-event clock rows for the whole stream. Absolute
	// bytes are GC- and platform-dependent, so assert only the ordering.
	if rows[1].UnbHeapPeak > 0 && rows[1].RetHeapPeak >= rows[1].UnbHeapPeak {
		t.Errorf("retained peak heap %d not below unbounded %d",
			rows[1].RetHeapPeak, rows[1].UnbHeapPeak)
	}
}

// TestSoakSettlementCostFlat pins that a settlement's cost does not depend
// on how many intervals the monitor has ever defined: without a retention
// policy every round's interval stays held, yet the larger stream's median
// ns/event over three runs must stay within 2x of the smaller one's. A
// check loop that revisits every held interval per settlement grows with the
// round count and fails here. The two sizes alternate, so a change in
// machine load between runs skews both medians alike.
func TestSoakSettlementCostFlat(t *testing.T) {
	if testing.Short() || obs.RaceEnabled {
		t.Skip("timing check needs a full run without race instrumentation")
	}
	sizes := [2]int{2_000, 16_000}
	var runs [2][]float64
	for range 3 {
		for i, rounds := range sizes {
			cfg := SoakConfig{Procs: 4, Rounds: rounds}
			leg, err := runSoak(cfg, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if leg.settled != rounds-1 {
				t.Fatalf("rounds=%d: settled %d conditions, want %d", rounds, leg.settled, rounds-1)
			}
			runs[i] = append(runs[i], float64(leg.elapsed.Nanoseconds())/float64(cfg.Procs*rounds))
		}
	}
	for _, r := range runs {
		sort.Float64s(r)
	}
	small, large := runs[0][1], runs[1][1]
	ratio := large / small
	t.Logf("unretained median ns/event: %.0f at 4x2000 rounds, %.0f at 4x16000 (ratio %.2f)", small, large, ratio)
	if ratio > 2 {
		t.Errorf("ns/event grew %.2fx from 4x2000 to 4x16000 rounds, want <= 2x", ratio)
	}
}

// TestSoakAllocBytesPerEvent pins the bytes the online loop allocates per
// appended event on the E15 soak shape: an 8-process ring, one
// R1(round-(r-1), round-r) per lap, retention MaxEvents 512 and Every 128,
// measured by runtime.MemStats.TotalAlloc over 16,000 laps after a
// 2,000-lap warm-up. The stream's rows live in per-process rings whose
// heads compaction advances, the builder's message log and the monitor's
// retirement ledger reuse the space their dropped fronts leave, and a
// summary is built from the stream with no execution view, so once warm
// none of them copies or grows; a message log that reallocates as its
// start advances (about 350 B per event), or a row layout that allocates
// per event, reads above the 300 B bound.
func TestSoakAllocBytesPerEvent(t *testing.T) {
	const procs, warm, laps = 8, 2_000, 16_000
	d, err := newSoakLoop(procs, &online.RetentionPolicy{MaxEvents: 512, Every: 128}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < warm; r++ {
		if err := d.lap(r); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := warm; r < warm+laps; r++ {
		if err := d.lap(r); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(procs*laps)
	t.Logf("allocated %.0f B per appended event over %d events", perEvent, procs*laps)
	if d.settled != warm+laps-1 {
		t.Errorf("settled %d conditions, want %d", d.settled, warm+laps-1)
	}
	if perEvent > 300 {
		t.Errorf("soak allocates %.0f B per appended event, want <= 300", perEvent)
	}
}
