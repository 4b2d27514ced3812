package main

import (
	"fmt"
	"io"
	"math"

	"causet/internal/obs"
)

// report mirrors the subset of the causet-benchtab/1 layout benchdiff
// reads. The struct is deliberately decoupled from cmd/benchtab's writer
// type: the differ decodes tolerantly, so benchtab can grow fields without
// breaking older benchdiff binaries.
type report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	Seed      int64  `json:"seed"`
	Trials    int    `json:"trials"`

	E1 []struct {
		Relation   string `json:"relation"`
		Trials     int    `json:"trials"`
		Agreements int    `json:"agreements"`
	} `json:"e1_agreement"`
	E4 []struct {
		Relation    string `json:"relation"`
		Trials      int    `json:"trials"`
		WithinBound int    `json:"within_bound"`
		MaxCount    int64  `json:"max_comparisons"`
	} `json:"e4_bounds"`
	E5 []struct {
		N         int     `json:"n"`
		NaiveCmp  float64 `json:"naive_cmp"`
		ProxyCmp  float64 `json:"proxy_cmp"`
		FastCmp   float64 `json:"fast_cmp"`
		NaiveNsOp float64 `json:"naive_ns_op"`
		ProxyNsOp float64 `json:"proxy_ns_op"`
		FastNsOp  float64 `json:"fast_ns_op"`
	} `json:"e5_sweep"`
	E7 []struct {
		N       int     `json:"n"`
		Workers int     `json:"workers"`
		Speedup float64 `json:"speedup"`
		Agree   bool    `json:"agree"`
	} `json:"e7_parallel"`
	// E10 is absent from reports written before the fused profile kernel;
	// a nil slice simply skips the e10 comparison (tolerant decode).
	E10 []struct {
		N            int     `json:"n"`
		FusedNsOp    float64 `json:"fused_ns_op"`
		LegacyNsOp   float64 `json:"legacy_ns_op"`
		FusedCmp     float64 `json:"fused_cmp"`
		LegacyCmp    float64 `json:"legacy_cmp"`
		FusedAllocs  float64 `json:"fused_allocs_op"`
		LegacyAllocs float64 `json:"legacy_allocs_op"`
		FusedBytes   float64 `json:"fused_bytes_op"`
		LegacyBytes  float64 `json:"legacy_bytes_op"`
		Speedup      float64 `json:"speedup"`
		Agree        bool    `json:"agree"`
	} `json:"e10_profile"`
	// E14 is absent from reports written before the incremental online hot
	// path; a nil slice simply skips the e14 comparison (tolerant decode).
	E14 []struct {
		Procs     int     `json:"procs"`
		Rounds    int     `json:"rounds"`
		IncNsEv   float64 `json:"inc_ns_event"`
		LegNsEv   float64 `json:"leg_ns_event"`
		IncEvSec  float64 `json:"inc_events_sec"`
		LegEvSec  float64 `json:"leg_events_sec"`
		IncAllocs float64 `json:"inc_allocs_event"`
		LegAllocs float64 `json:"leg_allocs_event"`
		IncCheck  float64 `json:"inc_check_ns_event"`
		LegCheck  float64 `json:"leg_check_ns_event"`
		Speedup   float64 `json:"speedup"`
		Agree     bool    `json:"agree"`
	} `json:"e14_stream"`
	// E15 is absent from reports written before the retention subsystem; a
	// nil slice simply skips the e15 comparison (tolerant decode).
	E15 []struct {
		Procs          int     `json:"procs"`
		Rounds         int     `json:"rounds"`
		Events         int     `json:"events"`
		Window         int     `json:"window"`
		RetNsEv        float64 `json:"ret_ns_event"`
		UnbNsEv        float64 `json:"unb_ns_event"`
		RetHeapPeak    float64 `json:"ret_heap_peak_bytes"`
		UnbHeapPeak    float64 `json:"unb_heap_peak_bytes"`
		RetRetainedMax int     `json:"ret_retained_max"`
		RetRetainedEnd int     `json:"ret_retained_end"`
		Released       int     `json:"released"`
		UnbRan         bool    `json:"unbounded_ran"`
		Agree          bool    `json:"agree"`
	} `json:"e15_soak"`

	Metrics obs.Snapshot `json:"metrics"`
}

// options are the gating knobs.
type options struct {
	Threshold      float64 // percent, comparison-count columns
	NsThreshold    float64 // percent, ns/op columns; 0 disables the gate
	AllocThreshold float64 // percent, allocs/op and bytes/op columns; 0 disables the gate
}

// colDelta is one compared column of one matched row.
type colDelta struct {
	Table  string  `json:"table"`  // e1 | e4 | e5 | e7 | e10 | e14 | e15
	Row    string  `json:"row"`    // e.g. "R2", "n=256"
	Column string  `json:"column"` // e.g. "fast_cmp"
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Pct    float64 `json:"pct"` // signed percent change; +Inf encoded as 0 with Old==0
	Gated  bool    `json:"gated"`
}

// reportDiff is the full comparison of two reports — the -json payload and
// the data behind the printed summary.
type reportDiff struct {
	OldPath        string           `json:"old"`
	NewPath        string           `json:"new"`
	Threshold      float64          `json:"threshold_pct"`
	NsThreshold    float64          `json:"ns_threshold_pct"`
	AllocThreshold float64          `json:"alloc_threshold_pct"`
	Deltas         []colDelta       `json:"deltas"`
	Regressions    []string         `json:"regressions"`
	Metrics        obs.SnapshotDiff `json:"metrics_delta"`
}

// pctChange is the signed percent change from old to new; a fresh column
// (old == 0, new > 0) reports +100%.
func pctChange(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return (new - old) / math.Abs(old) * 100
}

// diffReports compares two decoded reports under the gating options.
func diffReports(oldPath, newPath string, oldRep, newRep report, opt options) reportDiff {
	d := reportDiff{
		OldPath:        oldPath,
		NewPath:        newPath,
		Threshold:      opt.Threshold,
		NsThreshold:    opt.NsThreshold,
		AllocThreshold: opt.AllocThreshold,
	}
	regress := func(format string, args ...any) {
		d.Regressions = append(d.Regressions, fmt.Sprintf(format, args...))
	}
	addCol := func(table, row, col string, old, new float64, gated bool) {
		d.Deltas = append(d.Deltas, colDelta{
			Table: table, Row: row, Column: col,
			Old: old, New: new, Pct: pctChange(old, new), Gated: gated,
		})
	}

	// E1: agreement rate is correctness — any drop regresses, regardless of
	// threshold. Rates normalize out differing -trials between runs.
	type e1row struct{ rate float64 }
	oldE1 := map[string]e1row{}
	for _, r := range oldRep.E1 {
		if r.Trials > 0 {
			oldE1[r.Relation] = e1row{float64(r.Agreements) / float64(r.Trials)}
		}
	}
	for _, r := range newRep.E1 {
		prev, ok := oldE1[r.Relation]
		if !ok || r.Trials == 0 {
			continue
		}
		rate := float64(r.Agreements) / float64(r.Trials)
		addCol("e1", r.Relation, "agreement_rate", prev.rate, rate, true)
		if rate < prev.rate {
			regress("e1 %s: agreement rate %.4f -> %.4f", r.Relation, prev.rate, rate)
		}
	}

	// E4: bound-conformance rate is correctness too; max_comparisons gates
	// at the threshold, but only when the trial counts match (the maximum
	// over fewer trials is not comparable).
	type e4row struct {
		rate float64
		max  int64
		n    int
	}
	oldE4 := map[string]e4row{}
	for _, r := range oldRep.E4 {
		if r.Trials > 0 {
			oldE4[r.Relation] = e4row{float64(r.WithinBound) / float64(r.Trials), r.MaxCount, r.Trials}
		}
	}
	for _, r := range newRep.E4 {
		prev, ok := oldE4[r.Relation]
		if !ok || r.Trials == 0 {
			continue
		}
		rate := float64(r.WithinBound) / float64(r.Trials)
		addCol("e4", r.Relation, "within_bound_rate", prev.rate, rate, true)
		if rate < prev.rate {
			regress("e4 %s: within-bound rate %.4f -> %.4f", r.Relation, prev.rate, rate)
		}
		if r.Trials == prev.n {
			addCol("e4", r.Relation, "max_comparisons", float64(prev.max), float64(r.MaxCount), true)
			if pct := pctChange(float64(prev.max), float64(r.MaxCount)); pct > opt.Threshold {
				regress("e4 %s: max comparisons %d -> %d (%+.1f%% > %.1f%%)",
					r.Relation, prev.max, r.MaxCount, pct, opt.Threshold)
			}
		}
	}

	// E5: comparison counts per op are deterministic for a fixed seed —
	// gate at -threshold. ns/op is machine noise — gate only when
	// -ns-threshold is set.
	type e5row struct{ naive, proxy, fast, naiveNs, proxyNs, fastNs float64 }
	oldE5 := map[int]e5row{}
	for _, r := range oldRep.E5 {
		oldE5[r.N] = e5row{r.NaiveCmp, r.ProxyCmp, r.FastCmp, r.NaiveNsOp, r.ProxyNsOp, r.FastNsOp}
	}
	for _, r := range newRep.E5 {
		prev, ok := oldE5[r.N]
		if !ok {
			continue
		}
		row := fmt.Sprintf("n=%d", r.N)
		for _, c := range []struct {
			col      string
			old, new float64
			limit    float64
			timing   bool
		}{
			{"naive_cmp", prev.naive, r.NaiveCmp, opt.Threshold, false},
			{"proxy_cmp", prev.proxy, r.ProxyCmp, opt.Threshold, false},
			{"fast_cmp", prev.fast, r.FastCmp, opt.Threshold, false},
			{"naive_ns_op", prev.naiveNs, r.NaiveNsOp, opt.NsThreshold, true},
			{"proxy_ns_op", prev.proxyNs, r.ProxyNsOp, opt.NsThreshold, true},
			{"fast_ns_op", prev.fastNs, r.FastNsOp, opt.NsThreshold, true},
		} {
			gated := !c.timing || opt.NsThreshold > 0
			addCol("e5", row, c.col, c.old, c.new, gated)
			if gated {
				if pct := pctChange(c.old, c.new); pct > c.limit {
					regress("e5 %s: %s %.2f -> %.2f (%+.1f%% > %.1f%%)",
						row, c.col, c.old, c.new, pct, c.limit)
				}
			}
		}
	}

	// E7: parallel/serial agreement is correctness; speedup is timing and
	// follows the ns gate. Rows match on (n, workers) — a different worker
	// count (other machine shape) makes speedups incomparable.
	type e7key struct{ n, workers int }
	oldE7 := map[e7key]struct {
		speedup float64
		agree   bool
	}{}
	for _, r := range oldRep.E7 {
		oldE7[e7key{r.N, r.Workers}] = struct {
			speedup float64
			agree   bool
		}{r.Speedup, r.Agree}
	}
	for _, r := range newRep.E7 {
		if !r.Agree {
			regress("e7 n=%d: parallel batch disagrees with serial", r.N)
		}
		prev, ok := oldE7[e7key{r.N, r.Workers}]
		if !ok {
			continue
		}
		row := fmt.Sprintf("n=%d/w=%d", r.N, r.Workers)
		addCol("e7", row, "speedup", prev.speedup, r.Speedup, opt.NsThreshold > 0)
		if opt.NsThreshold > 0 && prev.speedup > 0 {
			if pct := pctChange(prev.speedup, r.Speedup); pct < -opt.NsThreshold {
				regress("e7 %s: speedup %.2f -> %.2f (%.1f%% < -%.1f%%)",
					row, prev.speedup, r.Speedup, pct, opt.NsThreshold)
			}
		}
	}

	// E10: fused/scan mask agreement is correctness; the per-profile
	// comparison counts are deterministic for a fixed seed and gate at
	// -threshold; ns/op follows the ns gate and allocs/bytes per op follow
	// the alloc gate (both report-only when their threshold is 0). Old
	// reports that predate the fused kernel simply have no e10 rows, so
	// nothing is compared (tolerant decode).
	type e10row struct {
		fusedNs, legacyNs, fusedCmp, legacyCmp         float64
		fusedAllocs, legacyAllocs, fusedB, legacyB, sp float64
	}
	oldE10 := map[int]e10row{}
	for _, r := range oldRep.E10 {
		oldE10[r.N] = e10row{r.FusedNsOp, r.LegacyNsOp, r.FusedCmp, r.LegacyCmp,
			r.FusedAllocs, r.LegacyAllocs, r.FusedBytes, r.LegacyBytes, r.Speedup}
	}
	for _, r := range newRep.E10 {
		if !r.Agree {
			regress("e10 n=%d: fused profiles disagree with the 32-relation scan baseline", r.N)
		}
		prev, ok := oldE10[r.N]
		if !ok {
			continue
		}
		row := fmt.Sprintf("n=%d", r.N)
		for _, c := range []struct {
			col      string
			old, new float64
			limit    float64
			always   bool // deterministic column: gate even at limit 0
		}{
			{"fused_cmp", prev.fusedCmp, r.FusedCmp, opt.Threshold, true},
			{"legacy_cmp", prev.legacyCmp, r.LegacyCmp, opt.Threshold, true},
			{"fused_ns_op", prev.fusedNs, r.FusedNsOp, opt.NsThreshold, false},
			{"legacy_ns_op", prev.legacyNs, r.LegacyNsOp, opt.NsThreshold, false},
			{"fused_allocs_op", prev.fusedAllocs, r.FusedAllocs, opt.AllocThreshold, false},
			{"legacy_allocs_op", prev.legacyAllocs, r.LegacyAllocs, opt.AllocThreshold, false},
			{"fused_bytes_op", prev.fusedB, r.FusedBytes, opt.AllocThreshold, false},
			{"legacy_bytes_op", prev.legacyB, r.LegacyBytes, opt.AllocThreshold, false},
		} {
			gated := c.always || c.limit > 0
			addCol("e10", row, c.col, c.old, c.new, gated)
			if gated {
				if pct := pctChange(c.old, c.new); pct > c.limit {
					regress("e10 %s: %s %.2f -> %.2f (%+.1f%% > %.1f%%)",
						row, c.col, c.old, c.new, pct, c.limit)
				}
			}
		}
		addCol("e10", row, "speedup", prev.sp, r.Speedup, opt.NsThreshold > 0)
		if opt.NsThreshold > 0 && prev.sp > 0 {
			if pct := pctChange(prev.sp, r.Speedup); pct < -opt.NsThreshold {
				regress("e10 %s: fused speedup %.2f -> %.2f (%.1f%% < -%.1f%%)",
					row, prev.sp, r.Speedup, pct, opt.NsThreshold)
			}
		}
	}

	// E14: online/cold-recompute verdict agreement is correctness; ns/event and
	// check ns/event follow the ns gate, allocs/event the alloc gate, and the
	// incremental speedup drops at -ns-threshold — all timing, no
	// deterministic columns. Rows match on (procs, rounds); old reports
	// without the streaming sweep compare nothing (tolerant decode).
	type e14key struct{ procs, rounds int }
	type e14row struct {
		incNs, legNs, incAllocs, legAllocs, incCheck, legCheck, sp float64
	}
	oldE14 := map[e14key]e14row{}
	for _, r := range oldRep.E14 {
		oldE14[e14key{r.Procs, r.Rounds}] = e14row{r.IncNsEv, r.LegNsEv,
			r.IncAllocs, r.LegAllocs, r.IncCheck, r.LegCheck, r.Speedup}
	}
	for _, r := range newRep.E14 {
		if !r.Agree {
			regress("e14 procs=%d/rounds=%d: online verdicts disagree with the cold-recompute baseline", r.Procs, r.Rounds)
		}
		prev, ok := oldE14[e14key{r.Procs, r.Rounds}]
		if !ok {
			continue
		}
		row := fmt.Sprintf("p=%d/r=%d", r.Procs, r.Rounds)
		for _, c := range []struct {
			col      string
			old, new float64
			limit    float64
		}{
			{"inc_ns_event", prev.incNs, r.IncNsEv, opt.NsThreshold},
			{"leg_ns_event", prev.legNs, r.LegNsEv, opt.NsThreshold},
			{"inc_check_ns_event", prev.incCheck, r.IncCheck, opt.NsThreshold},
			{"leg_check_ns_event", prev.legCheck, r.LegCheck, opt.NsThreshold},
			{"inc_allocs_event", prev.incAllocs, r.IncAllocs, opt.AllocThreshold},
			{"leg_allocs_event", prev.legAllocs, r.LegAllocs, opt.AllocThreshold},
		} {
			gated := c.limit > 0
			addCol("e14", row, c.col, c.old, c.new, gated)
			if gated {
				if pct := pctChange(c.old, c.new); pct > c.limit {
					regress("e14 %s: %s %.2f -> %.2f (%+.1f%% > %.1f%%)",
						row, c.col, c.old, c.new, pct, c.limit)
				}
			}
		}
		addCol("e14", row, "speedup", prev.sp, r.Speedup, opt.NsThreshold > 0)
		if opt.NsThreshold > 0 && prev.sp > 0 {
			if pct := pctChange(prev.sp, r.Speedup); pct < -opt.NsThreshold {
				regress("e14 %s: incremental speedup %.2f -> %.2f (%.1f%% < -%.1f%%)",
					row, prev.sp, r.Speedup, pct, opt.NsThreshold)
			}
		}
	}

	// E15: verdict-trace agreement across retention schedules (and the
	// unbounded leg where it ran) is correctness, and so is boundedness —
	// the retained working set exceeding a constant multiple of the policy
	// window means compaction stopped keeping memory flat, which is the
	// regression this experiment exists to catch. Both gate independent of
	// any threshold. ns/event follows the ns gate and heap peaks the alloc
	// gate. Rows match on (procs, rounds); old reports without the soak
	// sweep compare nothing (tolerant decode).
	type e15key struct{ procs, rounds int }
	type e15row struct {
		retNs, unbNs, retHeap, unbHeap float64
		retainedMax                    int
		unbRan                         bool
	}
	oldE15 := map[e15key]e15row{}
	for _, r := range oldRep.E15 {
		oldE15[e15key{r.Procs, r.Rounds}] = e15row{r.RetNsEv, r.UnbNsEv,
			r.RetHeapPeak, r.UnbHeapPeak, r.RetRetainedMax, r.UnbRan}
	}
	for _, r := range newRep.E15 {
		row := fmt.Sprintf("p=%d/r=%d", r.Procs, r.Rounds)
		if !r.Agree {
			regress("e15 %s: retained verdict traces disagree", row)
		}
		if r.Window > 0 && r.RetRetainedMax > 8*r.Window {
			regress("e15 %s: retained working set %d events exceeds 8x window %d",
				row, r.RetRetainedMax, r.Window)
		}
		prev, ok := oldE15[e15key{r.Procs, r.Rounds}]
		if !ok {
			continue
		}
		addCol("e15", row, "ret_retained_max", float64(prev.retainedMax), float64(r.RetRetainedMax), true)
		if pct := pctChange(float64(prev.retainedMax), float64(r.RetRetainedMax)); pct > opt.Threshold {
			regress("e15 %s: retained working set %d -> %d events (%+.1f%% > %.1f%%)",
				row, prev.retainedMax, r.RetRetainedMax, pct, opt.Threshold)
		}
		for _, c := range []struct {
			col      string
			old, new float64
			limit    float64
			have     bool
		}{
			{"ret_ns_event", prev.retNs, r.RetNsEv, opt.NsThreshold, true},
			{"unb_ns_event", prev.unbNs, r.UnbNsEv, opt.NsThreshold, prev.unbRan && r.UnbRan},
			{"ret_heap_peak_bytes", prev.retHeap, r.RetHeapPeak, opt.AllocThreshold, true},
			{"unb_heap_peak_bytes", prev.unbHeap, r.UnbHeapPeak, opt.AllocThreshold, prev.unbRan && r.UnbRan},
		} {
			if !c.have {
				continue
			}
			gated := c.limit > 0
			addCol("e15", row, c.col, c.old, c.new, gated)
			if gated {
				if pct := pctChange(c.old, c.new); pct > c.limit {
					regress("e15 %s: %s %.4g -> %.4g (%+.1f%% > %.1f%%)",
						row, c.col, c.old, c.new, pct, c.limit)
				}
			}
		}
	}

	// Metrics: forensic counter deltas via obs.Snapshot.Diff — never gated
	// (absolute counts scale with -trials/-reps, not with efficiency).
	d.Metrics = newRep.Metrics.Diff(oldRep.Metrics)
	return d
}

// print writes the human-readable summary: one header, every changed
// column, then the verdict.
func (d reportDiff) print(w io.Writer) {
	fmt.Fprintf(w, "benchdiff %s -> %s  (threshold %.1f%%, ns-threshold %.1f%%, alloc-threshold %.1f%%)\n",
		d.OldPath, d.NewPath, d.Threshold, d.NsThreshold, d.AllocThreshold)
	changed := 0
	for _, c := range d.Deltas {
		if c.Old == c.New {
			continue
		}
		changed++
		gate := " "
		if c.Gated {
			gate = "*"
		}
		fmt.Fprintf(w, "  %s%-3s %-10s %-14s %12.4g -> %-12.4g %+7.1f%%\n",
			gate, c.Table, c.Row, c.Column, c.Old, c.New, c.Pct)
	}
	if changed == 0 {
		fmt.Fprintln(w, "  no changes in compared columns")
	}
	if len(d.Regressions) == 0 {
		fmt.Fprintln(w, "OK: no regression beyond threshold")
		return
	}
	for _, r := range d.Regressions {
		fmt.Fprintf(w, "REGRESSION: %s\n", r)
	}
}
