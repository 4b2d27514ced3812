package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseReport is a minimal well-formed causet-benchtab/1 report the tests
// perturb. Kept as a Go literal (not a testdata file) so perturbations are
// explicit at the assertion site.
func baseReport() map[string]any {
	return map[string]any{
		"schema":     "causet-benchtab/1",
		"go_version": "go1.24.0",
		"gomaxprocs": 1,
		"seed":       1,
		"trials":     100,
		"reps":       5,
		"e1_agreement": []map[string]any{
			{"relation": "R1", "trials": 100, "agreements": 100, "held": 6},
			{"relation": "R2", "trials": 100, "agreements": 100, "held": 54},
		},
		"e4_bounds": []map[string]any{
			{"relation": "R1", "bound": "min(|N_X|,|N_Y|)", "trials": 100, "within_bound": 100, "tight_hits": 6, "max_comparisons": 2},
		},
		"e5_sweep": []map[string]any{
			{"n": 8, "naive_cmp": 64, "proxy_cmp": 16, "fast_cmp": 4,
				"naive_ns_op": 900, "proxy_ns_op": 300, "fast_ns_op": 100, "proxy_over_fast": 3.0},
			{"n": 32, "naive_cmp": 1024, "proxy_cmp": 64, "fast_cmp": 8,
				"naive_ns_op": 9000, "proxy_ns_op": 1200, "fast_ns_op": 250, "proxy_over_fast": 4.8},
		},
		"e7_parallel": []map[string]any{
			{"n": 32, "workers": 4, "queries": 1000, "serial_ns": 5000, "parallel_ns": 1500, "speedup": 3.3, "agree": true},
		},
		"metrics": map[string]any{
			"counters": map[string]int64{"core.fast.comparisons": 1000, "core.cut_builds": 40},
			"gauges":   map[string]int64{},
		},
	}
}

// writeReport marshals a report literal into dir under name.
func writeReport(t *testing.T, dir, name string, rep map[string]any) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNoRegressionExitsZero(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport())
	new := writeReport(t, dir, "new.json", baseReport())
	var buf bytes.Buffer
	code, err := run([]string{old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("identical reports: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "OK: no regression") {
		t.Errorf("missing OK verdict:\n%s", buf.String())
	}
}

// TestComparisonRegressionGates: a fast_cmp increase past -threshold exits 1;
// within the threshold it stays 0 but still shows in the delta listing.
func TestComparisonRegressionGates(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport())
	worse := baseReport()
	worse["e5_sweep"].([]map[string]any)[1]["fast_cmp"] = 16 // 8 -> 16: +100%
	new := writeReport(t, dir, "new.json", worse)

	var buf bytes.Buffer
	code, err := run([]string{"-threshold", "10", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("+100%% fast_cmp at threshold 10: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION: e5 n=32: fast_cmp") {
		t.Errorf("missing regression line:\n%s", buf.String())
	}

	buf.Reset()
	code, err = run([]string{"-threshold", "150", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("+100%% under threshold 150: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "fast_cmp") {
		t.Errorf("delta listing should still show the change:\n%s", buf.String())
	}
}

// TestTimingReportedNotGated: ns/op explosions never gate by default, only
// when -ns-threshold is set.
func TestTimingReportedNotGated(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport())
	slow := baseReport()
	slow["e5_sweep"].([]map[string]any)[0]["fast_ns_op"] = 100000
	new := writeReport(t, dir, "new.json", slow)

	var buf bytes.Buffer
	code, err := run([]string{old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("timing change should not gate by default: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "fast_ns_op") {
		t.Errorf("timing delta should still be reported:\n%s", buf.String())
	}

	buf.Reset()
	code, err = run([]string{"-ns-threshold", "50", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("-ns-threshold 50 should gate a 1000x slowdown: exit %d\n%s", code, buf.String())
	}
}

// TestCorrectnessDropsAlwaysGate: agreement-rate and bound-rate drops and a
// parallel/serial disagreement regress at any threshold.
func TestCorrectnessDropsAlwaysGate(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport())

	for name, mutate := range map[string]func(map[string]any){
		"e1 agreement": func(r map[string]any) {
			r["e1_agreement"].([]map[string]any)[0]["agreements"] = 99
		},
		"e4 bound": func(r map[string]any) {
			r["e4_bounds"].([]map[string]any)[0]["within_bound"] = 98
		},
		"e7 disagree": func(r map[string]any) {
			r["e7_parallel"].([]map[string]any)[0]["agree"] = false
		},
	} {
		bad := baseReport()
		mutate(bad)
		new := writeReport(t, dir, "bad.json", bad)
		var buf bytes.Buffer
		code, err := run([]string{"-threshold", "10000", old, new}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if code != exitRegression {
			t.Errorf("%s drop should gate at any threshold: exit %d\n%s", name, code, buf.String())
		}
	}
}

// TestRateNormalization: the same agreement rate over a different trial
// count is not a regression (CI runs small sweeps against big baselines).
func TestRateNormalization(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport())
	small := baseReport()
	small["trials"] = 20
	for _, row := range small["e1_agreement"].([]map[string]any) {
		row["trials"] = 20
		row["agreements"] = 20
	}
	for _, row := range small["e4_bounds"].([]map[string]any) {
		row["trials"] = 20
		row["within_bound"] = 20
		row["max_comparisons"] = 1000 // incomparable max over fewer trials: ignored
	}
	new := writeReport(t, dir, "new.json", small)
	var buf bytes.Buffer
	code, err := run([]string{"-threshold", "5", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("perfect rates over fewer trials should pass: exit %d\n%s", code, buf.String())
	}
}

// TestTrajectoryMode diffs a directory of BENCH_*.json files pairwise in
// name order and gates on any pair.
func TestTrajectoryMode(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, dir, "BENCH_a.json", baseReport())
	mid := baseReport()
	mid["e5_sweep"].([]map[string]any)[0]["fast_cmp"] = 5 // +25%, within 50%
	writeReport(t, dir, "BENCH_b.json", mid)
	bad := baseReport()
	bad["e5_sweep"].([]map[string]any)[0]["fast_cmp"] = 40 // 5 -> 40 vs mid
	writeReport(t, dir, "BENCH_c.json", bad)

	var buf bytes.Buffer
	code, err := run([]string{"-threshold", "50", dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("trajectory with a bad last hop: exit %d\n%s", code, buf.String())
	}
	if got := strings.Count(buf.String(), "benchdiff "); got != 2 {
		t.Errorf("3 files should print 2 pairwise diffs, got %d:\n%s", got, buf.String())
	}
}

// TestJSONOutput: -json emits a machine-readable diff including the metrics
// counter deltas from obs.Snapshot.Diff.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport())
	newer := baseReport()
	newer["metrics"].(map[string]any)["counters"].(map[string]int64)["core.fast.comparisons"] = 1500
	new := writeReport(t, dir, "new.json", newer)
	outPath := filepath.Join(dir, "diff.json")

	var buf bytes.Buffer
	if _, err := run([]string{"-json", outPath, old, new}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var d reportDiff
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("-json output invalid: %v\n%s", err, data)
	}
	if d.OldPath != old || d.NewPath != new {
		t.Errorf("paths = %q -> %q", d.OldPath, d.NewPath)
	}
	if d.Metrics.Counters["core.fast.comparisons"] != 500 {
		t.Errorf("metrics delta = %v, want core.fast.comparisons=500", d.Metrics.Counters)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json", baseReport())
	wrongSchema := baseReport()
	wrongSchema["schema"] = "causet-benchtab/999"
	badSchema := writeReport(t, dir, "bad.json", wrongSchema)
	notJSON := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(notJSON, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir() // no BENCH_*.json files

	var buf bytes.Buffer
	for _, args := range [][]string{
		{},
		{good},
		{good, good, good},
		{good, badSchema},
		{good, notJSON},
		{good, filepath.Join(dir, "missing.json")},
		{empty},
	} {
		if _, err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestAgainstCommittedBaseline: the committed BENCH_e1.json diffs cleanly
// against itself — the exact shape of the CI gate's happy path.
func TestAgainstCommittedBaseline(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_e1.json")
	if _, err := os.Stat(baseline); err != nil {
		t.Skip("BENCH_e1.json not present")
	}
	var buf bytes.Buffer
	code, err := run([]string{"-threshold", "5", baseline, baseline}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("self-diff of the committed baseline: exit %d\n%s", code, buf.String())
	}
}

// e10Rows is the e10_profile block the alloc-gate tests perturb.
func e10Rows() []map[string]any {
	return []map[string]any{
		{"n": 8, "pairs": 56, "fused_ns_op": 800, "legacy_ns_op": 3000,
			"fused_cmp": 90, "legacy_cmp": 144,
			"fused_allocs_op": 34, "legacy_allocs_op": 174,
			"fused_bytes_op": 26000, "legacy_bytes_op": 47000,
			"speedup": 3.7, "agree": true},
	}
}

// TestOldReportWithoutE10Tolerated: a baseline written before the fused
// kernel existed has no e10_profile block; diffing it against a new report
// that carries one must parse cleanly and not invent regressions — the e10
// columns are simply skipped for lack of an old row.
func TestOldReportWithoutE10Tolerated(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport()) // no e10_profile key
	newer := baseReport()
	newer["e10_profile"] = e10Rows()
	new := writeReport(t, dir, "new.json", newer)

	var buf bytes.Buffer
	code, err := run([]string{"-alloc-threshold", "5", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("old report without e10 should diff cleanly: exit %d\n%s", code, buf.String())
	}
	if strings.Contains(buf.String(), "e10") {
		t.Errorf("no e10 columns should be compared without an old row:\n%s", buf.String())
	}

	// The reverse direction (new report dropped the table) is tolerated too.
	code, err = run([]string{new, old}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("new report without e10: exit %d", code)
	}
}

// TestAllocGateOptIn: allocs/op growth is report-only by default and gates
// only under -alloc-threshold, mirroring the ns gate; comparison columns in
// e10 gate at -threshold like E5's.
func TestAllocGateOptIn(t *testing.T) {
	dir := t.TempDir()
	base := baseReport()
	base["e10_profile"] = e10Rows()
	old := writeReport(t, dir, "old.json", base)

	leaky := baseReport()
	rows := e10Rows()
	rows[0]["fused_allocs_op"] = 68 // 34 -> 68: +100%
	leaky["e10_profile"] = rows
	new := writeReport(t, dir, "new.json", leaky)

	var buf bytes.Buffer
	code, err := run([]string{old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("alloc growth should not gate by default: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "fused_allocs_op") {
		t.Errorf("alloc delta should still be reported:\n%s", buf.String())
	}

	buf.Reset()
	code, err = run([]string{"-alloc-threshold", "50", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("-alloc-threshold 50 should gate +100%% allocs/op: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION: e10 n=8: fused_allocs_op") {
		t.Errorf("missing alloc regression line:\n%s", buf.String())
	}

	// Comparison-count growth in e10 gates at -threshold, like E5.
	slower := baseReport()
	rows = e10Rows()
	rows[0]["fused_cmp"] = 200 // 90 -> 200: +122%
	slower["e10_profile"] = rows
	new2 := writeReport(t, dir, "new2.json", slower)
	buf.Reset()
	code, err = run([]string{"-threshold", "10", old, new2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("+122%% fused_cmp at threshold 10: exit %d\n%s", code, buf.String())
	}

	// A fused/scan mask disagreement is correctness: gates at any threshold.
	broken := baseReport()
	rows = e10Rows()
	rows[0]["agree"] = false
	broken["e10_profile"] = rows
	new3 := writeReport(t, dir, "new3.json", broken)
	buf.Reset()
	code, err = run([]string{"-threshold", "10000", old, new3}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("fused/scan disagreement should gate at any threshold: exit %d\n%s", code, buf.String())
	}
}

// TestReportWithTsdbSectionTolerated: reports written after the telemetry
// sampler exist carry a "tsdb" section (the time-series dump sampled while
// the sweeps ran). benchdiff compares the benchmark tables, not the
// telemetry, so the section must be ignored in every pairing — new-vs-old,
// old-vs-new, and both-with-tsdb — without changing any verdict.
func TestReportWithTsdbSectionTolerated(t *testing.T) {
	tsdbSection := map[string]any{
		"taken_at_ns": 1700000000000000000,
		"series": []map[string]any{
			{"name": "tsdb.samples", "kind": "counter", "points": []map[string]any{
				{"t": 1700000000000000000, "v": 3},
			}},
			{"name": "online.detect_latency_ns.p99", "kind": "gauge", "points": []map[string]any{
				{"t": 1700000000000000000, "v": 125000},
			}},
		},
	}
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport()) // pre-telemetry report
	newer := baseReport()
	newer["tsdb"] = tsdbSection
	new := writeReport(t, dir, "new.json", newer)

	var buf bytes.Buffer
	for _, pair := range [][]string{{old, new}, {new, old}, {new, new}} {
		buf.Reset()
		code, err := run(pair, &buf)
		if err != nil {
			t.Fatalf("run(%v): %v", pair, err)
		}
		if code != exitOK {
			t.Errorf("run(%v): exit %d, want clean diff\n%s", pair, code, buf.String())
		}
		if strings.Contains(buf.String(), "tsdb") {
			t.Errorf("run(%v): telemetry leaked into the diff:\n%s", pair, buf.String())
		}
	}
}

// e15Rows is the e15_soak block the soak-gate tests perturb.
func e15Rows() []map[string]any {
	return []map[string]any{
		{"procs": 8, "rounds": 16000, "events": 128000, "window": 512,
			"ret_ns_event": 9000, "unb_ns_event": 0,
			"ret_heap_peak_bytes": 4500000, "unb_heap_peak_bytes": 0,
			"ret_retained_max": 700, "ret_retained_end": 650,
			"unb_retained_max": 0, "released": 15000, "settled": 15999,
			"unbounded_ran": false, "agree": true},
	}
}

// TestOldReportWithoutE15Tolerated: a baseline written before the retention
// subsystem existed has no e15_soak block; diffing it against a new report
// that carries one must parse cleanly and not invent regressions — e15
// columns are skipped for lack of an old row, while the new report's own
// correctness checks (agreement, boundedness) still run.
func TestOldReportWithoutE15Tolerated(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport()) // no e15_soak key
	newer := baseReport()
	newer["e15_soak"] = e15Rows()
	new := writeReport(t, dir, "new.json", newer)

	var buf bytes.Buffer
	code, err := run([]string{"-threshold", "5", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("old report without e15 should diff cleanly: exit %d\n%s", code, buf.String())
	}
	if strings.Contains(buf.String(), "e15") {
		t.Errorf("no e15 columns should be compared without an old row:\n%s", buf.String())
	}

	// The reverse direction (new report dropped the table) is tolerated too.
	code, err = run([]string{new, old}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("new report without e15: exit %d", code)
	}
}

// TestSoakCorrectnessGates: a verdict-trace disagreement or a retained
// working set past 8x the policy window regresses at any threshold — these
// are the properties the retention subsystem exists to hold — even when the
// old report has no e15 row to compare against.
func TestSoakCorrectnessGates(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport()) // no e15_soak key

	for name, mutate := range map[string]func([]map[string]any){
		"verdict disagreement": func(rows []map[string]any) {
			rows[0]["agree"] = false
		},
		"unbounded working set": func(rows []map[string]any) {
			rows[0]["ret_retained_max"] = 9 * 512
		},
	} {
		bad := baseReport()
		rows := e15Rows()
		mutate(rows)
		bad["e15_soak"] = rows
		new := writeReport(t, dir, "bad.json", bad)
		var buf bytes.Buffer
		code, err := run([]string{"-threshold", "10000", old, new}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if code != exitRegression {
			t.Errorf("%s should gate at any threshold: exit %d\n%s", name, code, buf.String())
		}
	}
}

// TestSoakRetainedGrowthGates: the retained working set growing past
// -threshold against the baseline is a regression (memory creep below the
// hard 8x-window ceiling); heap bytes follow the alloc gate.
func TestSoakRetainedGrowthGates(t *testing.T) {
	dir := t.TempDir()
	base := baseReport()
	base["e15_soak"] = e15Rows()
	old := writeReport(t, dir, "old.json", base)

	creep := baseReport()
	rows := e15Rows()
	rows[0]["ret_retained_max"] = 1400 // 700 -> 1400: +100%, still under 8x window
	creep["e15_soak"] = rows
	new := writeReport(t, dir, "new.json", creep)

	var buf bytes.Buffer
	code, err := run([]string{"-threshold", "10", old, new}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("+100%% retained working set at threshold 10: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION: e15 p=8/r=16000: retained working set") {
		t.Errorf("missing retained-growth regression line:\n%s", buf.String())
	}

	// Heap-peak growth is report-only by default, gating under -alloc-threshold.
	bloat := baseReport()
	rows = e15Rows()
	rows[0]["ret_heap_peak_bytes"] = 9000000 // +100%
	bloat["e15_soak"] = rows
	new2 := writeReport(t, dir, "new2.json", bloat)
	buf.Reset()
	code, err = run([]string{old, new2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("heap growth should not gate by default: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "ret_heap_peak_bytes") {
		t.Errorf("heap delta should still be reported:\n%s", buf.String())
	}
	buf.Reset()
	code, err = run([]string{"-alloc-threshold", "50", old, new2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitRegression {
		t.Errorf("-alloc-threshold 50 should gate +100%% heap peak: exit %d\n%s", code, buf.String())
	}
}
