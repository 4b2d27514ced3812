package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunMetricsAndTraceOut: -metrics captures the comparison-accounting
// counters of the evaluations relcheck ran, and -trace-out emits a valid
// Chrome trace_event file with at least the cut-build spans.
func TestRunMetricsAndTraceOut(t *testing.T) {
	path := writeTrace(t)
	dir := t.TempDir()
	metPath := filepath.Join(dir, "metrics.json")
	trPath := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	err := run([]string{"-trace", path, "-all32", "-x", "ring-round-0", "-y", "ring-round-2",
		"-metrics", metPath, "-trace-out", trPath}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	metBytes, err := os.ReadFile(metPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(metBytes, &snap); err != nil {
		t.Fatalf("metrics snapshot invalid JSON: %v\n%s", err, metBytes)
	}
	// The fast -all32 path runs through the engine's fused profile kernel, so
	// the accounting lands on the core.fused.* counters and the proxy-cut
	// cache (4 proxies per pair), not on per-Eval counters.
	if snap.Counters["core.fused.profiles"] != 1 {
		t.Errorf("core.fused.profiles = %d, want 1 (-all32 run): %v",
			snap.Counters["core.fused.profiles"], snap.Counters)
	}
	if snap.Counters["core.fused.comparisons"] <= 0 {
		t.Errorf("core.fused.comparisons missing from snapshot: %v", snap.Counters)
	}
	if snap.Counters["core.proxy_cut_builds"] != 4 {
		t.Errorf("core.proxy_cut_builds = %d, want 4: %v",
			snap.Counters["core.proxy_cut_builds"], snap.Counters)
	}

	trBytes, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trBytes, &tf); err != nil {
		t.Fatalf("trace file invalid JSON: %v\n%s", err, trBytes)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}

// TestRunMetricsDash: "-metrics -" writes the snapshot to stderr (captured
// via the stderrW hook) — the acceptance-criteria invocation.
func TestRunMetricsDash(t *testing.T) {
	path := writeTrace(t)
	var errBuf bytes.Buffer
	old := stderrW
	stderrW = &errBuf
	defer func() { stderrW = old }()

	var buf bytes.Buffer
	err := run([]string{"-trace", path, "-x", "ring-round-0", "-y", "ring-round-1", "-count",
		"-metrics", "-"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(errBuf.Bytes(), &snap); err != nil {
		t.Fatalf("stderr snapshot invalid JSON: %v\n%s", err, errBuf.String())
	}
	found := false
	for name, v := range snap.Counters {
		if len(name) > len("core.") && name[:5] == "core." && v > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no positive core.* comparison counters on stderr: %v", snap.Counters)
	}
}

// TestCountEvaluatesOncePerRelation: an 8-relation -count listing evaluates
// each relation exactly once through the engine, whatever the pool width —
// core.fast.evals is 8, and core.fast.comparisons is the same at -parallel
// 0, 1 and 4.
func TestCountEvaluatesOncePerRelation(t *testing.T) {
	path := writeTrace(t)
	comparisons := map[string]int64{}
	for _, w := range []string{"0", "1", "4"} {
		metPath := filepath.Join(t.TempDir(), "metrics.json")
		var buf bytes.Buffer
		if err := run([]string{"-trace", path, "-x", "ring-round-0", "-y", "ring-round-1", "-count",
			"-parallel", w, "-metrics", metPath}, &buf); err != nil {
			t.Fatal(err)
		}
		metBytes, err := os.ReadFile(metPath)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(metBytes, &snap); err != nil {
			t.Fatal(err)
		}
		if got := snap.Counters["core.fast.evals"]; got != 8 {
			t.Errorf("-parallel %s: core.fast.evals = %d, want 8", w, got)
		}
		comparisons[w] = snap.Counters["core.fast.comparisons"]
	}
	if comparisons["0"] <= 0 || comparisons["1"] != comparisons["0"] || comparisons["4"] != comparisons["0"] {
		t.Errorf("core.fast.comparisons by -parallel = %v, want one positive value", comparisons)
	}
}

// TestRunBatchMetrics: parallel batch runs mirror their Stats into batch.*
// registry counters.
func TestRunBatchMetrics(t *testing.T) {
	path := writeTrace(t)
	metPath := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	err := run([]string{"-trace", path, "-matrix", "-parallel", "2",
		"-metrics", metPath}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	metBytes, err := os.ReadFile(metPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(metBytes, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["batch.queries"] <= 0 || snap.Counters["batch.batches"] <= 0 {
		t.Errorf("batch counters missing from -matrix -parallel run: %v", snap.Counters)
	}
}

// TestRunLogJSONL: -log emits one valid JSON object per line with the fixed
// prefix fields and the run lifecycle events, and -log-level error
// suppresses the info-level ones.
func TestRunLogJSONL(t *testing.T) {
	path := writeTrace(t)
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	var buf bytes.Buffer
	err := run([]string{"-trace", path, "-x", "ring-round-0", "-y", "ring-round-2",
		"-log", logPath, "-log-level", "debug"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			TS    string `json:"ts"`
			Level string `json:"level"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line not valid JSON: %v\n%s", err, line)
		}
		if rec.TS == "" || rec.Level == "" || rec.Event == "" {
			t.Errorf("log line missing prefix fields: %s", line)
		}
		events[rec.Event]++
	}
	for _, want := range []string{"trace_loaded", "eval_start", "run_complete"} {
		if events[want] != 1 {
			t.Errorf("%s events = %d, want 1:\n%s", want, events[want], data)
		}
	}

	logPath2 := filepath.Join(t.TempDir(), "quiet.jsonl")
	buf.Reset()
	if err := run([]string{"-trace", path, "-x", "ring-round-0", "-y", "ring-round-2",
		"-log", logPath2, "-log-level", "error"}, &buf); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(logPath2); err != nil {
		t.Fatal(err)
	} else if len(bytes.TrimSpace(data)) != 0 {
		t.Errorf("-log-level error on a clean run should log nothing:\n%s", data)
	}

	if err := run([]string{"-trace", path, "-x", "a", "-y", "b",
		"-log", "-", "-log-level", "loud"}, &buf); err == nil {
		t.Error("bad -log-level accepted")
	}
}
