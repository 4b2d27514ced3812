package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/trace"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	return writeRing(t, 2)
}

// writeRing records a 3-process ring execution of the given rounds with its
// rounds as named intervals. Eight rounds are enough for a tight retention
// window to release intervals and compact the stream mid-replay.
func writeRing(t *testing.T, rounds int) string {
	t.Helper()
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: rounds, Seed: 1})
	named := map[string][]poset.EventID{}
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	return saveTrace(t, res.Exec, named)
}

// saveTrace writes an execution and its named intervals as a trace file.
func saveTrace(t *testing.T, ex *poset.Execution, named map[string][]poset.EventID) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.New(ex, named).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadTrace loads the trace at path with its execution and intervals.
func loadTrace(t *testing.T, path string) (*poset.Execution, map[string]*interval.Interval) {
	t.Helper()
	f, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := f.Execution()
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := f.AllIntervals(ex)
	if err != nil {
		t.Fatal(err)
	}
	return ex, ivs
}

// offlineVerdicts checks the conditions against the trace at path with the
// offline monitor, monitor.Monitor, the reference for every streamed
// verdict, and renders its results as syncmon's verdict lines.
func offlineVerdicts(t *testing.T, path string, conds [][2]string) string {
	t.Helper()
	ex, ivs := loadTrace(t, path)
	m := monitor.New(ex)
	for name, iv := range ivs {
		if err := m.DefineInterval(name, iv); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conds {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	for _, r := range m.Check() {
		switch r.State {
		case monitor.Holds:
			fmt.Fprintf(&sb, "PASS  %s\n", r.Name)
		case monitor.Violated:
			fmt.Fprintf(&sb, "FAIL  %s\n", r.Name)
		default:
			t.Fatalf("offline verdict of %s: %v %v", r.Name, r.State, r.Err)
		}
	}
	return sb.String()
}

// condArgs renders conditions as -cond flags.
func condArgs(conds [][2]string) []string {
	var args []string
	for _, c := range conds {
		args = append(args, "-cond", c[0]+": "+c[1])
	}
	return args
}

// multiReceive builds the 3-process execution in which p0:2 receives the
// messages sent at p1:1 and p2:1.
func multiReceive(t *testing.T) *poset.Execution {
	t.Helper()
	b := poset.NewBuilder(3)
	b.Append(0)
	recv := b.Append(0)
	for _, p := range []int{1, 2} {
		if err := b.Message(b.Append(p), recv); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// TestRunMultiReceive: a receive that merges two sends is checked alike
// with and without a retention policy, with the offline monitor's verdicts.
func TestRunMultiReceive(t *testing.T) {
	path := saveTrace(t, multiReceive(t), map[string][]poset.EventID{
		"first":   {{Proc: 0, Pos: 1}},
		"senders": {{Proc: 1, Pos: 1}, {Proc: 2, Pos: 1}},
		"recv":    {{Proc: 0, Pos: 2}},
	})
	prevStderr := stderrW
	stderrW = io.Discard
	defer func() { stderrW = prevStderr }()
	conds := [][2]string{{"x", "R1(senders, recv)"}, {"y", "R1(first, senders)"}}
	want := offlineVerdicts(t, path, conds)
	if want != "PASS  x\nFAIL  y\n" {
		t.Fatalf("offline verdicts:\n%s\nwant PASS x and FAIL y", want)
	}
	args := append([]string{"-trace", path}, condArgs(conds)...)
	for _, extra := range [][]string{nil, {"-retention", "events=8,every=4"}} {
		var buf bytes.Buffer
		code, err := run(append(args, extra...), &buf)
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if code != exitViolation || buf.String() != want {
			t.Errorf("%v: exit %d, output:\n%s\nwant exit %d and\n%s", extra, code, buf.String(), exitViolation, want)
		}
	}
}

func TestRunPassAndFail(t *testing.T) {
	path := writeTrace(t)
	var buf bytes.Buffer
	code, err := run([]string{"-trace", path,
		"-cond", "ordered: R1(ring-round-0, ring-round-1)",
		"-cond", "no-backflow: !R4(ring-round-1, ring-round-0)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Errorf("all conditions should hold, got exit %d:\n%s", code, buf.String())
	}
	if strings.Count(buf.String(), "PASS") != 2 {
		t.Errorf("expected 2 PASS lines:\n%s", buf.String())
	}

	buf.Reset()
	code, err = run([]string{"-trace", path, "-cond", "backwards: R1(ring-round-1, ring-round-0)"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitViolation || !strings.Contains(buf.String(), "FAIL  backwards") {
		t.Errorf("violation should exit %d, got %d:\n%s", exitViolation, code, buf.String())
	}
}

// TestRunExitCodeContract pins the documented contract: violations exit 1,
// internal errors (SKIP/ERROR results) exit 2, and errors dominate
// violations when both occur in one run.
func TestRunPendingAndError(t *testing.T) {
	path := writeTrace(t)
	var buf bytes.Buffer
	code, err := run([]string{"-trace", path, "-cond", "ghost: R1(nope, ring-round-0)"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitError || !strings.Contains(buf.String(), "SKIP  ghost") {
		t.Errorf("undefined interval should exit %d, got %d:\n%s", exitError, code, buf.String())
	}
	// Overlapping operands produce an evaluation error.
	buf.Reset()
	code, err = run([]string{"-trace", path, "-cond", "self: R4(ring-round-0, ring-round-0)"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitError || !strings.Contains(buf.String(), "ERROR self") {
		t.Errorf("overlap should exit %d, got %d:\n%s", exitError, code, buf.String())
	}
	// Errors dominate violations: a FAIL plus a SKIP is still exit 2.
	buf.Reset()
	code, err = run([]string{"-trace", path,
		"-cond", "backwards: R1(ring-round-1, ring-round-0)",
		"-cond", "ghost: R1(nope, ring-round-0)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitError {
		t.Errorf("error should dominate violation: want exit %d, got %d:\n%s", exitError, code, buf.String())
	}
}

func TestRunConditionsFile(t *testing.T) {
	path := writeTrace(t)
	condPath := filepath.Join(t.TempDir(), "conds.txt")
	content := "# ring ordering rules\n\nordered: R1(ring-round-0, ring-round-1)\nreach: R4(ring-round-0, ring-round-1)\n"
	if err := os.WriteFile(condPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	code, err := run([]string{"-trace", path, "-conds", condPath}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK || strings.Count(buf.String(), "PASS") != 2 {
		t.Errorf("conditions file run failed (exit %d):\n%s", code, buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTrace(t)
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},
		{"-trace", "/no/such.json", "-cond", "a: R1(x, y)"},
		{"-trace", path},
		{"-trace", path, "-cond", "no-colon-here"},
		{"-trace", path, "-cond", "bad: R1(x"},
		{"-trace", path, "-conds", "/no/such/conds.txt"},
	} {
		if _, err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestRunMetricsAndTrace checks that -metrics captures the evaluator
// comparison counters behind the monitor checks and -trace-out produces a
// valid Chrome trace_event file.
func TestRunMetricsAndTrace(t *testing.T) {
	path := writeTrace(t)
	dir := t.TempDir()
	metPath := filepath.Join(dir, "metrics.json")
	trPath := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	code, err := run([]string{"-trace", path,
		"-metrics", metPath, "-trace-out", trPath,
		"-cond", "ordered: R1(ring-round-0, ring-round-1)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}

	metBytes, err := os.ReadFile(metPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(metBytes, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v\n%s", err, metBytes)
	}
	if snap.Counters["core.fast.comparisons"] <= 0 {
		t.Errorf("core.fast.comparisons not recorded: %v", snap.Counters)
	}
	if snap.Counters["online.settlements"] < 1 {
		t.Errorf("online.settlements not recorded: %v", snap.Counters)
	}

	trBytes, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trBytes, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v\n%s", err, trBytes)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}
