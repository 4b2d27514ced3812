package main

import (
	"bytes"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"causet/internal/faultsim"
	"causet/internal/obs/flight"
	"causet/internal/poset"
	"causet/internal/vclock"
)

// These tests pin the syncmon exit-status contract when the trace comes from
// the deterministic fault simulator (-faults) instead of a recorded file:
// dropped and duplicated messages must never turn a clean verdict into a
// wrong one — they either leave the verdicts intact (exit 0/1 as the
// conditions dictate) or erase the intervals entirely, which the contract
// maps to SKIP and exit 2.

// TestFaultsExitOK: a fault-free simulated run with a holding condition
// exits 0.
func TestFaultsExitOK(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{
		"-faults", "twophase,nodes=3,rounds=2,seed=5",
		"-cond", "causal: R1(vote-0, apply-0)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK || strings.Count(buf.String(), "PASS") != 1 {
		t.Errorf("holding condition under no faults: want exit %d, got %d:\n%s",
			exitOK, code, buf.String())
	}
}

// TestFaultsDuplicatesSettleCleanly: duplicating every message changes the
// execution (the second copy is still consumed by some later Recv, adding
// events and causal edges), but the verdicts must still settle cleanly —
// every condition PASSes or FAILs, never SKIP or ERROR. A condition and its
// negation settle to opposite verdicts, so the run exits 1, and a tautology
// alone exits 0.
func TestFaultsDuplicatesSettleCleanly(t *testing.T) {
	const spec = "twophase,nodes=3,rounds=2,seed=5,dup=1"
	var buf bytes.Buffer
	code, err := run([]string{
		"-faults", spec,
		"-cond", "always: R1(vote-0, apply-0) || !R1(vote-0, apply-0)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK || strings.Count(buf.String(), "PASS") != 1 {
		t.Errorf("tautology under dup=1: want exit %d, got %d:\n%s",
			exitOK, code, buf.String())
	}

	buf.Reset()
	code, err = run([]string{
		"-faults", spec,
		"-cond", "c: R1(vote-0, apply-0)",
		"-cond", "negc: !R1(vote-0, apply-0)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if code != exitViolation {
		t.Errorf("condition + negation under dup=1: want exit %d, got %d:\n%s",
			exitViolation, code, out)
	}
	if strings.Count(out, "PASS") != 1 || strings.Count(out, "FAIL") != 1 {
		t.Errorf("want exactly one PASS and one FAIL:\n%s", out)
	}
	if strings.Contains(out, "SKIP") || strings.Contains(out, "ERROR") {
		t.Errorf("duplicates must not produce SKIP/ERROR:\n%s", out)
	}
}

// TestFaultsDropsSkipConditions: dropping every message starves the protocol
// — no transaction completes, so none of the named intervals are ever
// captured. Conditions referencing them report SKIP, and SKIP is an internal
// error by contract: exit 2, dominating any violation in the same run.
func TestFaultsDropsSkipConditions(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{
		"-faults", "twophase,nodes=3,rounds=2,seed=5,drop=1",
		"-cond", "causal: R1(vote-0, apply-0)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitError || !strings.Contains(buf.String(), "SKIP  causal") {
		t.Errorf("erased intervals under drop=1: want SKIP and exit %d, got %d:\n%s",
			exitError, code, buf.String())
	}
}

// TestFaultsDeterministicOutput: the same chaos spec yields byte-identical
// syncmon output — the whole point of seeded fault injection is that a
// failure seen once reproduces forever.
func TestFaultsDeterministicOutput(t *testing.T) {
	args := []string{
		"-faults", "mutex,nodes=4,rounds=2,seed=11,drop=0.1,dup=0.2,delay=0.3,reorder=0.5",
		"-cond", "first: R1(cs-n0-e0, cs-n0-e1)",
	}
	var first string
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		code, err := run(args, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if code != exitOK && code != exitViolation && code != exitError {
			t.Fatalf("run %d: unexpected exit %d:\n%s", i, code, buf.String())
		}
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d output differs:\n%s\nvs\n%s", i, buf.String(), first)
		}
	}
}

// TestFaultsFlightBundle: a -faults run records its flight bundle from the
// replay that feeds the monitor. Arming the recorder leaves stdout as it
// was; every event carries the clock vclock.New computes over the simulated
// execution and the runtime's label for it, the final clocks are exact too,
// and the ring holds the run's last DefaultCapacity events.
func TestFaultsFlightBundle(t *testing.T) {
	const spec = "mutex,nodes=8,rounds=20,seed=3"
	args := []string{"-faults", spec,
		"-cond", "back: R1(cs-n0-e1, cs-n0-e0)", "-cond", "fwd: R1(cs-n0-e0, cs-n0-e1)"}
	prevStderr := stderrW
	stderrW = io.Discard
	defer func() { stderrW = prevStderr }()
	var plain, armed bytes.Buffer
	if code, err := run(args, &plain); err != nil || code != exitViolation {
		t.Fatalf("exit %d, err %v:\n%s", code, err, plain.String())
	}
	bundlePath := filepath.Join(t.TempDir(), "flight.json")
	if code, err := run(append(args, "-flight-out", bundlePath), &armed); err != nil || code != exitViolation {
		t.Fatalf("-flight-out: exit %d, err %v:\n%s", code, err, armed.String())
	}
	if armed.String() != plain.String() {
		t.Errorf("-flight-out changed stdout:\n%s\nvs\n%s", armed.String(), plain.String())
	}

	cfg, seed, plan, err := faultsim.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := faultsim.Run(cfg, seed, plan, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, clk := res.Exec, vclock.New(res.Exec)
	b := readBundle(t, bundlePath)
	if len(b.Events) != flight.DefaultCapacity || b.Dropped != 4912-256 || ex.NumEvents() != 4912 {
		t.Errorf("bundle holds %d events and dropped %d of %d, want 256 and 4912-256",
			len(b.Events), b.Dropped, ex.NumEvents())
	}
	for _, ev := range b.Events {
		e := poset.EventID{Proc: ev.Proc, Pos: ev.Pos}
		if want := clk.T(e); !slices.Equal(ev.Clock, want) {
			t.Errorf("%v: clock %v, want %v", e, ev.Clock, want)
		}
		if ev.Label != res.Labels[e] {
			t.Errorf("%v: label %q, want %q", e, ev.Label, res.Labels[e])
		}
	}
	for p, got := range b.Clocks {
		if want := clk.T(poset.EventID{Proc: p, Pos: ex.NumReal(p)}); !slices.Equal(got, want) {
			t.Errorf("final clock of p%d = %v, want %v", p, got, want)
		}
	}
}

// TestFaultsFlagErrors: flag misuse around -faults is an internal error.
func TestFaultsFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-faults", "twophase,nodes=3", "-trace", "x.json", "-cond", "a: R1(x, y)"},
		{"-faults", "nosuchproto,nodes=3", "-cond", "a: R1(x, y)"},
		{"-faults", "mutex,drop=1.5", "-cond", "a: R1(x, y)"},
		{"-faults", "mutex,crash=banana", "-cond", "a: R1(x, y)"},
	} {
		if _, err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
