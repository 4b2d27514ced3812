package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"causet/internal/obs/flight"
	"causet/internal/poset"
	"causet/internal/vclock"
)

// TestRunExplainPass: settled conditions under -explain carry witness
// lines right under their PASS verdicts.
func TestRunExplainPass(t *testing.T) {
	path := writeTrace(t)
	var buf bytes.Buffer
	code, err := run([]string{"-trace", path, "-explain",
		"-cond", "ordered: R1(ring-round-0, ring-round-1)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if code != exitOK || !strings.Contains(out, "PASS") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "atom R1(ring-round-0, ring-round-1) = true") {
		t.Errorf("-explain should print the atom verdict:\n%s", out)
	}
	if !strings.Contains(out, "witness:") {
		t.Errorf("-explain should print a witness under PASS:\n%s", out)
	}
}

// TestRunExplainViolationWithFlight: a violated condition explains its
// causal gap and -flight-out dumps a parseable bundle whose reason names
// the violated condition.
func TestRunExplainViolationWithFlight(t *testing.T) {
	path := writeTrace(t)
	bundlePath := filepath.Join(t.TempDir(), "flight.json")
	var buf bytes.Buffer
	code, err := run([]string{"-trace", path, "-explain", "-flight-out", bundlePath,
		"-cond", "backwards: R1(ring-round-1, ring-round-0)",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if code != exitViolation || !strings.Contains(out, "FAIL  backwards") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "witness:") {
		t.Errorf("violation should still carry a witness:\n%s", out)
	}

	b := readBundle(t, bundlePath)
	if !strings.Contains(b.Reason, "violation") || !strings.Contains(b.Reason, "backwards") {
		t.Errorf("bundle reason = %q, want violation naming the condition", b.Reason)
	}
	if len(b.Events) == 0 {
		t.Error("bundle recorded no events")
	}
	// The replayed trace events must carry full clocks.
	for _, ev := range b.Events {
		if len(ev.Clock) != b.Procs {
			t.Fatalf("event %+v has short clock", ev)
		}
	}
}

// TestRunFlightExactClocks: the flight bundle of a recorded trace carries
// every event's exact clock, as vclock.New computes it, and the exact final
// clocks, for a relay (p0:1 → p1:1 → p2:2, where p1:1 receives and sends on)
// and for a receive that merges two sends.
func TestRunFlightExactClocks(t *testing.T) {
	relay := poset.NewBuilder(3)
	send := relay.Append(0)
	hop := relay.Append(1)
	relay.Append(2)
	last := relay.Append(2)
	for _, m := range [][2]poset.EventID{{send, hop}, {hop, last}} {
		if err := relay.Message(m[0], m[1]); err != nil {
			t.Fatal(err)
		}
	}
	prevStderr := stderrW
	stderrW = io.Discard
	defer func() { stderrW = prevStderr }()
	for name, ex := range map[string]*poset.Execution{"relay": relay.MustBuild(), "multi-receive": multiReceive(t)} {
		path := saveTrace(t, ex, map[string][]poset.EventID{"a": {{Proc: 0, Pos: 1}}, "b": {{Proc: 1, Pos: 1}}})
		bundlePath := filepath.Join(t.TempDir(), "flight.json")
		var buf bytes.Buffer
		code, err := run([]string{"-trace", path, "-flight-out", bundlePath, "-cond", "back: R1(b, a)"}, &buf)
		if err != nil || code != exitViolation {
			t.Fatalf("%s: exit %d, err %v:\n%s", name, code, err, buf.String())
		}
		b := readBundle(t, bundlePath)
		clk := vclock.New(ex)
		if len(b.Events) != ex.NumEvents() {
			t.Errorf("%s: bundle has %d events, want %d", name, len(b.Events), ex.NumEvents())
		}
		for _, ev := range b.Events {
			if want := clk.T(poset.EventID{Proc: ev.Proc, Pos: ev.Pos}); !slices.Equal(ev.Clock, want) {
				t.Errorf("%s: p%d:%d clock %v, want %v", name, ev.Proc, ev.Pos, ev.Clock, want)
			}
		}
		for p, got := range b.Clocks {
			if want := clk.T(poset.EventID{Proc: p, Pos: ex.NumReal(p)}); !slices.Equal(got, want) {
				t.Errorf("%s: final clock of p%d = %v, want %v", name, p, got, want)
			}
		}
	}
}

// readBundle decodes the flight bundle a run wrote to path.
func readBundle(t *testing.T, path string) *flight.Bundle {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight bundle not written: %v", err)
	}
	defer f.Close()
	b, err := flight.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunNoFlightWithoutViolation: all-PASS runs leave no bundle behind.
func TestRunNoFlightWithoutViolation(t *testing.T) {
	path := writeTrace(t)
	bundlePath := filepath.Join(t.TempDir(), "flight.json")
	var buf bytes.Buffer
	code, err := run([]string{"-trace", path, "-flight-out", bundlePath,
		"-cond", "ordered: R1(ring-round-0, ring-round-1)",
	}, &buf)
	if err != nil || code != exitOK {
		t.Fatalf("exit %d, err %v:\n%s", code, err, buf.String())
	}
	if _, err := os.Stat(bundlePath); !os.IsNotExist(err) {
		t.Errorf("bundle written on a clean run (stat err = %v)", err)
	}
}

func TestRunVersion(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"-version"}, &buf)
	if err != nil || code != exitOK {
		t.Fatalf("exit %d, err %v", code, err)
	}
	if !strings.HasPrefix(buf.String(), "syncmon ") {
		t.Errorf("-version banner = %q", buf.String())
	}
}
