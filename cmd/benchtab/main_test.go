package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleTables(t *testing.T) {
	for _, tc := range []struct {
		table string
		want  string
	}{
		{"e1", "Table 1"},
		{"e3", "Theorem 19"},
		{"e4", "Theorem 20"},
		{"alg", "composition"},
	} {
		var buf bytes.Buffer
		if err := run([]string{"-table", tc.table, "-trials", "40"}, &buf); err != nil {
			t.Fatalf("%s: %v", tc.table, err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s output lacks %q:\n%s", tc.table, tc.want, buf.String())
		}
	}
}

func TestRunE1Agreement(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table", "e1", "-trials", "60"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "60/60") != 8 {
		t.Errorf("expected full agreement on all 8 relations:\n%s", buf.String())
	}
}

func TestRunE5AndE6(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps are slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-table", "e5", "-reps", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "proxy/fast") {
		t.Errorf("e5 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-table", "e6"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "break-even") {
		t.Errorf("e6 output:\n%s", buf.String())
	}
}

func TestRunUnknownTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table", "e99"}, &buf); err == nil {
		t.Errorf("unknown table accepted")
	}
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Errorf("unknown flag accepted")
	}
}

func TestRunCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep is slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-csv", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 {
		t.Fatalf("csv lines = %d, want 9 (header + 8 points):\n%s", len(lines), buf.String())
	}
	if lines[0] != "n,naive_cmp,proxy_cmp,fast_cmp,naive_ns,proxy_ns,fast_ns" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2,") || !strings.HasPrefix(lines[8], "256,") {
		t.Errorf("row order wrong:\n%s", buf.String())
	}
}

// TestRunE7ParallelSweep: the serial-vs-parallel table reports identical
// verdicts and aggregate comparison counts at every size, for several pool
// widths.
func TestRunE7ParallelSweep(t *testing.T) {
	for _, workers := range []string{"0", "1", "4"} {
		var buf bytes.Buffer
		if err := run([]string{"-table", "e7", "-reps", "2", "-parallel", workers}, &buf); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		out := buf.String()
		if !strings.Contains(out, "serial vs parallel batch evaluation") {
			t.Errorf("workers=%s: missing header:\n%s", workers, out)
		}
		if strings.Contains(out, "MISMATCH") {
			t.Errorf("workers=%s: parallel batch disagreed with serial:\n%s", workers, out)
		}
		if got := strings.Count(out, "identical"); got != 3 {
			t.Errorf("workers=%s: %d of 3 sweep sizes verified:\n%s", workers, got, out)
		}
	}
}

// TestRunE10FusedSweep: the fused-vs-scan profile table verifies mask
// agreement at every size and reports the kernel's comparison win.
func TestRunE10FusedSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table", "e10", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fused 32-relation profile kernel") {
		t.Errorf("missing e10 header:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("fused profiles disagreed with the per-relation scan:\n%s", out)
	}
	if got := strings.Count(out, "identical"); got != 3 {
		t.Errorf("%d of 3 sweep sizes verified:\n%s", got, out)
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile write non-empty pprof
// files covering the run (the go tool pprof workflow behind `make profile`).
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	var buf bytes.Buffer
	if err := run([]string{"-table", "e10", "-reps", "1",
		"-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	// A second CPU profile in the same process must not error either
	// (StartCPUProfile fails if one is already active; run stops it).
	if err := run([]string{"-table", "e1", "-trials", "10", "-cpuprofile", cpu}, &buf); err != nil {
		t.Fatalf("second -cpuprofile run: %v", err)
	}
}
