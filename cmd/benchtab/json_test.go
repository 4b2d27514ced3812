package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decodeStrict unmarshals data into a jsonReport, rejecting unknown fields,
// so a drifting report layout (or a stale committed snapshot) fails loudly.
func decodeStrict(t *testing.T, data []byte) jsonReport {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep jsonReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report does not match the jsonReport schema: %v", err)
	}
	return rep
}

func checkReport(t *testing.T, rep jsonReport) {
	t.Helper()
	if rep.Schema != jsonSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, jsonSchema)
	}
	if len(rep.E1) != 8 || len(rep.E4) != 8 {
		t.Errorf("E1/E4 rows = %d/%d, want 8/8", len(rep.E1), len(rep.E4))
	}
	for _, r := range rep.E1 {
		if r.Agreements != r.Trials {
			t.Errorf("E1 %s: %d/%d evaluators agreements", r.Relation, r.Agreements, r.Trials)
		}
	}
	for _, r := range rep.E4 {
		if r.WithinBound != r.Trials {
			t.Errorf("E4 %s: %d/%d within Theorem 20 bound", r.Relation, r.WithinBound, r.Trials)
		}
	}
	if len(rep.E5) != 8 {
		t.Errorf("E5 rows = %d, want 8", len(rep.E5))
	}
	for _, r := range rep.E7 {
		if !r.Agree {
			t.Errorf("E7 n=%d: parallel batch disagreed with serial", r.N)
		}
	}
	if len(rep.E10) != 3 {
		t.Errorf("E10 rows = %d, want 3", len(rep.E10))
	}
	for _, r := range rep.E10 {
		if !r.Agree {
			t.Errorf("E10 n=%d: fused profiles disagreed with the per-relation scan", r.N)
		}
		if r.FusedCmp >= r.LegacyCmp {
			t.Errorf("E10 n=%d: fused %.1f cmp/profile, scan %.1f — no fusion win",
				r.N, r.FusedCmp, r.LegacyCmp)
		}
	}
	if rep.Metrics.Counters["core.fast.comparisons"] <= 0 {
		t.Errorf("metrics snapshot lacks comparison accounting: %v", rep.Metrics.Counters)
	}
}

func TestRunJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps are slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-json", "-", "-trials", "40", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	rep := decodeStrict(t, buf.Bytes())
	checkReport(t, rep)
	if rep.Trials != 40 || rep.Reps != 1 {
		t.Errorf("trials/reps = %d/%d, want 40/1", rep.Trials, rep.Reps)
	}

	// File output mode writes the same report through the same writer; the
	// sweep behind it runs once.
	path := filepath.Join(t.TempDir(), "bench.json")
	w, closeOut, err := jsonOutput(&buf, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSONReport(w, rep); err != nil {
		t.Fatal(err)
	}
	if err := closeOut(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, decodeStrict(t, data))
}

// TestJSONMatchesCommittedSchema validates the checked-in BENCH_e1.json
// snapshot against the current report schema — the committed file is the
// schema example the acceptance criteria name, so it must stay decodable
// with unknown fields disallowed.
func TestJSONMatchesCommittedSchema(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_e1.json"))
	if err != nil {
		t.Fatalf("committed benchmark snapshot missing: %v", err)
	}
	rep := decodeStrict(t, data)
	checkReport(t, rep)
	if !strings.HasPrefix(rep.GoVersion, "go") {
		t.Errorf("go_version = %q", rep.GoVersion)
	}
}
