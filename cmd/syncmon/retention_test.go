package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestParseRetention(t *testing.T) {
	p, err := parseRetention("events=100, age=30s, every=16, abandon=500")
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxEvents != 100 || p.MaxAge != 30*time.Second || p.Every != 16 || p.AbandonAfter != 500 {
		t.Errorf("parsed policy = %+v", p)
	}
	// Settled condition state is always dropped, so the old knob is gone.
	if _, err := parseRetention("events=8,drop"); err == nil || !strings.Contains(err.Error(), "want events/age/every/abandon") {
		t.Errorf("parseRetention with drop: err = %v; want the unknown-knob error", err)
	}
	for _, bad := range []string{
		"events",         // missing value
		"events=0",       // non-positive
		"events=ten",     // not an integer
		"age=fast",       // not a duration
		"age=-1s",        // non-positive duration
		"window=5",       // unknown knob
		"events=8,foo=1", // unknown knob after a valid one
	} {
		if _, err := parseRetention(bad); err == nil {
			t.Errorf("parseRetention(%q) accepted", bad)
		}
	}
}

// TestRetentionExplainComposes pins that -explain composes with a
// retention policy: the evidence comes from the whole loaded trace, so a
// run under a window tight enough to release and compact early rounds
// prints byte-identical output, explanations included, and exits with the
// same code as the run without a policy, and both print the offline
// monitor's verdicts.
func TestRetentionExplainComposes(t *testing.T) {
	path := writeRing(t, 8)
	prevStderr := stderrW
	var errBuf bytes.Buffer
	stderrW = &errBuf
	defer func() { stderrW = prevStderr }()

	// "ordered" settles once round 1 completes and no condition references
	// rounds 2-5, so the run under a policy releases early rounds and
	// compacts below them long before "backwards" settles at round 7.
	conds := [][2]string{
		{"ordered", "R1(ring-round-0, ring-round-1)"},
		{"backwards", "R1(ring-round-7, ring-round-6)"},
	}
	args := append([]string{"-trace", path, "-explain"}, condArgs(conds)...)
	var plain, retained bytes.Buffer
	plainCode, err := run(args, &plain)
	if err != nil {
		t.Fatal(err)
	}
	retCode, err := run(append(args, "-retention", "events=8,every=4"), &retained)
	if err != nil {
		t.Fatal(err)
	}
	if plainCode != exitViolation || retCode != exitViolation {
		t.Errorf("exit codes: without a policy %d, with one %d, want both %d", plainCode, retCode, exitViolation)
	}
	if plain.String() != retained.String() {
		t.Errorf("output diverges:\nwithout a policy:\n%s\nwith one:\n%s", plain.String(), retained.String())
	}
	var verdicts strings.Builder
	for _, line := range strings.SplitAfter(plain.String(), "\n") {
		if strings.HasPrefix(line, "PASS  ") || strings.HasPrefix(line, "FAIL  ") {
			verdicts.WriteString(line)
		}
	}
	if want := offlineVerdicts(t, path, conds); verdicts.String() != want {
		t.Errorf("verdict lines:\n%s\nwant the offline monitor's\n%s", verdicts.String(), want)
	}
	if !strings.Contains(plain.String(), "witness:") {
		t.Errorf("-explain output lacks the evidence:\n%s", plain.String())
	}
	if strings.Contains(errBuf.String(), "watermark=[0 0 0]") || !strings.Contains(errBuf.String(), "watermark=[") {
		t.Errorf("the run under a policy should have compacted the stream:\n%s", errBuf.String())
	}
}

// TestRunRetentionStreaming pins the verdict contract across retention
// policies: the same trace and conditions print the offline monitor's
// verdict lines, byte for byte, and exit with its code, without a policy
// and under a retention window small enough that early rounds are released
// and compacted before late rounds finish.
func TestRunRetentionStreaming(t *testing.T) {
	path := writeRing(t, 8)
	prevStderr := stderrW
	var errBuf bytes.Buffer
	stderrW = &errBuf
	defer func() { stderrW = prevStderr }()

	conds := [][2]string{
		{"ordered", "R1(ring-round-0, ring-round-1)"},
		{"late", "R1(ring-round-5, ring-round-6)"},
		{"backwards", "R1(ring-round-7, ring-round-0)"},
	}
	want := offlineVerdicts(t, path, conds)
	if want != "PASS  ordered\nPASS  late\nFAIL  backwards\n" {
		t.Fatalf("offline verdicts:\n%s", want)
	}
	args := append([]string{"-trace", path}, condArgs(conds)...)
	for _, extra := range [][]string{nil, {"-retention", "events=8,every=4"}} {
		var buf bytes.Buffer
		code, err := run(append(args, extra...), &buf)
		if err != nil {
			t.Fatal(err)
		}
		if code != exitViolation || buf.String() != want {
			t.Errorf("%v: exit %d, verdicts:\n%s\nwant exit %d and\n%s", extra, code, buf.String(), exitViolation, want)
		}
	}
	if !strings.Contains(errBuf.String(), "syncmon: retention: retained=") {
		t.Errorf("the run under a policy should report retention stats on stderr:\n%s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "released=") {
		t.Errorf("retention stats line should carry the released count:\n%s", errBuf.String())
	}

	// SKIP contract: a condition on an interval the trace never defines
	// stays Pending under a policy too, and errors dominate violations.
	var skipped bytes.Buffer
	code, err := run([]string{"-trace", path, "-retention", "events=8",
		"-cond", "ghost: R1(nope, ring-round-0)"}, &skipped)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitError || !strings.Contains(skipped.String(), "SKIP  ghost") {
		t.Errorf("undefined interval should SKIP with exit %d, got %d:\n%s", exitError, code, skipped.String())
	}
}

// TestRetentionDashboardJSON checks the dashboard under a retention policy:
// /debug/monitor?format=json serves the trace's intervals, a clock row per
// process, and the retention section with the configured policy. The fetch
// runs before the replay appends anything, so the rows are still zero; the
// view tests check their values against vclock.New after a replay.
func TestRetentionDashboardJSON(t *testing.T) {
	path := writeRing(t, 4)
	var body []byte
	prevHook, prevStderr := debugStarted, stderrW
	stderrW = io.Discard
	debugStarted = func(addr string) {
		resp, err := http.Get("http://" + addr + "/debug/monitor?format=json")
		if err != nil {
			t.Errorf("GET /debug/monitor: %v", err)
			return
		}
		defer resp.Body.Close()
		body, _ = io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /debug/monitor: status %d: %s", resp.StatusCode, body)
		}
	}
	defer func() { debugStarted, stderrW = prevHook, prevStderr }()

	var buf bytes.Buffer
	code, err := run([]string{"-trace", path, "-debug-addr", "127.0.0.1:0",
		"-retention", "events=16,every=8,abandon=64",
		"-cond", "ordered: R1(ring-round-0, ring-round-1)"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}
	var st struct {
		Clocks []struct {
			Clock []int `json:"clock"`
		} `json:"clocks"`
		Intervals []struct {
			Name string `json:"name"`
		} `json:"intervals"`
		Retention *struct {
			MaxEvents    int `json:"max_events"`
			Every        int `json:"every"`
			AbandonAfter int `json:"abandon_after"`
		} `json:"retention"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("dashboard JSON: %v\n%s", err, body)
	}
	if st.Retention == nil {
		t.Fatalf("dashboard JSON lacks retention section:\n%s", body)
	}
	if st.Retention.MaxEvents != 16 || st.Retention.Every != 8 || st.Retention.AbandonAfter != 64 {
		t.Errorf("retention policy in dashboard = %+v", *st.Retention)
	}
	if len(st.Intervals) == 0 {
		t.Errorf("streaming dashboard should list the trace's intervals:\n%s", body)
	}
	if len(st.Clocks) != 3 || len(st.Clocks[0].Clock) != 3 {
		t.Errorf("dashboard should carry a 3-cell clock row per process:\n%s", body)
	}
}
