package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/trace"
)

// writeLongTrace records a ring execution with enough rounds that a tight
// retention window actually releases intervals and compacts the stream
// mid-replay, rather than the whole trace fitting inside the window.
func writeLongTrace(t *testing.T, rounds int) string {
	t.Helper()
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: rounds, Seed: 1})
	named := map[string][]poset.EventID{}
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	path := filepath.Join(t.TempDir(), "ring.json")
	if err := trace.New(res.Exec, named).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

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

// TestRetentionExplainComposes pins that -explain composes with streaming
// mode: the evidence comes from the whole loaded trace, so a run under a
// retention window tight enough to release and compact early rounds prints
// byte-identical output, explanations included, and exits with the same
// code as the offline -explain run.
func TestRetentionExplainComposes(t *testing.T) {
	path := writeLongTrace(t, 8)
	prevStderr := stderrW
	var errBuf bytes.Buffer
	stderrW = &errBuf
	defer func() { stderrW = prevStderr }()

	// "ordered" settles once round 1 completes and no condition references
	// rounds 2-5, so the streamed run releases early rounds and compacts
	// below them long before "backwards" settles at round 7.
	args := []string{"-explain",
		"-cond", "ordered: R1(ring-round-0, ring-round-1)",
		"-cond", "backwards: R1(ring-round-7, ring-round-6)",
	}
	var offline, streamed bytes.Buffer
	offCode, err := run(append([]string{"-trace", path}, args...), &offline)
	if err != nil {
		t.Fatal(err)
	}
	stCode, err := run(append([]string{"-trace", path, "-retention", "events=8,every=4"}, args...), &streamed)
	if err != nil {
		t.Fatal(err)
	}
	if stCode != offCode || stCode != exitViolation {
		t.Errorf("exit codes: offline %d, streamed %d, want both %d", offCode, stCode, exitViolation)
	}
	if offline.String() != streamed.String() {
		t.Errorf("output diverges:\noffline:\n%s\nstreamed:\n%s", offline.String(), streamed.String())
	}
	for _, want := range []string{"PASS  ordered", "FAIL  backwards", "witness:"} {
		if !strings.Contains(streamed.String(), want) {
			t.Errorf("streamed -explain output lacks %q:\n%s", want, streamed.String())
		}
	}
	if strings.Contains(errBuf.String(), "watermark=[0 0 0]") || !strings.Contains(errBuf.String(), "watermark=[") {
		t.Errorf("streamed run should have compacted the stream:\n%s", errBuf.String())
	}
}

// TestRunRetentionStreaming pins the verdict contract across the two check
// paths: the same trace and conditions produce byte-identical verdict lines
// and the same exit code whether checked offline or streamed under a tight
// retention window (small enough that early rounds are released and
// compacted before late rounds finish).
func TestRunRetentionStreaming(t *testing.T) {
	path := writeLongTrace(t, 8)
	prevStderr := stderrW
	var errBuf bytes.Buffer
	stderrW = &errBuf
	defer func() { stderrW = prevStderr }()

	args := []string{
		"-cond", "ordered: R1(ring-round-0, ring-round-1)",
		"-cond", "late: R1(ring-round-5, ring-round-6)",
		"-cond", "backwards: R1(ring-round-7, ring-round-0)",
	}
	var offline bytes.Buffer
	offCode, err := run(append([]string{"-trace", path}, args...), &offline)
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	stCode, err := run(append([]string{"-trace", path, "-retention", "events=8,every=4"}, args...), &streamed)
	if err != nil {
		t.Fatal(err)
	}
	if stCode != offCode || stCode != exitViolation {
		t.Errorf("exit codes: offline %d, streamed %d, want both %d", offCode, stCode, exitViolation)
	}
	if offline.String() != streamed.String() {
		t.Errorf("verdicts diverge:\noffline:\n%s\nstreamed:\n%s", offline.String(), streamed.String())
	}
	if !strings.Contains(errBuf.String(), "syncmon: retention: retained=") {
		t.Errorf("streamed run should report retention stats on stderr:\n%s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "released=") {
		t.Errorf("retention stats line should carry the released count:\n%s", errBuf.String())
	}

	// SKIP contract: a condition on an interval the trace never defines
	// stays Pending in streaming mode too, and errors dominate violations.
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

// TestRetentionDashboardJSON checks the streaming-mode dashboard: with no
// offline monitor behind the view, /debug/monitor?format=json must still
// serve (intervals from the trace, no clocks) and carry the retention
// section with the configured policy.
func TestRetentionDashboardJSON(t *testing.T) {
	path := writeLongTrace(t, 4)
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
}
