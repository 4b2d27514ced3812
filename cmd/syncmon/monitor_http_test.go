package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/alert"
	"causet/internal/obs/tsdb"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/trace"
	"causet/internal/vclock"
)

// newView builds a dashboard over a fresh stream and online monitor for
// the trace at path, with the conditions registered and, when policy is
// non-nil, that retention policy, wired to reg, st and eng (each may be
// nil). replay streams the trace through the view's own monitor.
func newView(t *testing.T, path string, conds [][2]string, policy *online.RetentionPolicy, reg *obs.Registry, st *tsdb.Store, eng *alert.Engine) (view *monitorView, ex *poset.Execution, replay func() ([]monitor.Result, error)) {
	t.Helper()
	ex, ivs := loadTrace(t, path)
	s := online.NewStream(ex.NumProcs())
	s.Instrument(reg, nil)
	om := online.NewMonitor(s)
	om.Instrument(reg)
	if policy != nil {
		if err := om.SetRetention(*policy); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conds {
		if err := om.AddCondition(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	replay = func() ([]monitor.Result, error) { return streamVerdicts(s, om, ex, ivs, conds, nil, nil) }
	return newMonitorView(om, s, ivs, conds, reg, st, eng), ex, replay
}

// streamView is newView over the shared ring trace with no policy, after
// the replay, with the verdicts.
func streamView(t *testing.T, conds [][2]string, reg *obs.Registry) (*monitorView, *poset.Execution, []monitor.Result) {
	t.Helper()
	view, ex, replay := newView(t, writeTrace(t), conds, nil, reg, nil, nil)
	results, err := replay()
	if err != nil {
		t.Fatal(err)
	}
	return view, ex, results
}

// checkClocks compares the clocks panel with vclock.New over the whole
// trace: each process's row is the clock of its last event.
func checkClocks(t *testing.T, st monitorState, ex *poset.Execution) {
	t.Helper()
	if len(st.Clocks) != ex.NumProcs() {
		t.Fatalf("clocks panel has %d rows, want %d", len(st.Clocks), ex.NumProcs())
	}
	clk := vclock.New(ex)
	for p, pc := range st.Clocks {
		want := clk.T(poset.EventID{Proc: p, Pos: ex.NumReal(p)})
		if pc.Proc != p || pc.Events != ex.NumReal(p) || !slices.Equal(pc.Clock, []int(want)) {
			t.Errorf("clock row %+v, want process %d with %d events and clock %v", pc, p, ex.NumReal(p), want)
		}
	}
}

// TestMonitorViewJSONAndHTML exercises the /debug/monitor handler directly:
// the JSON document carries clocks, intervals, condition verdicts, and the
// violation timeline; the default response is the self-contained HTML view.
func TestMonitorViewJSONAndHTML(t *testing.T) {
	reg := obs.New()
	view, ex, results := streamView(t, [][2]string{
		{"ordered", "R1(ring-round-0, ring-round-1)"},
		{"backwards", "R1(ring-round-1, ring-round-0)"},
	}, reg)
	view.setResults(results)

	rec := httptest.NewRecorder()
	view.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/monitor?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("JSON Content-Type = %q, want application/json; charset=utf-8", ct)
	}
	var st monitorState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("dashboard JSON invalid: %v\n%s", err, rec.Body.String())
	}
	if st.Procs != 3 {
		t.Errorf("procs = %d, want 3", st.Procs)
	}
	checkClocks(t, st, ex)
	if len(st.Intervals) != 2 {
		t.Errorf("intervals = %+v, want the 2 ring rounds", st.Intervals)
	}
	verdicts := map[string]string{}
	for _, c := range st.Conditions {
		verdicts[c.Name] = c.State
	}
	if verdicts["ordered"] != "holds" || verdicts["backwards"] != "violated" {
		t.Errorf("verdicts = %v", verdicts)
	}
	if len(st.Violations) != 1 || st.Violations[0] != "backwards" {
		t.Errorf("recent violations = %v, want [backwards]", st.Violations)
	}
	if st.MetricsDelta.Counters["online.settlements"] < 1 {
		t.Errorf("first refresh should carry the full metrics delta: %v", st.MetricsDelta.Counters)
	}

	rec = httptest.NewRecorder()
	view.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/monitor", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("HTML Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"syncmon live monitor", "http-equiv=\"refresh\"", "backwards", "R1(ring-round-0, ring-round-1)", "violated"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML view missing %q", want)
		}
	}
	if strings.Contains(body, "<script src=") || strings.Contains(body, "href=\"http") {
		t.Error("HTML view must be self-contained (no external assets)")
	}
}

// TestMonitorViewRepeatDelta pins the per-refresh metrics delta: a second
// refresh with no intervening work reports zero settlements.
func TestMonitorViewRepeatDelta(t *testing.T) {
	reg := obs.New()
	view, _, results := streamView(t, [][2]string{{"ordered", "R1(ring-round-0, ring-round-1)"}}, reg)
	view.setResults(results)

	first := view.state()
	if first.MetricsDelta.Counters["online.settlements"] < 1 {
		t.Fatalf("first delta: %v", first.MetricsDelta.Counters)
	}
	second := view.state()
	if d := second.MetricsDelta.Counters["online.settlements"]; d != 0 {
		t.Errorf("idle refresh delta for online.settlements = %d, want 0", d)
	}
}

// TestRunDebugServer drives the full wiring end to end: -debug-addr brings
// up the server, and the debugStarted hook (no sleeping, no port guessing)
// fetches /debug/monitor in both formats plus the Prometheus /metrics page
// while the run is live.
func TestRunDebugServer(t *testing.T) {
	path := writeTrace(t)
	fetched := map[string]string{}
	prevHook, prevStderr := debugStarted, stderrW
	stderrW = io.Discard
	debugStarted = func(addr string) {
		for _, ep := range []string{"/debug/monitor", "/debug/monitor?format=json", "/metrics", "/debug/tsdb?dump=1"} {
			resp, err := http.Get("http://" + addr + ep)
			if err != nil {
				t.Errorf("GET %s: %v", ep, err)
				continue
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			fetched[ep] = resp.Header.Get("Content-Type") + "\n" + string(b)
		}
	}
	defer func() { debugStarted, stderrW = prevHook, prevStderr }()

	var buf bytes.Buffer
	code, err := run([]string{"-trace", path, "-debug-addr", "127.0.0.1:0",
		"-cond", "ordered: R1(ring-round-0, ring-round-1)"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}
	if !strings.Contains(fetched["/debug/monitor"], "text/html") ||
		!strings.Contains(fetched["/debug/monitor"], "syncmon live monitor") {
		t.Errorf("/debug/monitor did not serve the HTML view:\n%s", fetched["/debug/monitor"])
	}
	jsonBody, _, _ := strings.Cut(fetched["/debug/monitor?format=json"], "\n")
	// Regression: the JSON view must declare its charset (it serializes
	// UTF-8 relation names like R1'), matching the HTML view.
	if jsonBody != "application/json; charset=utf-8" {
		t.Errorf("/debug/monitor?format=json Content-Type = %q, want application/json; charset=utf-8", jsonBody)
	}
	if !strings.Contains(fetched["/metrics"], "version=0.0.4") {
		t.Errorf("/metrics Content-Type missing exposition version:\n%s", fetched["/metrics"])
	}
	// The telemetry store's query API rides on the same server. The sampler
	// may not have ticked yet while the run is live, so assert the route and
	// the dump envelope, not its contents.
	if !strings.Contains(fetched["/debug/tsdb?dump=1"], "application/json") ||
		!strings.Contains(fetched["/debug/tsdb?dump=1"], "taken_at_ns") {
		t.Errorf("/debug/tsdb?dump=1 did not serve a JSON dump:\n%s", fetched["/debug/tsdb?dump=1"])
	}
}

// TestRunLogJSONL checks the -log flag end to end, with and without a
// -retention policy: every line is valid JSON with the fixed prefix, each
// trace interval logs interval_defined once, each condition logs
// condition_settled once, nothing is logged per event, and the lifecycle
// events appear at their documented levels.
func TestRunLogJSONL(t *testing.T) {
	path := writeTrace(t)
	f, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	intervals := len(f.IntervalNames())
	prevStderr := stderrW
	stderrW = io.Discard // the retention leg's summary
	defer func() { stderrW = prevStderr }()
	for _, mode := range []struct {
		name  string
		extra []string
	}{
		{"default", nil},
		{"retention", []string{"-retention", "events=8,every=4"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			logPath := filepath.Join(t.TempDir(), "events.jsonl")
			var buf bytes.Buffer
			code, err := run(append([]string{"-trace", path, "-log", logPath, "-log-level", "debug",
				"-cond", "ordered: R1(ring-round-0, ring-round-1)",
				"-cond", "backwards: R1(ring-round-1, ring-round-0)"}, mode.extra...), &buf)
			if err != nil {
				t.Fatal(err)
			}
			if code != exitViolation {
				t.Fatalf("exit %d:\n%s", code, buf.String())
			}
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			events := map[string]int{}
			levels := map[string]string{}
			sc := bufio.NewScanner(bytes.NewReader(data))
			for sc.Scan() {
				var line struct {
					TS        string `json:"ts"`
					Level     string `json:"level"`
					Event     string `json:"event"`
					Condition string `json:"condition"`
					State     string `json:"state"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("log line not valid JSON: %v\n%s", err, sc.Text())
				}
				if line.TS == "" || line.Level == "" || line.Event == "" {
					t.Errorf("log line missing prefix fields: %s", sc.Text())
				}
				events[line.Event]++
				if line.Event == "condition_settled" {
					levels[line.Condition] = line.Level
				}
			}
			for _, want := range []string{"trace_loaded", "interval_defined", "condition_settled", "run_complete"} {
				if events[want] == 0 {
					t.Errorf("no %s event in log:\n%s", want, data)
				}
			}
			if events["interval_defined"] != intervals {
				t.Errorf("interval_defined count = %d, want %d (one per trace interval)", events["interval_defined"], intervals)
			}
			if events["condition_settled"] != 2 {
				t.Errorf("condition_settled count = %d, want 2", events["condition_settled"])
			}
			// Nothing is logged per member event: no event name outnumbers
			// the intervals and conditions together, though every interval
			// has several members.
			for name, n := range events {
				if n > intervals+2 {
					t.Errorf("%s logged %d times over %d intervals and 2 conditions; want no per-event line", name, n, intervals)
				}
			}
			if levels["ordered"] != "info" || levels["backwards"] != "warn" {
				t.Errorf("settlement levels = %v, want ordered:info backwards:warn", levels)
			}

			// -log-level warn suppresses the info/debug lifecycle noise.
			logPath2 := filepath.Join(t.TempDir(), "warn.jsonl")
			buf.Reset()
			if _, err := run(append([]string{"-trace", path, "-log", logPath2, "-log-level", "warn",
				"-cond", "backwards: R1(ring-round-1, ring-round-0)"}, mode.extra...), &buf); err != nil {
				t.Fatal(err)
			}
			data2, err := os.ReadFile(logPath2)
			if err != nil {
				t.Fatal(err)
			}
			for _, banned := range []string{"trace_loaded", "interval_defined", "run_complete"} {
				if bytes.Contains(data2, []byte(banned)) {
					t.Errorf("-log-level warn leaked %s:\n%s", banned, data2)
				}
			}
			if !bytes.Contains(data2, []byte("condition_settled")) {
				t.Errorf("-log-level warn lost the violated settlement:\n%s", data2)
			}
		})
	}

	// A bad level is an internal error.
	var buf bytes.Buffer
	if _, err := run([]string{"-trace", path, "-log", "-", "-log-level", "loud",
		"-cond", "a: R1(x, y)"}, &buf); err == nil {
		t.Error("bad -log-level accepted")
	}
}
