package main

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"causet/internal/explain"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/alert"
	"causet/internal/obs/tsdb"
	"causet/internal/online"
)

// monitorView serves /debug/monitor on the -debug-addr server: the live
// monitor state as JSON (?format=json) and, by default, a self-contained
// auto-refreshing HTML dashboard rendered with the stdlib template engine
// — per-process vector clocks, interval status, settled/pending
// conditions, the retention panel under a policy, alert-rule state,
// telemetry sparklines from the sampled time-series store, the
// recent-violation list, and the per-refresh metrics delta
// (obs.Snapshot.Diff against the previously served snapshot).
type monitorView struct {
	om     *online.Monitor
	stream *online.Stream
	reg    *obs.Registry
	st     *tsdb.Store   // may be nil: no sparkline panel
	eng    *alert.Engine // may be nil: no alerts panel

	// The interval and condition panels render from the trace's own tables:
	// the online monitor releases interval state as it ages out, so they are
	// the stable source.
	intervals []intervalState
	conds     [][2]string

	mu           sync.Mutex
	results      []monitor.Result
	violations   []string // most recent last, capped
	explanations []explanationState
	prev         *obs.Snapshot // snapshot served by the previous request
}

// maxRecentViolations caps the dashboard's violation timeline.
const maxRecentViolations = 32

// sparkWindow is how far back the dashboard sparklines look.
const sparkWindow = 2 * time.Minute

// maxSparks caps the sparkline panel.
const maxSparks = 8

// newMonitorView builds the view over the online monitor, its stream, and
// the trace's intervals and conditions; reg, st, and eng may each be nil
// (the corresponding panel is then empty).
func newMonitorView(om *online.Monitor, s *online.Stream, ivs map[string]*interval.Interval, conds [][2]string, reg *obs.Registry, st *tsdb.Store, eng *alert.Engine) *monitorView {
	v := &monitorView{om: om, stream: s, reg: reg, st: st, eng: eng, conds: conds}
	for name, iv := range ivs {
		v.intervals = append(v.intervals, intervalState{Name: name, Size: iv.Size(), Nodes: iv.NodeSet()})
	}
	sort.Slice(v.intervals, func(i, j int) bool { return v.intervals[i].Name < v.intervals[j].Name })
	return v
}

// setResults publishes check results to the dashboard, appending newly
// violated conditions to the recent-violation timeline.
func (v *monitorView) setResults(results []monitor.Result) {
	v.mu.Lock()
	defer v.mu.Unlock()
	prev := make(map[string]monitor.State, len(v.results))
	for _, r := range v.results {
		prev[r.Name] = r.State
	}
	for _, r := range results {
		if r.State == monitor.Violated && prev[r.Name] != monitor.Violated {
			v.violations = append(v.violations, r.Name)
			if len(v.violations) > maxRecentViolations {
				v.violations = v.violations[len(v.violations)-maxRecentViolations:]
			}
		}
	}
	v.results = append([]monitor.Result(nil), results...)
}

// setExplanations publishes the -explain evidence: the dashboard shows each
// settled condition's witness/critical-path text and the JSON view carries
// the full machine-readable explanations.
func (v *monitorView) setExplanations(ces []*explain.ConditionExplanation) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.explanations = v.explanations[:0]
	for _, ce := range ces {
		var sb strings.Builder
		ce.WriteText(&sb, "")
		v.explanations = append(v.explanations, explanationState{
			Name: ce.Name, State: ce.State, Text: sb.String(), Explanation: ce,
		})
	}
}

// procClockState is one process's current vector clock (the forward clock
// of its latest event; all-zero when the process has no events).
type procClockState struct {
	Proc   int   `json:"proc"`
	Events int   `json:"events"`
	Clock  []int `json:"clock"`
}

// intervalState is one defined interval of the monitor.
type intervalState struct {
	Name  string `json:"name"`
	Size  int    `json:"size"`
	Nodes []int  `json:"nodes"`
}

// conditionState is one condition with its latest verdict.
type conditionState struct {
	Name  string `json:"name"`
	Src   string `json:"src"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// explanationState is one settled condition's causal evidence: the rendered
// text for the HTML view plus the machine-readable explanation for JSON
// consumers.
type explanationState struct {
	Name        string                        `json:"name"`
	State       string                        `json:"state"`
	Text        string                        `json:"text"`
	Explanation *explain.ConditionExplanation `json:"explanation"`
}

// sparkState is one sampled series rendered as an inline SVG sparkline.
type sparkState struct {
	Name   string `json:"name"`
	Latest int64  `json:"latest"`
	// Points is the 120×24-viewBox polyline points attribute (HTML only).
	Points string `json:"-"`
}

// retentionState is the dashboard's view of the streaming monitor's
// retention subsystem: the policy knobs, the last applied compaction
// watermark, and the live working set.
type retentionState struct {
	MaxEvents    int    `json:"max_events"`
	MaxAge       string `json:"max_age,omitempty"`
	AbandonAfter int    `json:"abandon_after,omitempty"`
	Every        int    `json:"every"`
	Watermark    []int  `json:"watermark,omitempty"`
	Released     int    `json:"released"`
	Abandoned    int    `json:"abandoned"`
	Held         int    `json:"held"`
	Growing      int    `json:"growing"`
	Retained     int    `json:"retained_events"`
}

// monitorState is the JSON document served at /debug/monitor?format=json
// and the data behind the HTML view.
type monitorState struct {
	Procs        int                `json:"procs"`
	Clocks       []procClockState   `json:"clocks"`
	Intervals    []intervalState    `json:"intervals"`
	Conditions   []conditionState   `json:"conditions"`
	Retention    *retentionState    `json:"retention,omitempty"`
	Violations   []string           `json:"recent_violations"`
	Explanations []explanationState `json:"explanations,omitempty"`
	Alerts       []alert.Status     `json:"alerts,omitempty"`
	Tsdb         *tsdb.Stats        `json:"tsdb,omitempty"`
	Sparks       []sparkState       `json:"sparks,omitempty"`
	MetricsDelta obs.SnapshotDiff   `json:"metrics_delta"`
}

// sparkPrefixes orders series for the sparkline panel: detection-latency
// and violation telemetry first, then the online monitor's meters
// (monitor.check_ns window, online.settlements and the other online.*
// counters), then the engines' own meters.
var sparkPrefixes = []string{"online.detect_latency", "monitor.", "online.", "syncmon.", "alert.", "runtime.", "tsdb."}

// sparks selects up to maxSparks series (preferred prefixes first, then
// alphabetical) and renders their last sparkWindow of samples as polyline
// point lists.
func (v *monitorView) sparks(now time.Time) []sparkState {
	if v.st == nil {
		return nil
	}
	names := v.st.Names()
	rank := func(name string) int {
		for i, p := range sparkPrefixes {
			if strings.HasPrefix(name, p) {
				return i
			}
		}
		return len(sparkPrefixes)
	}
	sort.SliceStable(names, func(i, j int) bool {
		ri, rj := rank(names[i]), rank(names[j])
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	var out []sparkState
	for _, name := range names {
		if len(out) == maxSparks {
			break
		}
		pts := v.st.Query(name, now.Add(-sparkWindow), now)
		if len(pts) == 0 {
			continue
		}
		out = append(out, sparkState{
			Name:   name,
			Latest: pts[len(pts)-1].V,
			Points: sparkPoints(pts),
		})
	}
	return out
}

// sparkPoints maps samples onto a 120×24 viewBox, newest at the right.
func sparkPoints(pts []tsdb.Point) string {
	minT, maxT := pts[0].T, pts[len(pts)-1].T
	minV, maxV := pts[0].V, pts[0].V
	for _, p := range pts {
		if p.V < minV {
			minV = p.V
		}
		if p.V > maxV {
			maxV = p.V
		}
	}
	spanT, spanV := maxT-minT, maxV-minV
	if spanT == 0 {
		spanT = 1
	}
	if spanV == 0 {
		spanV = 1
	}
	var sb strings.Builder
	for i, p := range pts {
		if i > 0 {
			sb.WriteByte(' ')
		}
		x := float64(p.T-minT)/float64(spanT)*118 + 1
		y := 23 - float64(p.V-minV)/float64(spanV)*22
		fmt.Fprintf(&sb, "%.1f,%.1f", x, y)
	}
	return sb.String()
}

// state assembles the current monitor state, computing the metrics delta
// against the snapshot taken by the previous call.
func (v *monitorView) state() monitorState {
	v.mu.Lock()
	defer v.mu.Unlock()

	st := monitorState{Procs: v.stream.NumProcs(), Intervals: v.intervals}
	counts, clocks := v.stream.Frontier()
	for p, c := range counts {
		st.Clocks = append(st.Clocks, procClockState{Proc: p, Events: c, Clock: clocks[p]})
	}
	byName := make(map[string]monitor.Result, len(v.results))
	for _, r := range v.results {
		byName[r.Name] = r
	}
	for _, c := range v.conds {
		cs := conditionState{Name: c[0], Src: c[1], State: monitor.Pending.String()}
		if r, ok := byName[c[0]]; ok {
			cs.State = r.State.String()
			if r.Err != nil {
				cs.Err = r.Err.Error()
			}
		}
		st.Conditions = append(st.Conditions, cs)
	}
	if rs := v.om.RetentionStats(); rs.Enabled {
		st.Retention = &retentionState{
			MaxEvents:    rs.Policy.MaxEvents,
			AbandonAfter: rs.Policy.AbandonAfter,
			Every:        rs.Policy.Every,
			Watermark:    rs.Watermark,
			Released:     rs.Released,
			Abandoned:    rs.Abandoned,
			Held:         rs.Held,
			Growing:      rs.Growing,
			Retained:     rs.Retained,
		}
		if rs.Policy.MaxAge > 0 {
			st.Retention.MaxAge = rs.Policy.MaxAge.String()
		}
	}
	st.Violations = append([]string(nil), v.violations...)
	st.Explanations = append([]explanationState(nil), v.explanations...)

	if v.eng != nil {
		st.Alerts = v.eng.Statuses()
	}
	if v.st != nil {
		stats := v.st.Stats()
		st.Tsdb = &stats
		st.Sparks = v.sparks(time.Now())
	}

	cur := v.reg.Snapshot()
	if v.prev != nil {
		st.MetricsDelta = cur.Diff(*v.prev)
	} else {
		st.MetricsDelta = cur.Diff(obs.Snapshot{})
	}
	v.prev = &cur
	return st
}

// ServeHTTP renders the state as JSON when the request asks for it
// (?format=json) and as the auto-refreshing HTML dashboard otherwise.
func (v *monitorView) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st := v.state()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = monitorTmpl.Execute(w, struct {
		monitorState
		Now string
	}{st, time.Now().Format(time.RFC3339)})
}

// monitorTmpl is the self-contained dashboard: no external assets, a
// 2-second meta refresh, and state-colored condition rows.
var monitorTmpl = template.Must(template.New("monitor").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>syncmon live monitor</title>
<style>
body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.4rem; color: #9cf; }
table { border-collapse: collapse; margin-top: .4rem; }
th, td { border: 1px solid #333; padding: .25rem .6rem; text-align: left; }
th { background: #1c1c1c; }
.holds { color: #7c7; } .violated { color: #f77; } .failed { color: #fa5; } .pending { color: #888; }
.firing { color: #f77; } .inactive { color: #888; }
.muted { color: #777; font-size: .85rem; }
svg.spark { background: #181818; display: block; }
</style>
</head>
<body>
<h1>syncmon live monitor</h1>
<p class="muted">auto-refreshes every 2s · {{.Now}} · <a href="?format=json">JSON</a> · <a href="/metrics">Prometheus</a> · <a href="/debug/metrics">metrics JSON</a></p>

<h2>Per-process vector clocks</h2>
<table><tr><th>proc</th><th>events</th><th>clock T(last)</th></tr>
{{range .Clocks}}<tr><td>P{{.Proc}}</td><td>{{.Events}}</td><td>{{.Clock}}</td></tr>
{{end}}</table>

<h2>Intervals</h2>
<table><tr><th>name</th><th>|X|</th><th>node set</th></tr>
{{range .Intervals}}<tr><td>{{.Name}}</td><td>{{.Size}}</td><td>{{.Nodes}}</td></tr>
{{end}}</table>

<h2>Conditions</h2>
<table><tr><th>name</th><th>expression</th><th>verdict</th></tr>
{{range .Conditions}}<tr><td>{{.Name}}</td><td>{{.Src}}</td><td class="{{.State}}">{{.State}}{{if .Err}} — {{.Err}}{{end}}</td></tr>
{{end}}</table>

{{if .Retention}}<h2>Retention</h2>
<table><tr><th>window events</th><th>window age</th><th>appraise every</th><th>abandon after</th></tr>
<tr><td>{{.Retention.MaxEvents}}</td><td>{{if .Retention.MaxAge}}{{.Retention.MaxAge}}{{else}}–{{end}}</td><td>{{.Retention.Every}}</td><td>{{if .Retention.AbandonAfter}}{{.Retention.AbandonAfter}}{{else}}never{{end}}</td></tr></table>
<table><tr><th>retained events</th><th>held</th><th>growing</th><th>released</th><th>abandoned</th><th>watermark</th></tr>
<tr><td>{{.Retention.Retained}}</td><td>{{.Retention.Held}}</td><td>{{.Retention.Growing}}</td><td>{{.Retention.Released}}</td><td>{{.Retention.Abandoned}}</td><td>{{if .Retention.Watermark}}{{.Retention.Watermark}}{{else}}–{{end}}</td></tr></table>{{end}}

{{if .Alerts}}<h2>Alerts</h2>
<table><tr><th>rule</th><th>severity</th><th>state</th><th>expression</th><th>fired</th></tr>
{{range .Alerts}}<tr><td>{{.Rule}}</td><td>{{.Severity}}</td><td class="{{.State}}">{{.State}}</td><td>{{.Expr}}</td><td>{{.Fired}}</td></tr>
{{end}}</table>{{end}}

{{if .Sparks}}<h2>Telemetry <span class="muted">(last 2m · <a href="/debug/tsdb">tsdb</a>)</span></h2>
<table><tr><th>series</th><th>trend</th><th>latest</th></tr>
{{range .Sparks}}<tr><td>{{.Name}}</td><td><svg class="spark" width="120" height="24" viewBox="0 0 120 24"><polyline points="{{.Points}}" fill="none" stroke="#9cf" stroke-width="1"/></svg></td><td>{{.Latest}}</td></tr>
{{end}}</table>{{end}}

{{if .Explanations}}<h2>Explanations</h2>
{{range .Explanations}}<h3 class="{{.State}}">{{.Name}} — {{.State}}</h3>
<pre>{{.Text}}</pre>
{{end}}{{end}}

<h2>Recent violations</h2>
{{if .Violations}}<table><tr><th>condition</th></tr>
{{range .Violations}}<tr><td class="violated">{{.}}</td></tr>
{{end}}</table>{{else}}<p class="muted">none</p>{{end}}

<h2>Metrics delta since last refresh</h2>
<table><tr><th>counter</th><th>Δ</th></tr>
{{range $name, $v := .MetricsDelta.Counters}}{{if $v}}<tr><td>{{$name}}</td><td>{{$v}}</td></tr>
{{end}}{{end}}</table>
</body>
</html>
`))
