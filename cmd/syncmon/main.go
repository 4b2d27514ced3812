// Command syncmon checks synchronization conditions, written in the monitor
// DSL, against the named nonatomic events of a recorded trace.
//
// Usage:
//
//	syncmon -trace t.json -cond "ordered: R2(ring-round-0, ring-round-1)" \
//	        -cond "safe: !R4(ring-round-1, ring-round-0)"
//	syncmon -trace t.json -conds conditions.txt
//
// A conditions file holds one "name: expression" per line; blank lines and
// lines starting with '#' are ignored.
//
// -faults replaces -trace: the named protocol runs under the deterministic
// fault-injection simulator (internal/faultsim) with the given chaos spec
// (e.g. "twophase,nodes=3,rounds=2,seed=7,dup=0.3,drop=0.1"), and the
// conditions are checked against the adversarial trace. The exit-status
// contract is unchanged: conditions that reference intervals the faults
// erased (a vote that never happened) report SKIP and exit 2.
//
// Exit status contract (scripts and CI steps rely on it):
//
//	0  every condition evaluated and holds
//	1  at least one condition violated; everything evaluated cleanly
//	2  internal error: bad flags, unreadable trace, unparsable condition,
//	   a condition referencing undefined intervals (SKIP), or an
//	   evaluation error (ERROR) — errors dominate violations
//
// Observability: -metrics dumps an internal/obs registry snapshot as JSON
// (file path, or - for stderr) with the evaluator comparison counters behind
// the checks; -trace-out writes a Chrome trace_event file (one span per
// settling pass of the monitor, plus -explain's cut builds and evidence
// flows and the protocol spans of a -faults run); -log writes a structured
// JSONL event log (interval definitions, condition settlements, run
// outcome); -debug-addr serves net/http/pprof, expvar, /debug/metrics
// (JSON), /metrics (Prometheus text 0.0.4), and /debug/monitor — the live
// dashboard with per-process vector clocks, interval status, condition
// verdicts, and recent violations, as auto-refreshing HTML or JSON
// (?format=json) — intended for long-running monitor sessions.
//
// Detection-latency telemetry: whenever a registry exists, an in-process
// time-series store (internal/obs/tsdb) samples it every -sample-interval
// (default 1s, plus one final sample at exit so short runs still land their
// end state). -tsdb-out writes the store's full dump as JSON at exit;
// -debug-addr additionally serves the store's query API at /debug/tsdb and
// sparkline panels on /debug/monitor. -alert-rules loads an alert-rule file
// ("name[severity]: expr" per line; see internal/obs/alert) evaluated after
// every sample: firing/resolved transitions print as "ALERT <state> <rule>
// [<severity>] <expr>" lines on stdout (CI greps them), land in -log and
// under /debug/vars, and show on the dashboard. Alerts never change the
// exit code — the contract above stays exactly as documented.
//
// Every check streams the trace: it is replayed event by event, in a linear
// extension of its causal order, through the online monitor
// (internal/online), which settles each condition as soon as the intervals
// it references are complete. A receive that merges several messages
// replays as one event. -retention gives that monitor a retention policy,
// so memory stays bounded by the policy window instead of growing with the
// trace. The spec is a comma-separated knob list — "events=N" (release
// settled intervals N events after completion), "age=DUR" (the duration
// analogue, e.g. age=30s), "every=N" (appraisal cadence), "abandon=N" (fail
// conditions waiting on intervals idle for N events; opt-in because it
// changes verdicts). At least one of events/age is required. Without
// "abandon", verdicts and the exit-status contract are the same under any
// policy — the retention subsystem's differential tests pin that — and
// /debug/monitor gains a retention panel (watermark, working set,
// released/abandoned counts) plus runtime heap gauges in the sampled
// time-series store. -explain derives its evidence from the whole loaded
// trace, which the watermark never touches, so explanations do not depend
// on the policy either.
//
// -explain prints, under each settled condition, the witness cuts and
// critical path behind every atom (internal/explain) and adds an
// explanations panel to the dashboard; with -trace-out the evidence also
// lands in the trace as flow arrows. -flight-out arms the violation flight
// recorder (internal/obs/flight): when any condition is violated — or the
// run panics — the last-K events with their vector clocks, the final
// per-process clocks, a metrics snapshot, and (when sampling is on) the
// tsdb tail plus the alert transition history are dumped as one JSON
// bundle. A -faults run records its live runtime; a recorded trace's replay
// records each event with its exact clock, read from the stream.
// -version prints build metadata and exits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"causet/internal/buildinfo"
	"causet/internal/cliutil"
	"causet/internal/core"
	"causet/internal/explain"
	"causet/internal/faultsim"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/alert"
	"causet/internal/obs/flight"
	"causet/internal/obs/logx"
	"causet/internal/obs/tsdb"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/trace"
)

// Exit codes of the syncmon contract (see the command comment).
const (
	exitOK        = 0
	exitViolation = 1
	exitError     = 2
)

// stderrW is where "-metrics -", "-log -", and the -debug-addr banner go; a
// variable so tests can capture it.
var stderrW io.Writer = os.Stderr

// debugStarted, when non-nil, is called with the bound debug-server address
// (host:port) as soon as the server is listening — a test hook that removes
// any need to sleep and poll a guessed port.
var debugStarted func(addr string)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "syncmon:", err)
		os.Exit(exitError)
	}
	os.Exit(code)
}

// condList collects repeated -cond flags.
type condList []string

func (c *condList) String() string     { return strings.Join(*c, "; ") }
func (c *condList) Set(s string) error { *c = append(*c, s); return nil }

// syncWriter serializes writes: the alert sink prints ALERT lines from the
// sampler goroutine while the main goroutine prints verdicts, so stdout (or
// the test buffer standing in for it) needs a lock.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run returns the process exit code per the contract above; a non-nil error
// is itself an internal error (the caller maps it to exitError).
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("syncmon", flag.ContinueOnError)
	path := fs.String("trace", "", "trace file (.json or .gob)")
	faults := fs.String("faults", "", "generate the trace by running a protocol under a deterministic chaos spec instead of loading -trace (e.g. \"twophase,nodes=3,rounds=2,seed=7,dup=0.3\"; see internal/faultsim)")
	var conds condList
	fs.Var(&conds, "cond", "condition \"name: expression\" (repeatable)")
	condFile := fs.String("conds", "", "file with one \"name: expression\" per line")
	explainFlag := fs.Bool("explain", false, "print, under each settled condition, the witness cuts and critical path behind every atom (internal/explain); the /debug/monitor dashboard gains an explanations panel")
	retention := fs.String("retention", "", "give the online monitor every check streams through this retention policy: \"events=N,age=DUR,every=N,abandon=N\" (at least one of events/age); bounds memory for long-running sessions")
	flightOut := fs.String("flight-out", "", "write a flight-recorder bundle (last-K events with live vector clocks, final clocks, metrics snapshot) as JSON to this file when a condition is violated or the run panics")
	version := fs.Bool("version", false, "print build information and exit")
	metricsOut := fs.String("metrics", "", "write a metrics-registry snapshot as JSON to this file (- = stderr)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file (Perfetto/about://tracing)")
	lf := cliutil.AddLogFlags(fs)
	sf := cliutil.AddSampleFlags(fs)
	alertRules := fs.String("alert-rules", "", "alert-rule file (\"name[severity]: expr\" per line; see internal/obs/alert) evaluated against the sampled time-series store after every -sample-interval tick; transitions print as ALERT lines, land in -log, /debug/vars, and the dashboard")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof, expvar, /debug/metrics (JSON), /metrics (Prometheus 0.0.4), /debug/tsdb (time-series queries), and /debug/monitor (live HTML/JSON dashboard) on this address; every server in the process appears in the causet_metrics expvar map under /debug/vars, keyed by its bound address (this used to be first-registry-wins)")
	if err := fs.Parse(args); err != nil {
		return exitError, err
	}
	if *version {
		buildinfo.Current().Print(out, "syncmon")
		return exitOK, nil
	}
	if *path == "" && *faults == "" {
		return exitError, fmt.Errorf("missing -trace (or -faults)")
	}
	if *path != "" && *faults != "" {
		return exitError, fmt.Errorf("-trace and -faults are mutually exclusive")
	}
	var retPolicy *online.RetentionPolicy
	if *retention != "" {
		p, perr := parseRetention(*retention)
		if perr != nil {
			return exitError, perr
		}
		retPolicy = &p
	}
	// The alert sink prints from the sampler goroutine; serialize out.
	out = &syncWriter{w: out}

	lg, logClose, err := lf.Build(stderrW)
	if err != nil {
		return exitError, err
	}
	defer logClose()

	// The registry/tracer exist before the trace so a -faults run lands its
	// faultsim.* counters and partition spans in the same outputs.
	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" || *alertRules != "" || sf.Out() != "" {
		reg = obs.New()
		buildinfo.Current().Register(reg)
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer()
	}

	// Telemetry stack: store + sampler over the registry, and the alert
	// engine evaluating after every sample. Started before the trace loads so
	// a slow -faults generation is already being sampled.
	var tel *cliutil.Telemetry
	var eng *alert.Engine
	if reg != nil {
		tel = cliutil.NewTelemetry(reg, sf.Interval())
		// Sessions under a retention policy are the long-running monitors
		// whose heap trend matters: put the live process heap next to the
		// retention counters in the sampled store (and the dashboard).
		tel.Sampler.IncludeRuntime = retPolicy != nil
		if *alertRules != "" {
			src, rerr := os.ReadFile(*alertRules)
			if rerr != nil {
				return exitError, rerr
			}
			rules, perr := alert.ParseRules(string(src))
			if perr != nil {
				return exitError, fmt.Errorf("%s: %w", *alertRules, perr)
			}
			eng = alert.NewEngine(tel.Store, rules)
			eng.Instrument(reg)
			eng.AddSink(&alert.LogSink{Log: lg})
			eng.AddSink(alert.NewExpvarSink("causet_alerts"))
			alertOut := out
			eng.AddSink(alert.FuncSink(func(ev alert.Event) {
				fmt.Fprintf(alertOut, "ALERT %s %s [%s] %s\n", ev.State, ev.Rule, ev.Severity, ev.Expr)
			}))
			tel.Sampler.AfterSample = eng.Evaluate
		}
		tel.Start()
		defer tel.Stop()
	}

	// The flight recorder rides along from here so a panic anywhere below
	// still dumps the causal black box before the process dies.
	var fr *flight.Recorder
	if *flightOut != "" {
		defer func() {
			if r := recover(); r != nil {
				_ = fr.Dump(*flightOut, fmt.Sprintf("panic: %v", r), reg)
				panic(r)
			}
		}()
	}

	var f *trace.File
	src := *path
	if *faults != "" {
		src = "faultsim:" + *faults
		if *flightOut != "" {
			cfg, _, _, perr := faultsim.ParseSpec(*faults)
			if perr != nil {
				return exitError, perr
			}
			fr = flight.New(cfg.Nodes, 0)
		}
		f, err = faultsim.TraceFromSpecFlight(*faults, reg, tr, fr)
	} else {
		f, err = trace.Load(*path)
	}
	if err != nil {
		return exitError, err
	}
	ex, err := f.Execution()
	if err != nil {
		return exitError, err
	}
	// Recorded traces have no live runtime to hook: the replay that feeds
	// the monitor records each event with its clock from the stream.
	var replayRec *flight.Recorder
	if *flightOut != "" && fr == nil {
		fr = flight.New(ex.NumProcs(), 0)
		replayRec = fr
	}
	// Violation bundles carry the telemetry tail and alert history too.
	fr.Attach(tel.TSDB(), eng)
	lg.Info("trace_loaded", logx.F("trace", src), logx.F("procs", ex.NumProcs()))

	ivs, err := f.AllIntervals(ex)
	if err != nil {
		return exitError, err
	}
	if *condFile != "" {
		file, err := os.Open(*condFile)
		if err != nil {
			return exitError, err
		}
		defer file.Close()
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			conds = append(conds, line)
		}
		if err := sc.Err(); err != nil {
			return exitError, err
		}
	}
	if len(conds) == 0 {
		return exitError, fmt.Errorf("no conditions given (use -cond or -conds)")
	}
	condPairs := make([][2]string, 0, len(conds))
	for i, c := range conds {
		name, expr, ok := strings.Cut(c, ":")
		if !ok {
			return exitError, fmt.Errorf("condition %d: want \"name: expression\", got %q", i, c)
		}
		condPairs = append(condPairs, [2]string{strings.TrimSpace(name), strings.TrimSpace(expr)})
	}

	for name, iv := range ivs {
		lg.Debug("interval_defined", logx.F("interval", name), logx.F("size", iv.Size()))
	}
	// Every check streams the trace through the online monitor; a -retention
	// policy bounds its memory by releasing settled state and compacting the
	// stream.
	stream := online.NewStream(ex.NumProcs())
	stream.Instrument(reg, tr)
	om := online.NewMonitor(stream)
	om.Instrument(reg)
	om.SetLogger(lg)
	if retPolicy != nil {
		if err := om.SetRetention(*retPolicy); err != nil {
			return exitError, err
		}
	}
	for _, c := range condPairs {
		if err := om.AddCondition(c[0], c[1]); err != nil {
			return exitError, err
		}
	}

	var view *monitorView
	if *debugAddr != "" {
		view = newMonitorView(om, stream, ivs, condPairs, reg, tel.TSDB(), eng)
		extra := map[string]http.Handler{"/debug/monitor": view}
		if tel != nil {
			extra["/debug/tsdb"] = tsdb.Handler(tel.Store)
		}
		ln, err := obs.ServeDebugWith(*debugAddr, reg, extra)
		if err != nil {
			return exitError, err
		}
		defer ln.Close()
		fmt.Fprintf(stderrW, "syncmon: debug server on http://%s/debug/monitor\n", ln.Addr())
		if debugStarted != nil {
			debugStarted(ln.Addr().String())
		}
	}

	// -explain derives witness/critical-path evidence for every settled
	// condition through the cold WitnessEvaluator path, over the whole loaded
	// trace: retention compacts only the online stream, never ex.
	var expl *explain.Explainer
	if *explainFlag {
		a := core.NewAnalysis(ex)
		a.Instrument(reg, tr)
		expl = explain.New(a)
		expl.Instrument(reg)
		if tm, terr := f.Timing(ex); terr == nil {
			expl.WithTiming(tm)
		}
	}
	var explanations []*explain.ConditionExplanation
	explainSettled := func(res monitor.Result, src string) {
		if expl == nil {
			return
		}
		// Best-effort: a condition that evaluated cleanly explains cleanly
		// too; losing the evidence must not change the verdict or exit code.
		// AddCondition accepted src, so parsing cannot fail.
		ce, cerr := expl.Condition(monitor.NewCondition(res.Name, src, monitor.MustParse(src)), ivs)
		if cerr != nil {
			return
		}
		ce.State = res.State.String()
		ce.WriteText(out, "      ")
		explain.EmitConditionFlows(tr, ce)
		explanations = append(explanations, ce)
	}

	violWin := reg.Window("syncmon.violations", 256)
	code := exitOK
	var violated []string
	results, err := streamVerdicts(stream, om, ex, ivs, condPairs, replayRec)
	if err != nil {
		return exitError, err
	}
	// The online monitor logs each settlement itself, with its source and
	// detection latency.
	for i, res := range results {
		switch res.State {
		case monitor.Holds:
			fmt.Fprintf(out, "PASS  %s\n", res.Name)
			explainSettled(res, condPairs[i][1])
		case monitor.Violated:
			fmt.Fprintf(out, "FAIL  %s\n", res.Name)
			explainSettled(res, condPairs[i][1])
			violated = append(violated, res.Name)
			violWin.Observe(1)
			code = max(code, exitViolation)
		case monitor.Pending:
			fmt.Fprintf(out, "SKIP  %s (references undefined intervals)\n", res.Name)
			lg.Warn("condition_skipped", logx.F("condition", res.Name), logx.F("state", res.State.String()))
			code = exitError
		case monitor.Failed:
			fmt.Fprintf(out, "ERROR %s: %v\n", res.Name, res.Err)
			code = exitError
		}
	}
	if view != nil {
		view.setResults(results)
		view.setExplanations(explanations)
	}
	if rs := om.RetentionStats(); rs.Enabled {
		fmt.Fprintf(stderrW, "syncmon: retention: retained=%d released=%d abandoned=%d watermark=%v\n",
			rs.Retained, rs.Released, rs.Abandoned, rs.Watermark)
		lg.Info("retention_stats",
			logx.F("retained", rs.Retained), logx.F("released", rs.Released),
			logx.F("abandoned", rs.Abandoned), logx.F("held", rs.Held),
			logx.F("growing", rs.Growing))
	}
	if fr != nil && len(violated) > 0 {
		reason := "violation: " + strings.Join(violated, ", ")
		if derr := fr.Dump(*flightOut, reason, reg); derr != nil {
			return exitError, derr
		}
		fmt.Fprintf(stderrW, "syncmon: flight bundle (%s) written to %s\n", reason, *flightOut)
	}
	// Final telemetry beat: stop the sampler, take one last sample (which
	// also gives the alert engine its final evaluation), then write the
	// -tsdb-out dump. Alerts never alter the exit code.
	if tel != nil {
		now := time.Now()
		tel.Close(now)
		if derr := tel.WriteDump(sf.Out(), now, stderrW); derr != nil {
			return exitError, derr
		}
	}
	lg.Info("run_complete", logx.F("conditions", len(results)), logx.F("exit_code", code))
	if err := cliutil.FlushObs(reg, tr, *metricsOut, *traceOut, stderrW); err != nil {
		return exitError, err
	}
	return code, nil
}

// parseRetention parses the -retention spec, a comma-separated knob list:
// "events=N,age=DUR,every=N,abandon=N". SetRetention enforces the
// window requirement (at least one of events/age), so this only maps knobs.
func parseRetention(spec string) (online.RetentionPolicy, error) {
	var p online.RetentionPolicy
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		switch key {
		case "events", "every", "abandon":
			if !hasVal {
				return p, fmt.Errorf("-retention: %q needs a value (%s=N)", key, key)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("-retention: %s=%q: want a positive integer", key, val)
			}
			switch key {
			case "events":
				p.MaxEvents = n
			case "every":
				p.Every = n
			case "abandon":
				p.AbandonAfter = n
			}
		case "age":
			if !hasVal {
				return p, fmt.Errorf("-retention: %q needs a value (age=DUR)", key)
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return p, fmt.Errorf("-retention: age=%q: want a positive duration", val)
			}
			p.MaxAge = d
		default:
			return p, fmt.Errorf("-retention: unknown knob %q (want events/age/every/abandon)", key)
		}
	}
	return p, nil
}

// streamVerdicts replays the recorded execution event by event through the
// online monitor, observing each event into the named intervals that contain
// it and completing an interval once its last member has streamed past.
// Settled verdicts are collected via Poll, the monitor's one delivery path,
// and returned in the order of condPairs; conditions that never settle —
// they reference intervals the trace does not define — come back Pending,
// which the caller prints as SKIP with exit 2. The replay pins sends until
// their receives land, so retention appraisals firing mid-stream can never
// compact an in-flight message edge. A non-nil rec records each event with
// its clock from the stream.
func streamVerdicts(stream *online.Stream, om *online.Monitor, ex *poset.Execution, ivs map[string]*interval.Interval, condPairs [][2]string, rec *flight.Recorder) ([]monitor.Result, error) {
	// Sorted, so the replay observes and completes intervals, and logs
	// them, in the same order on every run.
	names := make([]string, 0, len(ivs))
	for name := range ivs {
		names = append(names, name)
	}
	sort.Strings(names)
	remaining := make([]int, len(names))
	for i, name := range names {
		remaining[i] = ivs[name].Size()
	}
	in := newMemberIndex(ex, ivs, names)
	settled := make(map[string]monitor.Result, len(condPairs))
	drain := func() {
		for _, r := range om.Poll() {
			settled[r.Name] = r
		}
	}
	step := func(s *online.Stream, e poset.EventID) error {
		if rec != nil {
			kind, from := "internal", ex.MsgPredecessors(e)
			var ref *flight.EventRef
			if len(from) > 0 {
				kind, ref = "recv", &flight.EventRef{Proc: from[0].Proc, Pos: from[0].Pos}
			} else if len(ex.MsgSuccessors(e)) > 0 {
				kind = "send"
			}
			// e is its process's newest event, whose row no compaction drops.
			clock, err := s.Clock(e)
			if err != nil {
				return err
			}
			rec.RecordClock(e.Proc, e.Pos, kind, ref, clock)
		}
		for _, i := range in.of(e) {
			if err := om.Observe(names[i], e); err != nil {
				return err
			}
			if remaining[i]--; remaining[i] == 0 {
				if err := om.Complete(names[i]); err != nil {
					return err
				}
			}
		}
		drain()
		return nil
	}
	if _, err := online.ReplayStepsOn(stream, ex, step); err != nil {
		return nil, err
	}
	drain()
	results := make([]monitor.Result, len(condPairs))
	for i, c := range condPairs {
		results[i] = monitor.Result{Name: c[0], State: monitor.Pending}
		if r, ok := settled[c[0]]; ok {
			results[i] = r
		}
	}
	return results, nil
}

// memberIndex lists the intervals that contain each event of an execution,
// as indexes into the caller's list of interval names: those of event
// (p, k) are ids[p][at[p][k]:at[p][k+1]], in ascending order.
type memberIndex struct{ at, ids [][]int32 }

// newMemberIndex indexes the members of the named intervals.
func newMemberIndex(ex *poset.Execution, ivs map[string]*interval.Interval, names []string) memberIndex {
	x := memberIndex{at: make([][]int32, ex.NumProcs()), ids: make([][]int32, ex.NumProcs())}
	for p := range x.at {
		x.at[p] = make([]int32, ex.NumReal(p)+2)
	}
	for _, name := range names {
		for _, e := range ivs[name].Events() {
			x.at[e.Proc][e.Pos]++
		}
	}
	// Each at[p][k] now ends event k's run; filling the runs back to front
	// moves it to the run's start.
	for p, at := range x.at {
		for k := 1; k < len(at); k++ {
			at[k] += at[k-1]
		}
		x.ids[p] = make([]int32, at[len(at)-1])
	}
	for i := len(names) - 1; i >= 0; i-- {
		for _, e := range ivs[names[i]].Events() {
			at := x.at[e.Proc]
			at[e.Pos]--
			x.ids[e.Proc][at[e.Pos]] = int32(i)
		}
	}
	return x
}

// of returns the indexes of the intervals that contain e.
func (x memberIndex) of(e poset.EventID) []int32 {
	return x.ids[e.Proc][x.at[e.Proc][e.Pos]:x.at[e.Proc][e.Pos+1]]
}
