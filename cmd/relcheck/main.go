// Command relcheck evaluates causality relations between two named
// nonatomic events of a recorded trace — the paper's Problem 4 as a CLI.
//
// Usage:
//
//	relcheck -trace t.json -x ring-round-0 -y ring-round-1            # all 8 relations
//	relcheck -trace t.json -x a -y b -rel "R2'"                      # one relation
//	relcheck -trace t.json -x a -y b -all32                          # the full set ℛ
//	relcheck -trace t.json -x a -y b -strongest                      # maximal relations only
//	relcheck -trace t.json -matrix                                   # all interval pairs
//	relcheck -trace t.json -x a -y b -explain                        # witness + critical path
//	relcheck -trace t.json -x a -y b -evaluator naive -count         # cost comparison
//	relcheck -trace t.json -matrix -parallel 8                       # 8-worker batch engine
//	relcheck -trace t.json -matrix -metrics - -trace-out prof.json   # observability
//	relcheck -faults "mutex,nodes=3,rounds=2,seed=7,dup=0.2" -matrix # chaos trace
//
// -faults replaces -trace: instead of loading a recorded file, the named
// protocol runs under the deterministic fault-injection simulator
// (internal/faultsim) with the given chaos spec, and the resulting trace —
// reproducible byte-for-byte from the spec — is analyzed like any other.
//
// Every verdict comes from the internal/batch engine. -parallel N sets its
// pool width (0, the default, evaluates inline on one worker); output is
// byte-identical for every N.
//
// Observability: -metrics dumps an internal/obs registry snapshot as JSON
// (to a file, or to stderr with "-") containing the comparison-accounting
// counters (core.<evaluator>.comparisons[.<relation>], core.cut_builds) and
// the batch.* counters; -trace-out writes a Chrome trace_event file loadable
// in about://tracing or https://ui.perfetto.dev; -log writes a structured
// JSONL event log (gated by -log-level); -debug-addr serves net/http/pprof,
// expvar, /debug/metrics (JSON), and /metrics (Prometheus text 0.0.4) for
// the duration of the run; -tsdb-out samples the registry into the
// in-process time-series store every -sample-interval (plus a final sample
// at exit) and writes its dump as JSON, so a long -matrix run leaves a
// queryable history of how the comparison counters grew.
//
// -explain prints, under each verdict, the witness cuts whose ≪ test decided
// it and the critical path through the poset connecting the witness pair
// (internal/explain); with -trace-out, the same evidence lands in the trace
// as flow arrows. -version prints build metadata and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"causet/internal/batch"
	"causet/internal/buildinfo"
	"causet/internal/cliutil"
	"causet/internal/core"
	"causet/internal/explain"
	"causet/internal/faultsim"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/obs/logx"
	"causet/internal/poset"
	"causet/internal/trace"
)

// stderrW is where "-metrics -" and the -debug-addr banner go; a variable so
// tests can capture it.
var stderrW io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relcheck", flag.ContinueOnError)
	path := fs.String("trace", "", "trace file (.json or .gob)")
	faults := fs.String("faults", "", "generate the trace by running a protocol under a deterministic chaos spec instead of loading -trace (e.g. \"mutex,nodes=3,rounds=2,seed=7,drop=0.1,dup=0.1\"; see internal/faultsim)")
	xName := fs.String("x", "", "name of interval X")
	yName := fs.String("y", "", "name of interval Y")
	relName := fs.String("rel", "", "single relation to test (R1, R1', R2, R2', R3, R3', R4, R4')")
	all32 := fs.Bool("all32", false, "evaluate all 32 relations of ℛ (proxy combinations)")
	explainFlag := fs.Bool("explain", false, "print the witness cuts and critical path behind each verdict (pair modes: -rel, the 8-relation listing, -all32; needs -evaluator fast or proxy)")
	version := fs.Bool("version", false, "print build information and exit")
	evalName := fs.String("evaluator", "fast", "evaluator: fast|proxy|naive")
	count := fs.Bool("count", false, "also print integer-comparison counts")
	list := fs.Bool("list", false, "list the trace's interval names and exit")
	strongest := fs.Bool("strongest", false, "print only the hierarchy-maximal relations")
	matrix := fs.Bool("matrix", false, "print the strongest-relation matrix over all intervals")
	parallel := fs.Int("parallel", 0, "evaluate with an N-worker batch engine (0 = serial, -1 = GOMAXPROCS)")
	metricsOut := fs.String("metrics", "", "write a metrics-registry snapshot as JSON to this file (- = stderr)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file (Perfetto/about://tracing)")
	lf := cliutil.AddLogFlags(fs)
	sf := cliutil.AddSampleFlags(fs)
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof, expvar, /debug/metrics (JSON), and /metrics (Prometheus 0.0.4) on this address; every server in the process appears in the causet_metrics expvar map under /debug/vars, keyed by its bound address (this used to be first-registry-wins)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Current().Print(out, "relcheck")
		return nil
	}
	if *path == "" && *faults == "" {
		return fmt.Errorf("missing -trace (or -faults)")
	}
	if *path != "" && *faults != "" {
		return fmt.Errorf("-trace and -faults are mutually exclusive")
	}

	lg, logClose, err := lf.Build(stderrW)
	if err != nil {
		return err
	}
	defer logClose()

	// The registry/tracer exist before the trace so a -faults run lands its
	// faultsim.* counters and partition spans in the same outputs.
	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" || sf.Out() != "" {
		reg = obs.New()
		buildinfo.Current().Register(reg)
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer()
	}

	// -tsdb-out samples the registry while the evaluation runs; the final
	// sample at exit covers runs shorter than the interval.
	var tel *cliutil.Telemetry
	if sf.Out() != "" {
		tel = cliutil.NewTelemetry(reg, sf.Interval())
		tel.Start()
		defer tel.Stop()
	}

	var f *trace.File
	src := *path
	if *faults != "" {
		src = "faultsim:" + *faults
		f, err = faultsim.TraceFromSpec(*faults, reg, tr)
	} else {
		f, err = trace.Load(*path)
	}
	if err != nil {
		return err
	}
	ex, err := f.Execution()
	if err != nil {
		return err
	}
	lg.Info("trace_loaded", logx.F("trace", src), logx.F("procs", ex.NumProcs()),
		logx.F("intervals", len(f.IntervalNames())))
	if *list {
		for _, name := range f.IntervalNames() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(stderrW, "relcheck: debug server on http://%s/debug/metrics\n", ln.Addr())
	}

	a := core.NewAnalysis(ex)
	a.Instrument(reg, tr)
	newEval, err := evaluatorFactory(*evalName)
	if err != nil {
		return err
	}
	eval := newEval(a)
	// Every evaluation runs through the batch engine; its results are
	// deterministic, so the output below is byte-identical for any worker
	// count.
	eng := batch.New(a, batch.Options{Workers: workerCount(*parallel), NewEvaluator: newEval, Metrics: reg, Tracer: tr})

	// -explain derives witness/critical-path evidence through the cold
	// WitnessEvaluator methods — the hot EvalCount paths are untouched.
	var expl *explain.Explainer
	if *explainFlag {
		we, ok := eval.(core.WitnessEvaluator)
		if !ok {
			return fmt.Errorf("-explain needs a witness-capturing evaluator (fast or proxy), not %q", *evalName)
		}
		expl = explain.New(a).WithEvaluator(we)
		expl.Instrument(reg)
		if tm, terr := f.Timing(ex); terr == nil {
			expl.WithTiming(tm)
		}
	}

	lg.Info("eval_start", logx.F("evaluator", *evalName), logx.F("matrix", *matrix),
		logx.F("workers", workerCount(*parallel)))
	err = evalMain(out, f, ex, eval, eng, expl, tr, modeFlags{
		xName: *xName, yName: *yName, relName: *relName,
		all32: *all32, count: *count, strongest: *strongest, matrix: *matrix,
	})
	if err != nil {
		lg.Error("run_complete", logx.F("err", err))
	} else {
		lg.Info("run_complete")
	}
	if tel != nil {
		now := time.Now()
		tel.Close(now)
		if derr := tel.WriteDump(sf.Out(), now, stderrW); derr != nil && err == nil {
			err = derr
		}
	}
	if ferr := cliutil.FlushObs(reg, tr, *metricsOut, *traceOut, stderrW); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// modeFlags carries the evaluation-mode flags into evalMain.
type modeFlags struct {
	xName, yName, relName           string
	all32, count, strongest, matrix bool
}

// evalMain is the evaluation body of run, split out so the observability
// flush happens on every exit path.
func evalMain(out io.Writer, f *trace.File, ex *poset.Execution, eval core.Evaluator, eng *batch.Engine, expl *explain.Explainer, tr *obs.Tracer, m modeFlags) error {
	if expl != nil && (m.matrix || m.strongest) {
		return fmt.Errorf("-explain applies to pair verdict modes (-rel, the 8-relation listing, -all32), not -matrix/-strongest")
	}
	if m.matrix {
		return printMatrix(out, f, ex, eng)
	}
	if m.xName == "" || m.yName == "" {
		return fmt.Errorf("missing -x or -y (use -list to see interval names)")
	}
	x, err := f.Interval(ex, m.xName)
	if err != nil {
		return err
	}
	y, err := f.Interval(ex, m.yName)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "X = %s %v  (|X|=%d, N_X=%v)\n", m.xName, x, x.Size(), x.NodeSet())
	fmt.Fprintf(out, "Y = %s %v  (|Y|=%d, N_Y=%v)\n", m.yName, y, y.Size(), y.NodeSet())
	if tm, err := f.Timing(ex); err == nil {
		fmt.Fprintf(out, "timing: span(X)=%v span(Y)=%v gap(X→Y)=%v response(X→Y)=%v\n",
			tm.Span(x), tm.Span(y), tm.Gap(x, y), tm.ResponseTime(x, y))
	}

	if m.all32 {
		profiles, _ := eng.Profiles([]batch.Pair{{X: x, Y: y}})
		if profiles[0].Err != nil {
			return profiles[0].Err
		}
		holding := profiles[0].Holding
		fmt.Fprintf(out, "%d of 32 relations hold:\n", len(holding))
		for _, r := range holding {
			fmt.Fprintf(out, "  %v\n", r)
			if expl != nil {
				xp, err := expl.Rel32(r, x, y, m.xName, m.yName)
				if err != nil {
					return err
				}
				xp.WriteText(out, "    ")
				explain.EmitFlows(tr, xp)
			}
		}
		return nil
	}
	if m.strongest {
		held, err := evalRelations(eng, core.Relations(), x, y)
		if err != nil {
			return err
		}
		var heldRels []core.Relation
		for i, rel := range core.Relations() {
			if held[i].Held {
				heldRels = append(heldRels, rel)
			}
		}
		max := hierarchy.Strongest(heldRels)
		if len(max) == 0 {
			fmt.Fprintln(out, "no relation holds (not even R4)")
			return nil
		}
		fmt.Fprintf(out, "strongest relations: ")
		for i, r := range max {
			if i > 0 {
				fmt.Fprint(out, ", ")
			}
			fmt.Fprintf(out, "%v (%s)", r, r.Quantifier())
		}
		fmt.Fprintln(out)
		return nil
	}

	rels := core.Relations()
	if m.relName != "" {
		rel, err := core.ParseRelation(m.relName)
		if err != nil {
			return err
		}
		rels = []core.Relation{rel}
	}
	verdicts, err := evalRelations(eng, rels, x, y)
	if err != nil {
		return err
	}
	for i, rel := range rels {
		if m.count {
			fmt.Fprintf(out, "%-4v %-22s = %-5v  (%d comparisons, %s)\n",
				rel, rel.Quantifier(), verdicts[i].Held, verdicts[i].Comparisons, eval.Name())
		} else {
			fmt.Fprintf(out, "%-4v %-22s = %v\n", rel, rel.Quantifier(), verdicts[i].Held)
		}
		if expl != nil {
			xp, err := expl.Relation(rel, x, y, m.xName, m.yName)
			if err != nil {
				return err
			}
			xp.WriteText(out, "     ")
			explain.EmitFlows(tr, xp)
		}
	}
	return nil
}

// evalRelations answers rels over (x, y) through the engine, rejecting
// overlapping and foreign intervals.
func evalRelations(eng *batch.Engine, rels []core.Relation, x, y *interval.Interval) ([]batch.Result, error) {
	res := eng.EvalQueries(batch.PairQueries([]batch.Pair{{X: x, Y: y}}, rels))
	for _, r := range res.Results {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return res.Results, nil
}

// evaluatorFactory maps an -evaluator name to a per-worker constructor.
func evaluatorFactory(name string) (func(*core.Analysis) core.Evaluator, error) {
	switch name {
	case "fast":
		return func(a *core.Analysis) core.Evaluator { return core.NewFast(a) }, nil
	case "proxy":
		return func(a *core.Analysis) core.Evaluator { return core.NewProxy(a) }, nil
	case "naive":
		return func(a *core.Analysis) core.Evaluator { return core.NewNaive(a) }, nil
	}
	return nil, fmt.Errorf("unknown evaluator %q", name)
}

// workerCount resolves the -parallel flag: positive values name the pool
// width, negative ones select GOMAXPROCS, and 0 one inline worker.
func workerCount(parallel int) int {
	if parallel < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(parallel, 1)
}

// printMatrix renders the strongest-relation matrix over every interval of
// the trace (Problem 4(ii) at trace scale).
func printMatrix(out io.Writer, f *trace.File, ex *poset.Execution, eng *batch.Engine) error {
	ivMap, err := f.AllIntervals(ex)
	if err != nil {
		return err
	}
	if len(ivMap) < 2 {
		return fmt.Errorf("trace has %d intervals; a matrix needs at least 2", len(ivMap))
	}
	names := make([]string, 0, len(ivMap))
	for name := range ivMap {
		names = append(names, name)
	}
	sort.Strings(names)
	ivs := make([]*interval.Interval, 0, len(names))
	for _, name := range names {
		ivs = append(ivs, ivMap[name])
	}
	pm, _, err := eng.Matrix(names, ivs)
	if err != nil {
		return err
	}
	fmt.Fprint(out, pm.String())
	fmt.Fprintln(out, "\ncells: hierarchy-maximal relations row→column; – none; ovl overlapping pair")
	return nil
}
