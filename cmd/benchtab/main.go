// Command benchtab regenerates the paper's tables and quantitative claims
// (see DESIGN.md §4 and EXPERIMENTS.md) as formatted text tables:
//
//	benchtab -table e1      Table 1: definition ≡ evaluation condition
//	benchtab -table e3      Theorem 19: restricted ⊀⊀ comparison counts
//	benchtab -table e4      Theorem 20: per-relation comparison counts
//	benchtab -table e5      linear vs polynomial evaluation sweep
//	benchtab -table e6      one-time setup amortization (Key Idea 1)
//	benchtab -table e7      serial vs parallel batch evaluation sweep
//	benchtab -table e10     fused 32-relation profile kernel vs per-relation scan
//	benchtab -table e14     streaming-throughput sweep: online monitor vs cold recompute
//	benchtab -table e15     long-horizon soak: retention/compaction vs unbounded monitor
//	benchtab -table alg     relation algebra: hierarchy + composition table
//	benchtab -table all     everything
//
// -parallel N sets the worker-pool width for e7 (0 = GOMAXPROCS).
//
// -json out.json writes a machine-readable benchmark report instead of the
// text tables (- = stdout): E1 agreement, E4 bound counts, and the E5/E7
// timing sweeps, plus the metrics-registry snapshot (comparison counters,
// cut builds, batch histograms) accumulated while they ran. Committed
// BENCH_*.json files at the repo root use this format to track performance
// across PRs. A JSON report also embeds a "tsdb" section: the time-series
// dump sampled at -sample-interval cadence while the sweeps ran; -tsdb-out
// writes the same dump to a standalone file for runs without -json.
//
// Observability: -metrics dumps a registry snapshot as JSON (file path, or
// - for stderr); -trace-out writes a Chrome trace_event file covering the
// E5/E7 sweeps; -debug-addr serves net/http/pprof, expvar, and
// /debug/metrics while the tables run; -cpuprofile and -memprofile write
// go tool pprof files covering the whole run — the profiling companions of
// the E10 kernel work (see `make profile`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"causet/internal/bench"
	"causet/internal/buildinfo"
	"causet/internal/cliutil"
	"causet/internal/hierarchy"
	"causet/internal/obs"
)

// stderrW is where "-metrics -" and the -debug-addr banner go; a variable so
// tests can capture it.
var stderrW io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	table := fs.String("table", "all", "which experiment to run: e1|e3|e4|e5|e6|e7|e10|e14|e15|alg|all")
	trials := fs.Int("trials", 400, "randomized trials for e1/e3/e4")
	reps := fs.Int("reps", 50, "repetitions per point for e5/e7")
	seed := fs.Int64("seed", 1, "PRNG seed")
	parallel := fs.Int("parallel", 0, "worker-pool width for e7 (0 = GOMAXPROCS)")
	csv := fs.Bool("csv", false, "emit the e5 sweep as CSV (for plotting) instead of a table")
	jsonOut := fs.String("json", "", "write a machine-readable benchmark report to this file (- = stdout) instead of text tables")
	metricsOut := fs.String("metrics", "", "write a metrics-registry snapshot as JSON to this file (- = stderr)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file (Perfetto/about://tracing)")
	sf := cliutil.AddSampleFlags(fs)
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof, expvar, /debug/metrics (JSON), and /metrics (Prometheus 0.0.4) on this address; every server in the process appears in the causet_metrics expvar map under /debug/vars, keyed by its bound address (this used to be first-registry-wins)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile (after a final GC) to this file at exit (go tool pprof)")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Current().Print(out, "benchtab")
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" || *jsonOut != "" || sf.Out() != "" {
		reg = obs.New()
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer()
	}
	// The sampler runs for JSON reports (the report embeds the dump) and
	// whenever -tsdb-out asks for a standalone dump file.
	var tel *cliutil.Telemetry
	if reg != nil && (*jsonOut != "" || sf.Out() != "") {
		tel = cliutil.NewTelemetry(reg, sf.Interval())
		tel.Start()
		defer tel.Stop()
	}
	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(stderrW, "benchtab: debug server on http://%s/debug/metrics\n", ln.Addr())
	}

	err := runTables(out, *table, *trials, *reps, *parallel, *seed, *csv, *jsonOut, reg, tr, tel)
	if tel != nil && sf.Out() != "" {
		now := time.Now()
		tel.Close(now)
		if derr := tel.WriteDump(sf.Out(), now, stderrW); derr != nil && err == nil {
			err = derr
		}
	}
	if ferr := cliutil.FlushObs(reg, tr, *metricsOut, *traceOut, stderrW); ferr != nil && err == nil {
		err = ferr
	}
	if *memProfile != "" {
		if merr := writeHeapProfile(*memProfile); merr != nil && err == nil {
			err = merr
		}
	}
	return err
}

// writeHeapProfile snapshots the live heap (after a final GC, so the profile
// shows retained objects rather than garbage) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func runTables(out io.Writer, table string, trials, reps, parallel int, seed int64, csv bool, jsonOut string, reg *obs.Registry, tr *obs.Tracer, tel *cliutil.Telemetry) error {
	if jsonOut != "" {
		w, closeOut, err := jsonOutput(out, jsonOut)
		if err != nil {
			return err
		}
		defer closeOut()
		rep, err := buildJSONReport(trials, reps, parallel, seed, reg, tr)
		if err != nil {
			return err
		}
		if tel != nil {
			// Final sample so sub-interval sweeps still land their end
			// state, then embed the full dump in the report.
			now := time.Now()
			tel.Close(now)
			rep.Tsdb = tel.Store.Dump(0, now)
		}
		return writeJSONReport(w, rep)
	}
	if csv {
		return e5CSV(out, reps, seed)
	}
	runAll := table == "all"
	ran := false
	if runAll || table == "e1" {
		e1(out, trials, seed)
		ran = true
	}
	if runAll || table == "e3" {
		e3(out, trials, seed)
		ran = true
	}
	if runAll || table == "e4" {
		e4(out, trials, seed)
		ran = true
	}
	if runAll || table == "e5" {
		e5(out, reps, seed, reg, tr)
		ran = true
	}
	if runAll || table == "e6" {
		e6(out, seed)
		ran = true
	}
	if runAll || table == "e7" {
		e7(out, parallel, reps, seed, reg, tr)
		ran = true
	}
	if runAll || table == "e10" {
		e10(out, reps, seed, reg, tr)
		ran = true
	}
	if runAll || table == "e14" {
		if err := e14(out, reps, seed, reg, tr); err != nil {
			return err
		}
		ran = true
	}
	if runAll || table == "e15" {
		if err := e15(out, reg, tr); err != nil {
			return err
		}
		ran = true
	}
	if runAll || table == "alg" {
		alg(out)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown table %q", table)
	}
	return nil
}

func alg(out io.Writer) {
	fmt.Fprintln(out, "ALG — relation algebra (hierarchy and composition; cf. the axiom system of [FTDCS'97])")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "implication hierarchy (covering edges, strongest at the top):")
	for _, e := range hierarchy.HasseEdges() {
		fmt.Fprintf(out, "  %-3v ⇒ %v\n", e[0], e[1])
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "composition: strongest t with r(X,Y) ∧ s(Y,Z) ⇒ t(X,Z); – = nothing guaranteed")
	fmt.Fprintln(out)
	header := []string{"r \\ s"}
	for _, s := range hierarchy.Canonical() {
		header = append(header, s.String())
	}
	var cells [][]string
	for _, r := range hierarchy.Canonical() {
		row := []string{r.String()}
		for _, s := range hierarchy.Canonical() {
			if t, ok := hierarchy.Compose(r, s); ok {
				row = append(row, t.String())
			} else {
				row = append(row, "–")
			}
		}
		cells = append(cells, row)
	}
	fmt.Fprintln(out, bench.FormatTable(header, cells))

	profiles := hierarchy.Profiles()
	fmt.Fprintf(out, "realizable classifications of an interval pair (the %d filters of the lattice):\n", len(profiles))
	for _, p := range profiles {
		fmt.Fprintf(out, "  %v\n", p)
	}
	fmt.Fprintln(out)
}

func e1(out io.Writer, trials int, seed int64) {
	fmt.Fprintf(out, "E1 — Table 1: quantifier definition vs evaluation condition (%d random instances)\n\n", trials)
	rows := bench.Table1Agreement(trials, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Relation.String(), r.Quantifier, r.Condition,
			fmt.Sprintf("%d/%d", r.Agreements, r.Trials),
			strconv.Itoa(r.HeldCount),
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"relation", "definition", "evaluation condition", "agree", "held"}, cells))
}

func e3(out io.Writer, trials int, seed int64) {
	fmt.Fprintf(out, "E3 — Theorem 19: restricted ⊀⊀(↓Y, X↑) test (%d random instances)\n\n", trials)
	rows := bench.Theorem19Counts(trials, seed)
	var cells [][]string
	for _, r := range rows {
		verdict := "exact"
		if !r.AllCorrect {
			verdict = "MISMATCH"
		}
		cells = append(cells, []string{
			r.Pairing, r.Side,
			strconv.FormatInt(r.MaxCount, 10), strconv.FormatInt(r.Bound, 10), verdict,
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"cut pairing", "side", "max cmp", "bound", "vs full test"}, cells))
}

func e4(out io.Writer, trials int, seed int64) {
	fmt.Fprintf(out, "E4 — Theorem 20: per-relation comparison counts (%d random instances)\n\n", trials)
	rows := bench.Theorem20Counts(trials, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Relation.String(), r.BoundExpr,
			fmt.Sprintf("%d/%d", r.WithinBound, r.Trials),
			strconv.Itoa(r.TightHits),
			strconv.FormatInt(r.MaxCount, 10),
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"relation", "bound", "within", "tight hits", "max cmp"}, cells))
	fmt.Fprintln(out, "note: R2' and R3 use the one-sided bound; see the Theorem 19 refinement in EXPERIMENTS.md")
	fmt.Fprintln(out)
}

func e5(out io.Writer, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) {
	fmt.Fprintf(out, "E5 — linear vs polynomial evaluation, |N_X| = |N_Y| = N (%d reps/point, 8 relations/op)\n\n", reps)
	rows := bench.ComplexitySweepObs([]int{2, 4, 8, 16, 32, 64, 128, 256}, reps, seed, reg, tr)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.N),
			bench.F(r.NaiveCmp), bench.F(r.ProxyCmp), bench.F(r.FastCmp),
			bench.F(r.NaiveNsOp), bench.F(r.ProxyNsOp), bench.F(r.FastNsOp),
			fmt.Sprintf("%.1fx", r.SpeedupPxF),
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"N", "naive cmp", "proxy cmp", "fast cmp", "naive ns", "proxy ns", "fast ns", "proxy/fast"}, cells))
}

// e5CSV emits the complexity sweep as comma-separated series, one row per
// N, ready for plotting the paper's headline figure.
func e5CSV(out io.Writer, reps int, seed int64) error {
	rows := bench.ComplexitySweep([]int{2, 4, 8, 16, 32, 64, 128, 256}, reps, seed)
	fmt.Fprintln(out, "n,naive_cmp,proxy_cmp,fast_cmp,naive_ns,proxy_ns,fast_ns")
	for _, r := range rows {
		fmt.Fprintf(out, "%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
			r.N, r.NaiveCmp, r.ProxyCmp, r.FastCmp, r.NaiveNsOp, r.ProxyNsOp, r.FastNsOp)
	}
	return nil
}

func e7(out io.Writer, workers, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) {
	fmt.Fprintln(out, "E7 — serial vs parallel batch evaluation (internal/batch, ring rounds × 8 relations)")
	fmt.Fprintln(out)
	rows := bench.ParallelSweepObs([]int{8, 32, 128}, workers, reps, seed, reg, tr)
	var cells [][]string
	for _, r := range rows {
		agree := "identical"
		if !r.Agree {
			agree = "MISMATCH"
		}
		cells = append(cells, []string{
			strconv.Itoa(r.N), strconv.Itoa(r.Queries), strconv.Itoa(r.Workers),
			bench.F(r.SerialNs), bench.F(r.ParallelNs),
			fmt.Sprintf("%.1fx", r.Speedup), agree,
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"N", "queries", "workers", "serial ns", "parallel ns", "speedup", "verdicts+counts"}, cells))
}

func e10(out io.Writer, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) {
	fmt.Fprintln(out, "E10 — fused 32-relation profile kernel vs per-relation scan (per profile = 1 pair × ℛ)")
	fmt.Fprintln(out)
	rows := bench.ProfileSweepObs([]int{8, 32, 128}, reps, seed, reg, tr)
	var cells [][]string
	for _, r := range rows {
		agree := "identical"
		if !r.Agree {
			agree = "MISMATCH"
		}
		cells = append(cells, []string{
			strconv.Itoa(r.N), strconv.Itoa(r.Pairs),
			bench.F(r.FusedCmp), bench.F(r.LegacyCmp),
			bench.F(r.FusedNs), bench.F(r.LegacyNs),
			bench.F(r.FusedAllocs), bench.F(r.LegacyAllocs),
			fmt.Sprintf("%.1fx", r.Speedup), agree,
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"N", "pairs", "fused cmp", "scan cmp", "fused ns", "scan ns",
			"fused allocs", "scan allocs", "speedup", "masks"}, cells))
}

func e14(out io.Writer, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) error {
	fmt.Fprintln(out, "E14 — streaming throughput: online monitor vs cold recompute per settlement (ring workload, Poll per event)")
	fmt.Fprintln(out)
	rows, err := bench.StreamSweepObs(bench.DefaultStreamConfigs(), reps, seed, reg, tr)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, r := range rows {
		agree := "identical"
		if !r.Agree {
			agree = "MISMATCH"
		}
		cells = append(cells, []string{
			strconv.Itoa(r.Procs), strconv.Itoa(r.Rounds), strconv.Itoa(r.Events),
			bench.F(r.IncNs), bench.F(r.LegNs),
			bench.F(r.IncEvSec), bench.F(r.LegEvSec),
			bench.F(r.IncAllocs), bench.F(r.LegAllocs),
			bench.F(r.IncCheck), bench.F(r.LegCheck),
			fmt.Sprintf("%.1fx", r.Speedup), agree,
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"procs", "rounds", "events", "inc ns/ev", "cold ns/ev",
			"inc ev/s", "cold ev/s", "inc allocs/ev", "cold allocs/ev",
			"inc check ns", "cold check ns", "speedup", "verdicts"}, cells))
	return nil
}

func e15(out io.Writer, reg *obs.Registry, tr *obs.Tracer) error {
	fmt.Fprintln(out, "E15 — long-horizon soak: retained working set vs unbounded monitor (ring chain, Poll per round)")
	fmt.Fprintln(out)
	rows, err := bench.SoakSweepObs(bench.DefaultSoakConfigs(), reg, tr)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, r := range rows {
		agree := "identical"
		if !r.Agree {
			agree = "MISMATCH"
		}
		unbHeap, unbNs := "-", "-"
		if r.UnbRan {
			unbHeap = fmt.Sprintf("%.1f", float64(r.UnbHeapPeak)/(1<<20))
			unbNs = bench.F(r.UnbNs)
		}
		cells = append(cells, []string{
			strconv.Itoa(r.Procs), strconv.Itoa(r.Events), strconv.Itoa(r.Window),
			strconv.Itoa(r.RetRetainedMax), strconv.Itoa(r.RetRetainedEnd),
			fmt.Sprintf("%.1f", float64(r.RetHeapPeak)/(1<<20)), unbHeap,
			bench.F(r.RetNs), unbNs,
			strconv.Itoa(r.Released), agree,
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"procs", "events", "window", "ret max", "ret end",
			"ret MiB", "unb MiB", "ret ns/ev", "unb ns/ev", "released", "verdicts"}, cells))
	fmt.Fprintln(out, "note: the unbounded leg runs only under the event cap; larger points compare two retention schedules")
	fmt.Fprintln(out)
	return nil
}

func e6(out io.Writer, seed int64) {
	fmt.Fprintln(out, "E6 — one-time timestamp/cut setup vs per-pair evaluation (Key Idea 1)")
	fmt.Fprintln(out)
	rows := bench.SetupAmortization([]int{4, 8, 16, 32, 64}, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(r.Procs), strconv.Itoa(r.Events),
			bench.F(r.SetupNs), bench.F(r.PerPairNs),
			strconv.Itoa(r.BreakEvenAt),
		})
	}
	fmt.Fprintln(out, bench.FormatTable(
		[]string{"procs", "events", "setup ns", "per-pair ns", "break-even pairs"}, cells))
}
