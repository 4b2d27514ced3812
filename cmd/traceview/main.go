// Command traceview renders a recorded trace as an ASCII space-time
// diagram, optionally marking a named interval's members and overlaying its
// four condensed cuts (the view the paper's Figures 2–3 give).
//
// Usage:
//
//	traceview -trace t.json                          # bare diagram
//	traceview -trace t.json -interval ring-round-1   # mark members + cuts
//	traceview -trace t.json -interval x -proxies     # mark L_X/U_X instead
//
// Observability: -metrics dumps an internal/obs registry snapshot as JSON
// (file path, or - for stderr) with the cut-build and comparison counters
// behind the overlays; -trace-out writes a Chrome trace_event file; -log
// writes a structured JSONL event log (gated by -log-level).
//
// -explain takes one condition-DSL atom (e.g. "R2(x, y)" or "R1(L(x), y)"),
// prints its witness and critical path (internal/explain), and overlays the
// evidence on the diagram: 'W' marks the decisive witness pair and '+' the
// critical-path events. -version prints build metadata and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"causet/internal/buildinfo"
	"causet/internal/cliutil"
	"causet/internal/core"
	"causet/internal/explain"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/logx"
	"causet/internal/poset"
	"causet/internal/render"
	"causet/internal/trace"
)

// stderrW is where "-metrics -" goes; a variable so tests can capture it.
var stderrW io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	path := fs.String("trace", "", "trace file (.json or .gob)")
	ivName := fs.String("interval", "", "interval to mark ('*') and overlay C1–C4 for")
	proxies := fs.Bool("proxies", false, "mark the interval's proxies L ('L') and U ('U') instead of plain members")
	cutsOn := fs.Bool("cuts", true, "overlay the interval's condensed cuts")
	timeline := fs.Bool("timeline", false, "render globally ordered lanes with message arrows instead of per-node positions")
	svgPath := fs.String("svg", "", "write a figure-style SVG rendering to this path")
	explainSpec := fs.String("explain", "", "explain a relation verdict given as one condition-DSL atom (e.g. \"R2(x, y)\"): print its witness + critical path and overlay the evidence ('W' = witness pair, '+' = critical-path events)")
	metricsOut := fs.String("metrics", "", "write a metrics-registry snapshot as JSON to this file (- = stderr)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file (Perfetto/about://tracing)")
	lf := cliutil.AddLogFlags(fs)
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Current().Print(out, "traceview")
		return nil
	}
	if *path == "" {
		return fmt.Errorf("missing -trace")
	}

	lg, logClose, err := lf.Build(stderrW)
	if err != nil {
		return err
	}
	defer logClose()

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
		buildinfo.Current().Register(reg)
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer()
	}
	defer func() {
		if err := cliutil.FlushObs(reg, tr, *metricsOut, *traceOut, stderrW); err != nil {
			fmt.Fprintln(stderrW, "traceview: flush:", err)
		}
	}()
	f, err := trace.Load(*path)
	if err != nil {
		return err
	}
	ex, err := f.Execution()
	if err != nil {
		return err
	}
	lg.Info("trace_loaded", logx.F("trace", *path), logx.F("procs", ex.NumProcs()),
		logx.F("intervals", len(f.IntervalNames())))
	// newAnalysis is shared by the three rendering paths so each cut build
	// lands in the same registry and tracer.
	newAnalysis := func() *core.Analysis {
		a := core.NewAnalysis(ex)
		a.Instrument(reg, tr)
		return a
	}

	// -explain resolves its atom exactly as the monitor DSL would, derives
	// the witness + critical path, and leaves marks for the renderers below.
	var explWitness, explPath []poset.EventID
	if *explainSpec != "" {
		expr, err := monitor.Parse(*explainSpec)
		if err != nil {
			return err
		}
		atoms := monitor.Atoms(expr)
		if len(atoms) != 1 {
			return fmt.Errorf("-explain wants exactly one relation atom, got %d in %q", len(atoms), *explainSpec)
		}
		at := atoms[0]
		a := newAnalysis()
		ivs, err := f.AllIntervals(ex)
		if err != nil {
			return err
		}
		lookup := func(name string) (*interval.Interval, bool) { iv, ok := ivs[name]; return iv, ok }
		x, err := at.X.Resolve(a, lookup)
		if err != nil {
			return err
		}
		y, err := at.Y.Resolve(a, lookup)
		if err != nil {
			return err
		}
		expl := explain.New(a)
		expl.Instrument(reg)
		if tm, terr := f.Timing(ex); terr == nil {
			expl.WithTiming(tm)
		}
		xp, err := expl.Relation(at.Rel, x, y, at.X.String(), at.Y.String())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%v = %t\n", at, xp.Held)
		xp.WriteText(out, "  ")
		explain.EmitFlows(tr, xp)
		explWitness = []poset.EventID{xp.Witness.XEvent.ID(), xp.Witness.YEvent.ID()}
		if cp := xp.CriticalPath; cp != nil {
			for _, h := range cp.Hops {
				explPath = append(explPath, h.From.ID())
			}
			explPath = append(explPath, cp.To.ID())
		}
	}
	if *svgPath != "" {
		svg := render.NewSVG(ex)
		if *ivName != "" {
			iv, err := f.Interval(ex, *ivName)
			if err != nil {
				return err
			}
			svg.Mark(iv.Events())
			if *cutsOn {
				a := newAnalysis()
				ic := a.Cuts(iv)
				svg.AddCut("∩⇓X", ic.InterDown).AddCut("∪⇓X", ic.UnionDown).
					AddCut("∩⇑X", ic.InterUp).AddCut("∪⇑X", ic.UnionUp)
			}
		}
		if err := os.WriteFile(*svgPath, []byte(svg.Render()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *svgPath)
		return nil
	}

	if *timeline {
		tl := render.NewTimeline(ex)
		if *ivName != "" {
			iv, err := f.Interval(ex, *ivName)
			if err != nil {
				return err
			}
			tl.Mark(iv.Events(), '@')
			if *proxies {
				tl.Mark(iv.PerNodeLeast(), 'L')
				tl.Mark(iv.PerNodeGreatest(), 'U')
			}
			if *cutsOn {
				a := newAnalysis()
				ic := a.Cuts(iv)
				tl.AddCut("∩⇓", ic.InterDown).AddCut("∪⇓", ic.UnionDown).
					AddCut("∩⇑", ic.InterUp).AddCut("∪⇑", ic.UnionUp)
			}
			fmt.Fprintf(out, "interval %s: |X|=%d, N_X=%v ('@' marks members)\n", *ivName, iv.Size(), iv.NodeSet())
		}
		// Witness marks win over path marks on shared events.
		tl.Mark(explPath, '+')
		tl.Mark(explWitness, 'W')
		fmt.Fprint(out, tl.Render())
		return nil
	}

	d := render.New(ex)
	if *ivName != "" {
		iv, err := f.Interval(ex, *ivName)
		if err != nil {
			return err
		}
		if *proxies {
			d.Mark(iv.Events(), '*')
			d.Mark(iv.PerNodeLeast(), 'L')
			d.Mark(iv.PerNodeGreatest(), 'U')
		} else {
			d.Mark(iv.Events(), '*')
		}
		if *cutsOn {
			a := newAnalysis()
			ic := a.Cuts(iv)
			d.AddCut("∩⇓", ic.InterDown).AddCut("∪⇓", ic.UnionDown).
				AddCut("∩⇑", ic.InterUp).AddCut("∪⇑", ic.UnionUp)
		}
		fmt.Fprintf(out, "interval %s: |X|=%d, N_X=%v\n", *ivName, iv.Size(), iv.NodeSet())
	}
	d.Mark(explPath, '+')
	d.Mark(explWitness, 'W')
	fmt.Fprint(out, d.Render())
	return nil
}
