// Package bench implements the experiment harness behind EXPERIMENTS.md:
// for every table and theorem of the paper it generates workloads, runs the
// evaluators, and returns the rows that cmd/benchtab prints and that the
// root-level benchmarks and integration tests assert on.
//
// Experiments (see DESIGN.md §4):
//
//	E1  Table 1     — definition vs evaluation-condition agreement
//	E3  Theorem 19  — restricted ⊀⊀ test comparison counts
//	E4  Theorem 20  — per-relation comparison counts vs bounds
//	E5  §1/§2.5     — linear vs polynomial evaluation sweep
//	E6  §2.3        — one-time setup amortization (Key Idea 1)
package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"causet/internal/core"
	"causet/internal/cuts"
	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/poset/posettest"
	"causet/internal/sim"
)

// randomCase draws a random execution and disjoint interval pair.
func randomCase(r *rand.Rand) (*core.Analysis, *interval.Interval, *interval.Interval) {
	for {
		ex := posettest.Random(r, 2+r.Intn(6), 6+r.Intn(30), 0.45)
		xe, ye := posettest.DisjointIntervals(r, ex, 6)
		if xe == nil {
			continue
		}
		return core.NewAnalysis(ex), interval.MustNew(ex, xe), interval.MustNew(ex, ye)
	}
}

// AgreementRow is one Table 1 row of experiment E1.
type AgreementRow struct {
	Relation   core.Relation
	Quantifier string
	Condition  string
	Trials     int
	Agreements int // trials where naive == proxy == fast
	HeldCount  int // trials where the relation held
}

// Table1Agreement runs E1: for each relation, the number of random instances
// on which the three evaluators agree (the paper's claim is all of them).
func Table1Agreement(trials int, seed int64) []AgreementRow {
	r := rand.New(rand.NewSource(seed))
	rows := make([]AgreementRow, 0, 8)
	for _, rel := range core.Relations() {
		rows = append(rows, AgreementRow{
			Relation:   rel,
			Quantifier: rel.Quantifier(),
			Condition:  rel.EvalCondition(),
		})
	}
	for t := 0; t < trials; t++ {
		a, x, y := randomCase(r)
		naive, proxy, fast := core.NewNaive(a), core.NewProxy(a), core.NewFast(a)
		for i, rel := range core.Relations() {
			rows[i].Trials++
			nv := naive.Eval(rel, x, y)
			pv := proxy.Eval(rel, x, y)
			fv := fast.Eval(rel, x, y)
			if nv == pv && pv == fv {
				rows[i].Agreements++
			}
			if nv {
				rows[i].HeldCount++
			}
		}
	}
	return rows
}

// Theorem19Row is one row of experiment E3: comparison counts of the
// restricted ⊀⊀(↓Y, X↑) test against its bound, per cut pairing.
type Theorem19Row struct {
	Pairing    string // e.g. "∪⇓Y vs ∩⇑X"
	Side       string // "N_X", "N_Y", or "min"
	Trials     int
	MaxCount   int64 // max comparisons observed
	Bound      int64 // max allowed over the trials
	AllCorrect bool  // restricted verdict always equals the full test
}

// Theorem19Counts runs E3 over the sound pairings (see the Theorem 19
// refinement in EXPERIMENTS.md).
func Theorem19Counts(trials int, seed int64) []Theorem19Row {
	r := rand.New(rand.NewSource(seed))
	rows := []Theorem19Row{
		{Pairing: "∩⇓Y vs ∩⇑X (R3)", Side: "N_X", AllCorrect: true},
		{Pairing: "∪⇓Y vs ∩⇑X (R4)", Side: "min", AllCorrect: true},
		{Pairing: "∪⇓Y vs ∪⇑X (R2')", Side: "N_Y", AllCorrect: true},
	}
	for t := 0; t < trials; t++ {
		a, x, y := randomCase(r)
		cx, cy := a.Cuts(x), a.Cuts(y)
		nx, ny := x.NodeSet(), y.NodeSet()
		minNodes := nx
		if len(ny) < len(nx) {
			minNodes = ny
		}
		cases := []struct {
			row        *Theorem19Row
			down, up   cuts.Cut
			nodes      []int
			boundNodes int
		}{
			{&rows[0], cy.InterDown, cx.InterUp, nx, len(nx)},
			{&rows[1], cy.UnionDown, cx.InterUp, minNodes, min(len(nx), len(ny))},
			{&rows[2], cy.UnionDown, cx.UnionUp, ny, len(ny)},
		}
		for _, c := range cases {
			var ctr cuts.Counter
			got := cuts.NotLessOn(c.down, c.up, c.nodes, &ctr)
			want := cuts.NotLess(c.down, c.up)
			c.row.Trials++
			if got != want {
				c.row.AllCorrect = false
			}
			if ctr.Count() > c.row.MaxCount {
				c.row.MaxCount = ctr.Count()
			}
			if int64(c.boundNodes) > c.row.Bound {
				c.row.Bound = int64(c.boundNodes)
			}
		}
	}
	return rows
}

// Theorem20Row is one row of experiment E4: worst-case comparisons of the
// Fast evaluator per relation against the Theorem 20 bound.
type Theorem20Row struct {
	Relation    core.Relation
	BoundExpr   string // "min(|N_X|,|N_Y|)", "|N_X|", "|N_Y|"
	Trials      int
	WithinBound int   // trials where count ≤ bound
	TightHits   int   // trials where count == bound with no early exit
	MaxCount    int64 // max comparisons observed
}

// boundExpr renders the Theorem 20 bound for a relation, including the
// reproduction's refinement for R2' and R3.
func boundExpr(rel core.Relation) string {
	switch rel {
	case core.R1, core.R1Prime, core.R4, core.R4Prime:
		return "min(|N_X|,|N_Y|)"
	case core.R2, core.R3:
		return "|N_X|"
	default:
		return "|N_Y|"
	}
}

// Theorem20Counts runs E4.
func Theorem20Counts(trials int, seed int64) []Theorem20Row {
	r := rand.New(rand.NewSource(seed))
	rows := make([]Theorem20Row, 0, 8)
	for _, rel := range core.Relations() {
		rows = append(rows, Theorem20Row{Relation: rel, BoundExpr: boundExpr(rel)})
	}
	for t := 0; t < trials; t++ {
		a, x, y := randomCase(r)
		fast := core.NewFast(a)
		for i, rel := range core.Relations() {
			held, n := fast.EvalCount(rel, x, y)
			bound := int64(rel.ComplexityBound(x.NodeCount(), y.NodeCount()))
			rows[i].Trials++
			if n <= bound {
				rows[i].WithinBound++
			}
			exhaustive := held
			switch rel {
			case core.R2Prime, core.R3, core.R4, core.R4Prime:
				exhaustive = !held
			}
			if exhaustive && n == bound {
				rows[i].TightHits++
			}
			if n > rows[i].MaxCount {
				rows[i].MaxCount = n
			}
		}
	}
	return rows
}

// SweepRow is one point of experiment E5: average comparison counts and
// wall-clock time per evaluator at |N_X| = |N_Y| = N.
type SweepRow struct {
	N          int
	NaiveCmp   float64
	ProxyCmp   float64
	FastCmp    float64
	NaiveNsOp  float64
	ProxyNsOp  float64
	FastNsOp   float64
	SpeedupPxF float64 // ProxyNsOp / FastNsOp
}

// ComplexitySweep runs E5: for each N it builds a 4-round ring execution on
// N processes and takes the 2-events-per-node span pair, so |N_X| = |N_Y| =
// N while |X| = |Y| = 2N. X is round 0 and Y is round 3 of the token ring,
// with full rounds between them, so R1 (and the rest of the hierarchy)
// holds and the ∀-shaped evaluations run to completion: the naive cost is
// the full |X|·|Y|, the proxy cost the full |N_X|·|N_Y|, and the fast cost
// the Theorem 20 bound — the paper's worst-case comparison counts. It
// measures comparisons and nanoseconds per full 8-relation evaluation.
// Timing excludes the one-time Analysis setup, which E6 measures
// separately.
func ComplexitySweep(ns []int, reps int, seed int64) []SweepRow {
	return ComplexitySweepObs(ns, reps, seed, nil, nil)
}

// ComplexitySweepObs is ComplexitySweep with every per-size Analysis
// instrumented against reg and tr (either may be nil): the registry
// accumulates the comparison-accounting counters (core.<eval>.comparisons
// and friends) across the whole sweep, which benchtab -json snapshots into
// its report.
func ComplexitySweepObs(ns []int, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) []SweepRow {
	rows := make([]SweepRow, 0, len(ns))
	for _, n := range ns {
		res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: n, Rounds: 4, Seed: seed})
		a := core.NewAnalysis(res.Exec)
		a.Instrument(reg, tr)
		xe, ye, err := sim.SpanPair(res.Exec, 2)
		if err != nil {
			panic(err)
		}
		x := interval.MustNew(res.Exec, xe)
		y := interval.MustNew(res.Exec, ye)
		a.Cuts(x) // warm the Key Idea 1 cache so timing isolates evaluation
		a.Cuts(y)
		row := SweepRow{N: n}
		evals := []struct {
			e   core.Evaluator
			cmp *float64
			ns  *float64
		}{
			{core.NewNaive(a), &row.NaiveCmp, &row.NaiveNsOp},
			{core.NewProxy(a), &row.ProxyCmp, &row.ProxyNsOp},
			{core.NewFast(a), &row.FastCmp, &row.FastNsOp},
		}
		for _, ev := range evals {
			var total int64
			start := time.Now()
			for rep := 0; rep < reps; rep++ {
				for _, rel := range core.Relations() {
					_, n := ev.e.EvalCount(rel, x, y)
					total += n
				}
			}
			elapsed := time.Since(start)
			*ev.cmp = float64(total) / float64(reps)
			*ev.ns = float64(elapsed.Nanoseconds()) / float64(reps)
		}
		row.SpeedupPxF = row.ProxyNsOp / row.FastNsOp
		rows = append(rows, row)
	}
	return rows
}

// AmortRow is one point of experiment E6: cost of the one-time timestamp and
// cut setup versus the per-pair evaluation cost it enables.
type AmortRow struct {
	Procs       int
	Events      int
	SetupNs     float64 // median of core.NewAnalysis + both intervals' cut builds
	PerPairNs   float64 // median of one 8-relation Fast evaluation
	BreakEvenAt int     // pairs after which setup is amortized below 50% of total
}

// SetupAmortization runs E6 on ring workloads of growing size. The set-up is
// core.NewAnalysis (the forward and reverse timestamp passes) plus the cut
// builds of both intervals, on a fresh Analysis each time, so every build is
// cold. Generating the workloads, choosing the pairs and validating the
// intervals come first and are outside the timing. Then each round times
// every size once, set-up and then 200 evaluations of the pair, for at
// least 40 rounds and at least 200 ms; both columns are each size's medians
// over the rounds. A cell is microseconds long, so interleaving the sizes
// spreads each one's samples over the whole run instead of a few
// milliseconds of whatever else the host does.
func SetupAmortization(sizes []int, seed int64) []AmortRow {
	type input struct {
		ex             *poset.Execution
		x, y           *interval.Interval
		setup, perPair []time.Duration // perPair: reps evaluations
	}
	in := make([]input, len(sizes))
	for k, n := range sizes {
		res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: n, Rounds: 4, Seed: seed})
		xe, ye, err := sim.ExtremalPair(res.Exec)
		if err != nil {
			panic(err)
		}
		in[k] = input{ex: res.Exec, x: interval.MustNew(res.Exec, xe), y: interval.MustNew(res.Exec, ye)}
	}
	const reps = 200
	for rounds, begin := 0, time.Now(); rounds < 40 || time.Since(begin) < 200*time.Millisecond; rounds++ {
		for k := range in {
			c := &in[k]
			start := time.Now()
			a := core.NewAnalysis(c.ex)
			a.Cuts(c.x)
			a.Cuts(c.y)
			c.setup = append(c.setup, time.Since(start))
			fast := core.NewFast(a)
			start = time.Now()
			for rep := 0; rep < reps; rep++ {
				for _, rel := range core.Relations() {
					fast.Eval(rel, c.x, c.y)
				}
			}
			c.perPair = append(c.perPair, time.Since(start))
		}
	}
	median := func(ts []time.Duration) float64 {
		slices.Sort(ts)
		return float64(ts[len(ts)/2].Nanoseconds())
	}
	rows := make([]AmortRow, 0, len(sizes))
	for k, c := range in {
		row := AmortRow{
			Procs:     sizes[k],
			Events:    c.ex.NumEvents(),
			SetupNs:   median(c.setup),
			PerPairNs: median(c.perPair) / reps,
		}
		if row.PerPairNs > 0 {
			row.BreakEvenAt = int(row.SetupNs/row.PerPairNs) + 1
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable renders rows of cells as an aligned text table with a header.
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, c := range row {
			if w := len([]rune(c)); i < len(width) && w > width[i] {
				width[i] = w
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := width[i] - len([]rune(c)); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	total := len(width) - 1
	for _, w := range width {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}
