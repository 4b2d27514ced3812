package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"causet/internal/batch"
	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/trace"
)

// offlineWorkload is offline-matrix: the JSON bytes of a recorded gossip
// trace with one named interval per round, and the oracle's matrix.
type offlineWorkload struct {
	input      []byte
	workers    int
	pairs      int
	expect     []uint16 // oracle cell masks, row-major
	spotted    int      // naive spot-sample pairs checked
	spotFailed int      // of which the naive evaluator disagreed
}

// cellMask encodes a matrix cell: bit r for each strongest relation r,
// bit 8 for an overlapping pair.
func cellMask(c hierarchy.Cell) uint16 {
	if c.Overlap {
		return 1 << 8
	}
	var m uint16
	for _, r := range c.Strongest {
		m |= 1 << uint(r)
	}
	return m
}

// gossipTrace generates the offline-matrix input: a sim.Gossip execution,
// each round a named interval, encoded as trace JSON.
func gossipTrace(procs, rounds int, seed int64) ([]byte, error) {
	res, err := sim.Generate(sim.Config{Pattern: sim.Gossip, Procs: procs, Rounds: rounds, Seed: seed})
	if err != nil {
		return nil, err
	}
	named := make(map[string][]poset.EventID, len(res.Phases))
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	var buf bytes.Buffer
	if err := trace.New(res.Exec, named).WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loaded is a decoded trace ready for matrix jobs.
type loaded struct {
	a     *core.Analysis
	names []string
	ivs   []*interval.Interval
}

// load runs the offline set-up path: decode, execution build, analysis,
// intervals. With st non-nil each step is recorded as a span of event.
func load(input []byte, reg *obs.Registry, st *spanSet, event int) (*loaded, error) {
	step := func(name string, t0 time.Time) {
		if st != nil {
			st.step(name, t0, event)
		}
	}
	t0 := time.Now()
	f, err := trace.ReadJSON(bytes.NewReader(input))
	if err != nil {
		return nil, err
	}
	step("trace.decode", t0)
	t0 = time.Now()
	ex, err := f.Execution()
	if err != nil {
		return nil, err
	}
	step("poset.build", t0)
	t0 = time.Now()
	a := core.NewAnalysis(ex)
	a.Instrument(reg, nil)
	step("core.analysis", t0)
	t0 = time.Now()
	ivMap, err := f.AllIntervals(ex)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ivMap))
	for name := range ivMap {
		names = append(names, name)
	}
	sort.Strings(names)
	ivs := make([]*interval.Interval, len(names))
	for i, name := range names {
		ivs[i] = ivMap[name]
	}
	step("interval.build", t0)
	return &loaded{a: a, names: names, ivs: ivs}, nil
}

// matrixOracle computes the expected cells with serial hierarchy.Summarize
// over the per-relation fast evaluator on a separately decoded trace, then
// checks a seeded sample of pairs with the naive evaluator, counting
// disagreements.
func (w *offlineWorkload) matrixOracle(seed int64, spots int) error {
	ld, err := load(w.input, nil, nil, 0)
	if err != nil {
		return err
	}
	pm, err := hierarchy.Summarize(ld.a, core.NewFast(ld.a), ld.names, ld.ivs)
	if err != nil {
		return err
	}
	n := len(ld.ivs)
	w.pairs = n * (n - 1)
	w.expect = make([]uint16, n*n)
	for i := range pm.Cells {
		for j, c := range pm.Cells[i] {
			w.expect[i*n+j] = cellMask(c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	naive := core.NewNaive(ld.a)
	for k := 0; k < spots; k++ {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		x, y := ld.ivs[i], ld.ivs[j]
		cell := hierarchy.Cell{Overlap: x.Overlaps(y)}
		if !cell.Overlap {
			var held []core.Relation
			for _, rel := range hierarchy.Canonical() {
				if naive.Eval(rel, x, y) {
					held = append(held, rel)
				}
			}
			cell.Strongest = hierarchy.Strongest(held)
		}
		if cellMask(cell) != w.expect[i*n+j] {
			w.spotFailed++
		}
		w.spotted++
	}
	return nil
}

// offlineRep is the outcome of one offline-matrix repetition.
type offlineRep struct {
	setup    time.Duration
	job      time.Duration // the Matrix call (traced: cold cuts + warm Matrix)
	heapPeak uint64
	failed   int
	hash     uint64
	counts   map[string]int64
	mallocs  uint64 // heap allocations in the Matrix call
	gcShare  float64

	// traced only
	cutBuild   time.Duration
	matrixWarm time.Duration
	busy       time.Duration // sum of the engine's worker spans
	window     time.Duration // set-up through the Matrix call
}

// runRep runs one repetition: timed set-up, then one Matrix call with the
// worker pool and a registry attached. Traced, the cold cut builds are timed
// apart from a warm Matrix call, and every step is recorded in st as a
// span of event, the repetition's number.
func (w *offlineWorkload) runRep(st *spanSet, event int) (offlineRep, error) {
	var rep offlineRep
	baseline := liveHeap()
	reg := obs.New()
	t0 := time.Now()
	ld, err := load(w.input, reg, st, event)
	if err != nil {
		return rep, err
	}
	rep.setup = time.Since(t0)

	opts := batch.Options{Workers: w.workers, Metrics: reg}
	var tr *obs.Tracer
	if st != nil {
		tr = obs.NewTracer()
		opts.Tracer = tr
		c0 := time.Now()
		for _, iv := range ld.ivs {
			ld.a.Cuts(iv)
		}
		rep.cutBuild = st.step("core.cut_build", c0, event)
	}
	eng := batch.New(ld.a, opts)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCCPU()
	t1 := time.Now()
	pm, _, err := eng.Matrix(ld.names, ld.ivs)
	job := time.Since(t1)
	if st != nil {
		st.record(st.stat("batch.matrix_warm"), "batch.matrix_warm", t1, job, event)
	}
	gc1 := readGCCPU()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return rep, err
	}
	rep.gcShare = gc1.share(gc0)
	rep.mallocs = ms1.Mallocs - ms0.Mallocs
	rep.job = job
	if st != nil {
		rep.matrixWarm = job
		rep.job = rep.cutBuild + job
		rep.window = time.Since(t0)
		busy, err := workerBusy(tr)
		if err != nil {
			return rep, err
		}
		rep.busy = busy
	}
	rep.heapPeak = heapPeak(baseline, 0)
	rep.counts = reg.Snapshot().Counters

	n := len(ld.ivs)
	cells := make([]uint16, 0, n*n)
	for i := range pm.Cells {
		for j, c := range pm.Cells[i] {
			m := cellMask(c)
			cells = append(cells, m)
			if m != w.expect[i*n+j] {
				rep.failed++
			}
		}
	}
	rep.hash = cellHash(cells)
	return rep, nil
}

func cellHash(cells []uint16) uint64 {
	b := make([]uint8, 2*len(cells))
	for i, c := range cells {
		b[2*i], b[2*i+1] = uint8(c), uint8(c>>8)
	}
	return verdictHash(b)
}

// workerBusy sums the batch engine's per-worker spans from its tracer.
func workerBusy(tr *obs.Tracer) (time.Duration, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, err
	}
	var us float64
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "batch" && ev.Name == "worker" {
			us += ev.Dur
		}
	}
	return time.Duration(us * 1e3), nil
}
