// Package batch evaluates large sets of relation queries concurrently
// against one shared core.Analysis — the serving layer the ROADMAP's
// heavy-traffic goal needs on top of the paper's per-query linearity
// (Theorems 19–20). Three workload shapes are supported:
//
//   - EvalQueries: a flat list of (relation, X, Y) triples;
//   - Profiles: the full 32-relation set ℛ per interval pair;
//   - Matrix: the all-pairs strongest-relation matrix (Problem 4(ii)),
//     decided on the fast evaluator by a per-node threshold sweep over
//     column bitsets (sweep.go).
//
// Results are deterministic — results[i] always answers queries[i] and is
// bit-identical regardless of worker count — while the per-worker
// comparison/held/error counters are aggregated into a single Stats via
// atomics. The shared Analysis is safe because its cut cache is a sync.Map
// of build-once slots: hits take no lock, and concurrent cold queries on
// one interval coalesce into one build. Intervals may belong to the
// engine's execution or to a prefix of it (poset.Prefix), such as an
// earlier snapshot of one online stream.
package batch

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/poset"
)

// chunk is the work-stealing granule: workers claim runs of this many items
// off an atomic cursor, large enough to amortize the claim, small enough to
// balance uneven per-query cost (early exits, cold cut builds).
const chunk = 32

// Options configures an Engine.
type Options struct {
	// Workers is the pool size; values < 1 (and 1 itself) select the
	// serial path — the engine then evaluates inline on the caller's
	// goroutine with zero scheduling overhead, which is the baseline the
	// parallel sweep (EXPERIMENTS.md E7) compares against.
	Workers int
	// NewEvaluator builds one evaluator per worker (they are cheap and
	// stateless, but giving each worker its own keeps the contract local).
	// nil selects core.NewFast.
	NewEvaluator func(*core.Analysis) core.Evaluator
	// Metrics, when non-nil, receives the engine's cumulative counters
	// (batch.batches, batch.queries, batch.held, batch.errors,
	// batch.comparisons, batch.sweep_words) and latency/size histograms
	// (batch.batch_ns, batch.batch_queries). The per-batch Stats views
	// returned by the evaluation methods are unchanged; the registry
	// aggregates across batches and engines sharing it.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one "batch" span per batch run plus one
	// span per worker goroutine (tid = worker index + 1), in Chrome
	// trace_event form. Matrix's cut pre-pass records worker spans only;
	// its sweep records one batch span around worker spans for the node
	// sorts and for the planes and cell fill.
	Tracer *obs.Tracer
}

// engineObs holds the engine's pre-interned instruments; all nil when no
// registry was configured (every record is then a no-op).
type engineObs struct {
	batches      *obs.Counter
	queries      *obs.Counter
	held         *obs.Counter
	errors       *obs.Counter
	comparisons  *obs.Counter
	sweepWords   *obs.Counter
	batchNs      *obs.Histogram
	batchQueries *obs.Histogram
}

// Engine evaluates query batches against one execution's Analysis.
type Engine struct {
	a       *core.Analysis
	workers int
	newEval func(*core.Analysis) core.Evaluator
	fused   bool // Profiles use the fused kernel, Matrix the sweep (see New)
	met     engineObs
	tr      *obs.Tracer
}

// New returns an engine over a with the given options. When the evaluator
// is a *core.FastEvaluator, Profiles use the fused profile kernel
// (core.EvalProfile) and Matrix the per-node sweep, both of which implement
// that evaluator's conditions; engines over the naive or proxy evaluator
// run one EvalCount per relation, keeping that evaluator's cost model.
func New(a *core.Analysis, opts Options) *Engine {
	w := opts.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	ne := opts.NewEvaluator
	if ne == nil {
		ne = func(a *core.Analysis) core.Evaluator { return core.NewFast(a) }
	}
	_, fused := ne(a).(*core.FastEvaluator)
	e := &Engine{a: a, workers: w, newEval: ne, fused: fused, tr: opts.Tracer}
	if reg := opts.Metrics; reg != nil {
		e.met = engineObs{
			batches:      reg.Counter("batch.batches"),
			queries:      reg.Counter("batch.queries"),
			held:         reg.Counter("batch.held"),
			errors:       reg.Counter("batch.errors"),
			comparisons:  reg.Counter("batch.comparisons"),
			sweepWords:   reg.Counter("batch.sweep_words"),
			batchNs:      reg.Histogram("batch.batch_ns", obs.DurationBuckets),
			batchQueries: reg.Histogram("batch.batch_queries", obs.SizeBuckets),
		}
	}
	return e
}

// Workers reports the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// Query is one relation query: does Rel(X, Y) hold?
type Query struct {
	Rel  core.Relation
	X, Y *interval.Interval
}

// Result answers one Query.
type Result struct {
	// Held is the verdict; false when Err is non-nil.
	Held bool
	// Comparisons is the number of integer comparisons spent (the paper's
	// cost model), 0 when Err is non-nil.
	Comparisons int64
	// Err is non-nil for rejected queries: *core.ErrOverlap for
	// overlapping pairs, or a foreign-execution error.
	Err error
}

// Stats aggregates the counters of one batch. It is the per-batch view of
// the engine's accounting; an engine configured with Options.Metrics also
// feeds the same tallies, cumulatively, into registry counters of the same
// names (batch.queries, batch.held, batch.errors, batch.comparisons,
// batch.sweep_words).
type Stats struct {
	Queries int64
	Held    int64
	Errors  int64
	// Comparisons is the integer comparisons spent: Theorem 19/20 node
	// checks per query or pair, or, for Matrix on the fast evaluator, the
	// sweep's threshold comparisons (one per merge step of a row order
	// against a column order).
	Comparisons int64
	// SweepWords is the 64-bit words Matrix's sweep ANDed or ORed into its
	// relation planes; 0 on every other path.
	SweepWords int64
}

// add merges a worker-local tally into the shared stats with atomics.
func (s *Stats) add(local Stats) {
	atomic.AddInt64(&s.Queries, local.Queries)
	atomic.AddInt64(&s.Held, local.Held)
	atomic.AddInt64(&s.Errors, local.Errors)
	atomic.AddInt64(&s.Comparisons, local.Comparisons)
	atomic.AddInt64(&s.SweepWords, local.SweepWords)
}

// Results is one evaluated batch: Results[i] answers Queries[i].
type Results struct {
	Queries []Query
	Results []Result
	Stats   Stats
}

// owns reports whether iv belongs to the engine's execution or to a prefix
// of it — the intervals core.Analysis.Cuts accepts.
func (e *Engine) owns(iv *interval.Interval) bool {
	return poset.Prefix(iv.Execution(), e.a.Execution())
}

// evalOne answers q into r and tallies into the worker-local st.
func (e *Engine) evalOne(ev core.Evaluator, q Query, r *Result, st *Stats) {
	st.Queries++
	if !e.owns(q.X) || !e.owns(q.Y) {
		r.Err = fmt.Errorf("batch: interval from a different execution")
		st.Errors++
		return
	}
	if q.X.Overlaps(q.Y) {
		r.Err = &core.ErrOverlap{X: q.X, Y: q.Y}
		st.Errors++
		return
	}
	r.Held, r.Comparisons = ev.EvalCount(q.Rel, q.X, q.Y)
	st.Comparisons += r.Comparisons
	if r.Held {
		st.Held++
	}
}

// run distributes n items over the pool. Each worker claims chunks off an
// atomic cursor and calls do with a worker-local evaluator; with a pool
// size of 1 it degenerates to an inline loop on the caller's goroutine.
// When the engine is instrumented, the batch is wrapped in a tracer span
// (one sub-span per worker) and the totals are published to the registry
// after the barrier.
func (e *Engine) run(n int, do func(ev core.Evaluator, i int, st *Stats)) Stats {
	return e.batch(func() Stats { return e.runPool(n, do) })
}

// batch runs one batch body inside the engine's batch span and publishes
// the totals it returns to the registry.
func (e *Engine) batch(body func() Stats) Stats {
	sp := e.tr.Begin("batch", "batch")
	var t0 time.Time
	if e.met.batchNs != nil {
		t0 = time.Now()
	}
	total := body()
	if e.met.batchNs != nil {
		e.met.batchNs.Observe(time.Since(t0).Nanoseconds())
	}
	sp.End()
	e.met.batches.Add(1)
	e.met.batchQueries.Observe(total.Queries)
	e.met.queries.Add(total.Queries)
	e.met.held.Add(total.Held)
	e.met.errors.Add(total.Errors)
	e.met.comparisons.Add(total.Comparisons)
	e.met.sweepWords.Add(total.SweepWords)
	return total
}

func (e *Engine) runPool(n int, do func(ev core.Evaluator, i int, st *Stats)) Stats {
	var total Stats
	workers := e.workers
	if n <= chunk {
		workers = 1
	}
	var cursor atomic.Int64
	e.spread(workers, func(int) {
		ev := e.newEval(e.a)
		var local Stats
		for {
			lo := int(cursor.Add(chunk)) - chunk
			if lo >= n {
				break
			}
			for i := lo; i < min(lo+chunk, n); i++ {
				do(ev, i, &local)
			}
		}
		total.add(local)
	})
	return total
}

// spread runs fn(w) for every w < workers and waits for all of them: inline
// on the caller's goroutine for one worker, else on one goroutine per
// worker, each recorded as a "worker" span (tid = w + 1).
func (e *Engine) spread(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := e.tr.BeginTID("batch", "worker", int64(w)+1)
			defer wsp.End()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// EvalQueries answers every query in qs. Result order matches query order
// and each result is independent of the worker count.
func (e *Engine) EvalQueries(qs []Query) *Results {
	res := &Results{Queries: qs, Results: make([]Result, len(qs))}
	res.Stats = e.run(len(qs), func(ev core.Evaluator, i int, st *Stats) {
		e.evalOne(ev, qs[i], &res.Results[i], st)
	})
	return res
}

// PairQueries expands ordered interval pairs × relations into a flat query
// list, pairs-major in the given order — the canonical many-query workload.
func PairQueries(pairs []Pair, rels []core.Relation) []Query {
	qs := make([]Query, 0, len(pairs)*len(rels))
	for _, p := range pairs {
		for _, rel := range rels {
			qs = append(qs, Query{Rel: rel, X: p.X, Y: p.Y})
		}
	}
	return qs
}

// Pair is one ordered interval pair (X related to Y).
type Pair struct {
	X, Y *interval.Interval
}

// Profile reports which members of the 32-relation set ℛ hold for one pair,
// under the per-node proxies of Definition 2.
type Profile struct {
	Pair Pair
	// Holding lists the relations that hold, in core.AllRel32 order.
	Holding []core.Rel32
	// Bits has bit i set iff core.AllRel32()[i] holds — a compact
	// fingerprint for deduplicating profiles at scale.
	Bits uint32
	// Err is non-nil when the pair was rejected (overlap or foreign
	// execution); Holding is empty then.
	Err error
}

// Profiles evaluates the full relation set ℛ for every pair. Profile order
// matches pair order.
//
// With the fast evaluator each pair runs through the fused profile kernel:
// one shared pass per proxy pairing over cuts cached once per interval
// (core.EvalProfile), instead of 32 independent scans — same verdicts, a
// fraction of the comparisons, zero allocations per pair beyond the Holding
// slice. Other evaluators scan the 32 relations one by one.
func (e *Engine) Profiles(pairs []Pair) ([]Profile, Stats) {
	out := make([]Profile, len(pairs))
	all := core.AllRel32()
	stats := e.run(len(pairs), func(ev core.Evaluator, i int, st *Stats) {
		p := pairs[i]
		out[i].Pair = p
		st.Queries++
		if !e.owns(p.X) || !e.owns(p.Y) {
			out[i].Err = fmt.Errorf("batch: interval from a different execution")
			st.Errors++
			return
		}
		if p.X.Overlaps(p.Y) {
			out[i].Err = &core.ErrOverlap{X: p.X, Y: p.Y}
			st.Errors++
			return
		}
		if e.fused {
			mask, checks := e.a.EvalProfile(p.X, p.Y)
			out[i].Bits = mask
			out[i].Holding = core.MaskHolding(mask)
			st.Held += int64(len(out[i].Holding))
			st.Comparisons += checks
			return
		}
		for bit, r := range all {
			held, checks, err := e.a.EvalRel32Count(ev, r, p.X, p.Y, interval.DefPerNode)
			if err != nil {
				// Per-node proxies of valid intervals are never empty.
				panic(err)
			}
			st.Comparisons += checks
			if held {
				out[i].Holding = append(out[i].Holding, r)
				out[i].Bits |= 1 << uint(bit)
				st.Held++
			}
		}
	})
	return out, stats
}

// Matrix computes the strongest-relation pair matrix over the named
// intervals — the parallel counterpart of hierarchy.Summarize, cell-for-cell
// identical to it. names and ivs run in parallel; every interval must belong
// to the engine's execution or to a prefix of it, and the first that does
// not is named in the error. With the fast evaluator the matrix comes from
// the per-node threshold sweep (sweepMatrix) over cuts resolved once per
// interval in a parallel pre-pass; other evaluators scan the six canonical
// relations cell by cell. Either way each cell is finalized through
// hierarchy.StrongestOf, so cells share its interned slices.
func (e *Engine) Matrix(names []string, ivs []*interval.Interval) (*hierarchy.PairMatrix, Stats, error) {
	if len(names) != len(ivs) {
		return nil, Stats{}, fmt.Errorf("batch: %d names for %d intervals", len(names), len(ivs))
	}
	for i, iv := range ivs {
		if !e.owns(iv) {
			return nil, Stats{}, fmt.Errorf("batch: interval %q from a different execution", names[i])
		}
	}
	n := len(ivs)
	pm := &hierarchy.PairMatrix{
		Names: append([]string(nil), names...),
		Cells: make([][]hierarchy.Cell, n),
	}
	if e.fused {
		return pm, e.sweepMatrix(pm, ivs), nil
	}
	for i := range pm.Cells {
		pm.Cells[i] = make([]hierarchy.Cell, n)
	}
	stats := e.run(n*n, func(ev core.Evaluator, k int, st *Stats) {
		i, j := k/n, k%n
		if i == j {
			return
		}
		x, y := ivs[i], ivs[j]
		st.Queries++
		if x.Overlaps(y) {
			pm.Cells[i][j] = hierarchy.Cell{Overlap: true}
			return
		}
		var verdicts uint8
		for _, rel := range canonical {
			ok, cmp := ev.EvalCount(rel, x, y)
			st.Comparisons += cmp
			if ok {
				verdicts |= 1 << uint(rel)
			}
		}
		st.Held += int64(bits.OnesCount8(verdicts))
		pm.Cells[i][j] = hierarchy.Cell{Strongest: hierarchy.StrongestOf(verdicts)}
	})
	return pm, stats, nil
}

// canonical lists the relations a matrix cell reports: R1 and R4, never
// their equivalent primes.
var canonical = hierarchy.Canonical()
