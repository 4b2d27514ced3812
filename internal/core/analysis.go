package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"causet/internal/cuts"
	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/vclock"
)

// cacheEntry is one slot of the cut cache. The sync.Once gives the
// build-once guarantee: however many goroutines race on a cold interval,
// exactly one executes buildCuts and the rest block until it is published.
// The two proxy slots hold the interval's materialized per-node proxies
// (L_X, U_X) and THEIR cuts, built lazily with the same guarantee — the
// fused profile kernel reads them once per interval instead of once per
// pair (see EvalProfile).
type cacheEntry struct {
	once sync.Once
	ic   *IntervalCuts

	proxyOnce [2]sync.Once // indexed by interval.ProxyKind
	proxy     [2]*ProxyCuts
}

// Analysis is the per-execution precomputation shared by the evaluators:
// the forward/reverse timestamp structure of Section 2.3 plus a cache of
// the condensed cuts of each interval (Key Idea 1 — the cuts of a nonatomic
// event are computed once and reused against many other events, and against
// many concurrent queriers).
//
// An Analysis is safe for concurrent use after construction.
type Analysis struct {
	ex  *poset.Execution
	clk *vclock.Clocks

	cache       sync.Map // *interval.Interval → *cacheEntry
	builds      atomic.Int64
	proxyBuilds atomic.Int64

	met analysisObs
}

// evalKind indexes analysisObs.evals; it matches Evaluator.Name order.
type evalKind int

const (
	evalNaive evalKind = iota
	evalProxy
	evalFast
	numEvalKinds
)

// EvalCounters holds the pre-interned comparison-accounting instruments of
// one evaluator: core.<eval>.evals, core.<eval>.comparisons and its
// per-relation split. Its zero value, and a nil *EvalCounters, record
// nothing, so Record degrades to a few nil checks per evaluation.
type EvalCounters struct {
	evals       *obs.Counter
	comparisons *obs.Counter
	perRel      [numRelations]*obs.Counter
}

// NewEvalCounters interns the instruments of the named evaluator ("naive",
// "proxy" or "fast") on reg, which may be nil. The online monitor, which
// decides atoms without an Analysis, records on NewEvalCounters(reg,
// "fast").
func NewEvalCounters(reg *obs.Registry, eval string) EvalCounters {
	if reg == nil {
		return EvalCounters{}
	}
	c := EvalCounters{
		evals:       reg.Counter("core." + eval + ".evals"),
		comparisons: reg.Counter("core." + eval + ".comparisons"),
	}
	for _, rel := range Relations() {
		c.perRel[rel] = reg.Counter("core." + eval + ".comparisons." + rel.String())
	}
	return c
}

// Record tallies one evaluation of rel: the evaluation itself, its total
// comparison spend, and the per-relation spend the Theorem 19/20 bound
// tables read back out of a registry snapshot.
func (m *EvalCounters) Record(rel Relation, checks int64) {
	if m == nil {
		return
	}
	m.evals.Add(1)
	m.comparisons.Add(checks)
	m.perRel[rel].Add(checks)
}

// analysisObs is the instrumentation of one Analysis; its zero value (the
// uninstrumented state) makes every record call a nil-receiver no-op.
type analysisObs struct {
	tracer     *obs.Tracer
	cutBuilds  *obs.Counter
	cutBuildNs *obs.Histogram
	evals      [numEvalKinds]EvalCounters

	// Fused-kernel instruments (see EvalProfile / EvalTable1): profile
	// and Table-1 evaluations plus their total comparison spend. Shared
	// comparisons make a per-relation split ill-defined for the fused path,
	// so only the totals are tracked — the per-relation counters above stay
	// exact for the per-relation evaluators.
	fusedProfiles    *obs.Counter
	fusedTable1      *obs.Counter
	fusedComparisons *obs.Counter
	proxyCutBuilds   *obs.Counter

	// Witness extractions (the cold explanation path; see witness.go).
	witnessExtractions *obs.Counter
}

// Instrument attaches a metrics registry and/or execution tracer to the
// analysis. Either may be nil. The registry receives, cumulatively:
//
//	core.cut_builds                      distinct intervals whose cuts were built
//	core.cut_build_ns                    histogram of cut-construction latency
//	core.proxy_cut_builds                proxy intervals whose cuts were built (fused kernel)
//	core.<eval>.evals                    EvalCount calls per evaluator
//	core.<eval>.comparisons              integer comparisons per evaluator
//	core.<eval>.comparisons.<relation>   the same, split by Table 1 relation
//	core.fused.profiles                  fused 32-relation profile evaluations
//	core.fused.table1_evals              fused 8-relation Table 1 evaluations
//	core.fused.comparisons               total comparisons spent by the fused kernel
//	core.witness_extractions             EvalWitness calls (the explanation path)
//
// for <eval> ∈ {naive, proxy, fast} — the paper's cost model (Theorems
// 19–20) as live counters. The tracer records one "cut-build" span per cut
// construction. Call Instrument before sharing the Analysis across
// goroutines; it is not synchronized with concurrent evaluations.
func (a *Analysis) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	a.met.tracer = tr
	if reg == nil {
		return
	}
	a.met.cutBuilds = reg.Counter("core.cut_builds")
	a.met.cutBuildNs = reg.Histogram("core.cut_build_ns", obs.DurationBuckets)
	a.met.proxyCutBuilds = reg.Counter("core.proxy_cut_builds")
	a.met.fusedProfiles = reg.Counter("core.fused.profiles")
	a.met.fusedTable1 = reg.Counter("core.fused.table1_evals")
	a.met.fusedComparisons = reg.Counter("core.fused.comparisons")
	a.met.witnessExtractions = reg.Counter("core.witness_extractions")
	for k, name := range [numEvalKinds]string{"naive", "proxy", "fast"} {
		a.met.evals[k] = NewEvalCounters(reg, name)
	}
}

// FastCounters returns the analysis's core.fast.* instruments (see
// Instrument), for callers that run the Theorem 20 kernel on its cuts
// through EvalCuts.
func (a *Analysis) FastCounters() *EvalCounters { return &a.met.evals[evalFast] }

// NewAnalysis computes the timestamp structure for ex. This is the one-time
// setup cost whose amortization experiment E6 measures.
func NewAnalysis(ex *poset.Execution) *Analysis {
	return &Analysis{ex: ex, clk: vclock.New(ex)}
}

// NewAnalysisClocks builds an Analysis over ex with caller-supplied clocks
// and an empty cut cache. The online stream's cold Snapshot pairs it with
// vclock.NewRebased over rows copied out of the stream, so the Analysis
// reads nothing the stream later changes.
func NewAnalysisClocks(ex *poset.Execution, clk *vclock.Clocks) *Analysis {
	return &Analysis{ex: ex, clk: clk}
}

// Execution returns the analyzed execution.
func (a *Analysis) Execution() *poset.Execution { return a.ex }

// Clocks returns the timestamp structure.
func (a *Analysis) Clocks() *vclock.Clocks { return a.clk }

// IntervalCuts condenses the causality information of one interval X into
// the four cuts of Table 2 plus the per-node extremal positions used by the
// per-event tests of Theorem 20. Construction costs O(|N_X|·|P|); every
// field is immutable afterwards.
type IntervalCuts struct {
	InterDown cuts.Cut // C1(X) = ∩⇓X
	UnionDown cuts.Cut // C2(X) = ∪⇓X
	InterUp   cuts.Cut // C3(X) = ∩⇑X
	UnionUp   cuts.Cut // C4(X) = ∪⇑X

	// FirstPos[i] / LastPos[i] are the positions of the interval's earliest
	// and latest events on node i, or -1 when the interval has no event
	// there. These are the timestamps of the single-event cuts ↓x and x↑ at
	// the event's own node, which is all the per-event tests of Theorem 20
	// consult.
	FirstPos, LastPos []int
}

// entry returns iv's cache slot, reserving an empty one on first use. A hit
// is one lock-free Load; a miss races a fresh slot in with LoadOrStore, so
// every caller gets the one slot that won.
func (a *Analysis) entry(iv *interval.Interval) *cacheEntry {
	if e, ok := a.cache.Load(iv); ok {
		return e.(*cacheEntry)
	}
	e, _ := a.cache.LoadOrStore(iv, &cacheEntry{})
	return e.(*cacheEntry)
}

// Cuts returns the condensed cuts of iv, computing them on first use and
// caching thereafter (Key Idea 1). It panics when iv belongs to a different
// execution.
//
// The slot is reserved first (entry), then built by a singleflight on the
// slot — concurrent queries for the same cold interval build its cuts
// exactly once (CutBuilds counts), and builds of different intervals never
// serialize on each other.
func (a *Analysis) Cuts(iv *interval.Interval) *IntervalCuts {
	if !poset.Prefix(iv.Execution(), a.ex) {
		panic(fmt.Sprintf("core: interval %v belongs to a different execution", iv))
	}
	e := a.entry(iv)
	e.once.Do(func() {
		sp := a.met.tracer.Begin("core", "cut-build")
		var t0 time.Time
		if a.met.cutBuildNs != nil {
			t0 = time.Now()
		}
		e.ic = a.buildCuts(iv)
		if a.met.cutBuildNs != nil {
			a.met.cutBuildNs.Observe(time.Since(t0).Nanoseconds())
		}
		sp.End()
		a.builds.Add(1)
		a.met.cutBuilds.Add(1)
	})
	return e.ic
}

// CutBuilds reports how many IntervalCuts this Analysis has constructed —
// with the build-once guarantee it equals the number of distinct intervals
// queried, no matter how many goroutines raced on them. Proxy cuts are
// counted separately by ProxyCutBuilds.
func (a *Analysis) CutBuilds() int64 { return a.builds.Load() }

// ProxyCutBuilds reports how many proxy-cut entries (ProxyCuts calls on a
// cold (interval, kind) slot) this Analysis has constructed. With the
// build-once guarantee it is at most two per distinct interval profiled,
// regardless of how many pairs or goroutines touched the interval.
func (a *Analysis) ProxyCutBuilds() int64 { return a.proxyBuilds.Load() }

// ProxyCuts is the cached representation of one per-node proxy
// (Definition 2) of an interval: the proxy materialized as an interval plus
// its condensed cuts. Both fields are immutable after construction.
type ProxyCuts struct {
	IV   *interval.Interval
	Cuts *IntervalCuts
}

// ProxyCuts returns the cached proxy interval and proxy cuts of iv for the
// given kind (L_X or U_X, per-node Definition 2), building them on first
// use with the same build-once guarantee as Cuts. This is the
// proxy-cut reuse behind the fused profile kernel: every relation of ℛ is
// R(X̂, Ŷ) for proxies X̂, Ŷ, so caching the four proxy cut sets of a pair
// turns 32 proxy materializations + cut builds per profile into at most
// four per *interval*, amortized across all pairs that interval appears in.
func (a *Analysis) ProxyCuts(iv *interval.Interval, kind interval.ProxyKind) *ProxyCuts {
	if !poset.Prefix(iv.Execution(), a.ex) {
		panic(fmt.Sprintf("core: interval %v belongs to a different execution", iv))
	}
	e := a.entry(iv)
	e.proxyOnce[kind].Do(func() {
		sp := a.met.tracer.Begin("core", "proxy-cut-build")
		piv, err := iv.ProxyInterval(kind, interval.DefPerNode, a.clk)
		if err != nil {
			// Per-node proxies of valid intervals are never empty.
			panic(err)
		}
		pc := &ProxyCuts{IV: piv, Cuts: a.buildCuts(piv)}
		// Seed the main cut cache for the proxy interval, so a later
		// Cuts(piv) — e.g. a per-relation evaluator run on the cached
		// proxies via EvalRel32 — reuses this build instead of repeating it.
		pe := a.entry(piv)
		pe.once.Do(func() { pe.ic = pc.Cuts })
		e.proxy[kind] = pc
		sp.End()
		a.proxyBuilds.Add(1)
		a.met.proxyCutBuilds.Add(1)
	})
	return e.proxy[kind]
}

// buildCuts constructs the cuts from the per-node extrema only: as observed
// at the end of Section 2.3, for C1/C3 it suffices to fold over the least
// element of X on each node, and for C2/C4 over the greatest, giving the
// |N_X|·|P| construction cost (|N_X|² over the relevant components).
func (a *Analysis) buildCuts(iv *interval.Interval) *IntervalCuts {
	least := iv.PerNodeLeast()
	greatest := iv.PerNodeGreatest()
	n := a.ex.NumProcs()
	ic := &IntervalCuts{
		InterDown: cuts.IntersectDown(a.clk, least),
		UnionDown: cuts.UnionDown(a.clk, greatest),
		InterUp:   cuts.IntersectUp(a.clk, least),
		UnionUp:   cuts.UnionUp(a.clk, greatest),
		FirstPos:  make([]int, n),
		LastPos:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		ic.FirstPos[i], ic.LastPos[i] = -1, -1
	}
	for _, e := range least {
		ic.FirstPos[e.Proc] = e.Pos
	}
	for _, e := range greatest {
		ic.LastPos[e.Proc] = e.Pos
	}
	return ic
}

// ErrForeignInterval is returned by EvalChecked for an interval that belongs
// neither to the analyzed execution nor to a prefix of it.
var ErrForeignInterval = errors.New("core: interval from a different execution")

// ErrOverlap is returned by EvalChecked for overlapping interval pairs.
type ErrOverlap struct{ X, Y *interval.Interval }

// Error implements error.
func (e *ErrOverlap) Error() string {
	return fmt.Sprintf("core: intervals %v and %v overlap; the evaluation conditions assume disjoint events (DESIGN.md)", e.X, e.Y)
}

// EvalChecked evaluates rel(X, Y) with eval after verifying that the
// intervals are disjoint and belong to this analysis's execution.
func (a *Analysis) EvalChecked(eval Evaluator, rel Relation, x, y *interval.Interval) (bool, error) {
	if !poset.Prefix(x.Execution(), a.ex) || !poset.Prefix(y.Execution(), a.ex) {
		return false, ErrForeignInterval
	}
	if x.Overlaps(y) {
		return false, &ErrOverlap{X: x, Y: y}
	}
	return eval.Eval(rel, x, y), nil
}
