package faultsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/online"
	"causet/internal/poset"
)

// CheckOptions tunes the property harness.
type CheckOptions struct {
	// PairSamples is the number of extra random disjoint event-subset pairs
	// checked on top of the protocol-level interval pairs. 0 means 4.
	PairSamples int

	// NamedPairs caps the protocol-level interval pairs checked per run
	// (there can be dozens on a busy mutex trace). 0 means 6.
	NamedPairs int

	// buggyDupClockMerge injects a deliberate bug into the online legs: a
	// receiver-side "dedup" that records every delivery of a duplicated
	// message as a local event, skipping the vector-clock merge and losing
	// the causal edge (dropDuplicatedEdges). (Skipping only the second copy
	// would be causally invisible — both copies land on the same process,
	// so the first merge is inherited locally; the realistic failure mode
	// is dedup logic that swallows the message before the monitor sees its
	// edge at all.) The harness exists to catch exactly this class of
	// mistake — the acceptance test seeds it and asserts the property check
	// finds and shrinks it.
	buggyDupClockMerge bool
}

func (o CheckOptions) pairSamples() int {
	if o.PairSamples <= 0 {
		return 4
	}
	return o.PairSamples
}

func (o CheckOptions) namedPairs() int {
	if o.NamedPairs <= 0 {
		return 6
	}
	return o.NamedPairs
}

// CheckRun executes cfg under (seed, plan) and asserts every cross-evaluator
// invariant the repository promises, end to end, on the adversarial trace:
//
//  1. Determinism: a second run yields a byte-identical trace file.
//  2. Naive ≡ Proxy ≡ Fast on every sampled disjoint interval pair, for all
//     eight relations of Table 1.
//  3. The fused 32-relation profile kernel agrees with the per-relation scan.
//  4. Fast comparison counts respect the Theorem 19/20 bounds.
//  5. Online monitor verdicts (conditions settled while replaying the trace
//     into a Stream) equal offline monitor verdicts on the full execution.
//
// A nil error means all invariants hold for this (cfg, seed, plan).
func CheckRun(cfg Config, seed int64, plan FaultPlan) error {
	return CheckOptions{}.CheckRun(cfg, seed, plan)
}

// CheckRun is the option-carrying form of the package-level CheckRun.
func (o CheckOptions) CheckRun(cfg Config, seed int64, plan FaultPlan) error {
	res, err := Run(cfg, seed, plan, nil, nil)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	res2, err := Run(cfg, seed, plan, nil, nil)
	if err != nil {
		return fmt.Errorf("rerun: %w", err)
	}
	b1, b2 := new(bytes.Buffer), new(bytes.Buffer)
	if err := res.TraceFile().WriteJSON(b1); err != nil {
		return fmt.Errorf("serialize: %w", err)
	}
	if err := res2.TraceFile().WriteJSON(b2); err != nil {
		return fmt.Errorf("serialize rerun: %w", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		return fmt.Errorf("determinism: two runs of the same (seed, plan) produced different traces (%d vs %d bytes)", b1.Len(), b2.Len())
	}

	ex := res.Exec
	pairs, err := o.samplePairs(ex, res.Intervals, seed)
	if err != nil {
		return err
	}
	if err := o.checkEvaluators(ex, pairs); err != nil {
		return err
	}
	return o.checkOnline(ex, pairs)
}

// ivPair is one sampled disjoint interval pair.
type ivPair struct {
	name   string
	x, y   *interval.Interval
	xe, ye []poset.EventID
}

// samplePairs assembles the disjoint interval pairs to check: protocol-level
// named intervals (critical sections, vote/decide/apply, candidacy/win/learn)
// paired in deterministic name order, plus random disjoint event subsets.
func (o CheckOptions) samplePairs(ex *poset.Execution, named map[string][]poset.EventID, seed int64) ([]ivPair, error) {
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)

	ivs := make(map[string]*interval.Interval, len(names))
	for _, n := range names {
		iv, err := interval.New(ex, named[n])
		if err != nil {
			// Protocol intervals are captured from real recorded events;
			// a rejection means the capture logic is broken — a finding,
			// not a skip.
			return nil, fmt.Errorf("interval %q: %w", n, err)
		}
		ivs[n] = iv
	}

	var pairs []ivPair
	for i := 0; i < len(names) && len(pairs) < o.namedPairs(); i++ {
		for j := i + 1; j < len(names) && len(pairs) < o.namedPairs(); j++ {
			x, y := ivs[names[i]], ivs[names[j]]
			if x.Overlaps(y) {
				continue
			}
			pairs = append(pairs, ivPair{
				name: names[i] + "/" + names[j],
				x:    x, y: y,
				xe: named[names[i]], ye: named[names[j]],
			})
		}
	}

	// Random disjoint subsets exercise shapes the protocols never produce.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5a17))
	events := ex.LinearExtension()
	for k := 0; k < o.pairSamples(); k++ {
		nx, ny := 1+rng.Intn(3), 1+rng.Intn(3)
		if nx+ny > len(events) {
			break
		}
		perm := rng.Perm(len(events))
		xe := make([]poset.EventID, 0, nx)
		ye := make([]poset.EventID, 0, ny)
		for _, idx := range perm[:nx] {
			xe = append(xe, events[idx])
		}
		for _, idx := range perm[nx : nx+ny] {
			ye = append(ye, events[idx])
		}
		x, err := interval.New(ex, xe)
		if err != nil {
			return nil, fmt.Errorf("random interval: %w", err)
		}
		y, err := interval.New(ex, ye)
		if err != nil {
			return nil, fmt.Errorf("random interval: %w", err)
		}
		pairs = append(pairs, ivPair{name: fmt.Sprintf("rand-%d", k), x: x, y: y, xe: xe, ye: ye})
	}
	return pairs, nil
}

// checkEvaluators asserts Naive ≡ Proxy ≡ Fast ≡ Fused and the comparison
// bounds on every sampled pair.
func (o CheckOptions) checkEvaluators(ex *poset.Execution, pairs []ivPair) error {
	a := core.NewAnalysis(ex)
	naive, proxy, fast := core.NewNaive(a), core.NewProxy(a), core.NewFast(a)
	for _, pr := range pairs {
		for _, rel := range core.Relations() {
			vn, err := a.EvalChecked(naive, rel, pr.x, pr.y)
			if err != nil {
				return fmt.Errorf("pair %s: naive %s: %w", pr.name, rel, err)
			}
			vp, err := a.EvalChecked(proxy, rel, pr.x, pr.y)
			if err != nil {
				return fmt.Errorf("pair %s: proxy %s: %w", pr.name, rel, err)
			}
			vf, err := a.EvalChecked(fast, rel, pr.x, pr.y)
			if err != nil {
				return fmt.Errorf("pair %s: fast %s: %w", pr.name, rel, err)
			}
			if vn != vp || vn != vf {
				return fmt.Errorf("pair %s: %s disagreement: naive=%v proxy=%v fast=%v", pr.name, rel, vn, vp, vf)
			}
			_, cnt := fast.EvalCount(rel, pr.x, pr.y)
			if bound := rel.ComplexityBound(pr.x.NodeCount(), pr.y.NodeCount()); cnt > int64(bound) {
				return fmt.Errorf("pair %s: %s used %d comparisons, Theorem 19/20 bound is %d", pr.name, rel, cnt, bound)
			}
		}
		mask, _ := a.EvalProfile(pr.x, pr.y)
		fused := core.MaskHolding(mask)
		scan := a.HoldingRel32(fast, pr.x, pr.y)
		if len(fused) != len(scan) {
			return fmt.Errorf("pair %s: fused kernel holds %d relations, scan holds %d", pr.name, len(fused), len(scan))
		}
		for i := range fused {
			if fused[i] != scan[i] {
				return fmt.Errorf("pair %s: fused kernel and scan diverge at %d: %v vs %v", pr.name, i, fused[i], scan[i])
			}
		}
	}
	return nil
}

// olCond is one named DSL condition shared by the online checks.
type olCond struct{ name, src string }

// checkOnline compares the online monitor's verdicts with the offline
// monitor's on the full execution, twice: unbounded, then under an
// aggressive retention policy — settled intervals released almost
// immediately, the stream compacted every few events — which is the
// chaos-side leg of the compaction-agreement differential. Under the
// (test-only) injected duplicate-clock-merge bug both legs replay the
// execution without the edges into duplicated deliveries, which is exactly
// the divergence the unbounded leg catches.
func (o CheckOptions) checkOnline(ex *poset.Execution, pairs []ivPair) error {
	if len(pairs) == 0 {
		return nil
	}

	// Offline ground truth.
	off := monitor.New(ex)
	var conds []olCond
	for i, pr := range pairs {
		xn, yn := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)
		if err := off.Define(xn, pr.xe); err != nil {
			return fmt.Errorf("offline define %s (%s): %w", xn, pr.name, err)
		}
		if err := off.Define(yn, pr.ye); err != nil {
			return fmt.Errorf("offline define %s (%s): %w", yn, pr.name, err)
		}
		for _, rel := range core.Relations() {
			c := olCond{
				name: fmt.Sprintf("c%d_%s", i, rel),
				src:  fmt.Sprintf("%s(%s, %s)", rel, xn, yn),
			}
			conds = append(conds, c)
			if err := off.AddCondition(c.name, c.src); err != nil {
				return fmt.Errorf("offline condition %s: %w", c.name, err)
			}
		}
	}
	offline := make(map[string]monitor.State, len(conds))
	for _, r := range off.Check() {
		if r.State == monitor.Failed {
			return fmt.Errorf("offline condition %s failed: %v", r.Name, r.Err)
		}
		offline[r.Name] = r.State
	}

	replayed := ex
	if o.buggyDupClockMerge {
		replayed = dropDuplicatedEdges(ex)
	}
	for _, policy := range []*online.RetentionPolicy{nil, {MaxEvents: 16, Every: 4}} {
		leg := "online"
		if policy != nil {
			leg = "retained online"
		}
		settled, err := runOnline(replayed, pairs, conds, policy)
		if err != nil {
			return fmt.Errorf("%s: %w", leg, err)
		}
		if len(settled) != len(conds) {
			return fmt.Errorf("%s settled %d of %d conditions", leg, len(settled), len(conds))
		}
		for name, st := range settled {
			want, ok := offline[name]
			if !ok {
				return fmt.Errorf("%s settled unknown condition %s", leg, name)
			}
			if st != want {
				return fmt.Errorf("%s verdict divergence on %s: online=%s offline=%s", leg, name, st, want)
			}
		}
	}
	return nil
}

// runOnline replays the trace into an online Stream while driving an online
// Monitor under policy (nil: unbounded), growing and completing the
// monitor's intervals in lockstep with the stream and polling after every
// event. It returns each delivered verdict and fails when Poll delivers a
// name twice. The replay pins in-flight sends, because fault plans reorder
// and duplicate deliveries and a retention appraisal must never compact a
// send whose receive is still to come.
func runOnline(ex *poset.Execution, pairs []ivPair, conds []olCond, policy *online.RetentionPolicy) (map[string]monitor.State, error) {
	memberOf := make(map[poset.EventID][]string)
	remaining := make(map[string]int, 2*len(pairs))
	for i, pr := range pairs {
		for _, e := range pr.xe {
			memberOf[e] = append(memberOf[e], fmt.Sprintf("x%d", i))
		}
		for _, e := range pr.ye {
			memberOf[e] = append(memberOf[e], fmt.Sprintf("y%d", i))
		}
		remaining[fmt.Sprintf("x%d", i)] = len(pr.xe)
		remaining[fmt.Sprintf("y%d", i)] = len(pr.ye)
	}
	s := online.NewStream(ex.NumProcs())
	mon := online.NewMonitor(s)
	if policy != nil {
		if err := mon.SetRetention(*policy); err != nil {
			return nil, err
		}
	}
	for _, c := range conds {
		if err := mon.AddCondition(c.name, c.src); err != nil {
			return nil, fmt.Errorf("condition %s: %w", c.name, err)
		}
	}
	settled := make(map[string]monitor.State, len(conds))
	drain := func() error {
		for _, r := range mon.Poll() {
			if prev, dup := settled[r.Name]; dup {
				return fmt.Errorf("%s delivered twice: %s then %s", r.Name, prev, r.State)
			}
			settled[r.Name] = r.State
		}
		return nil
	}
	feed := func(_ *online.Stream, e poset.EventID) error {
		for _, name := range memberOf[e] {
			if err := mon.Observe(name, e); err != nil {
				return fmt.Errorf("observe %s: %w", name, err)
			}
			remaining[name]--
			if remaining[name] == 0 {
				if err := mon.Complete(name); err != nil {
					return fmt.Errorf("complete %s: %w", name, err)
				}
			}
		}
		return drain()
	}
	if _, err := online.ReplayStepsOn(s, ex, feed); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return settled, drain()
}

// dropDuplicatedEdges is the seeded bug: it rebuilds ex with every event
// kept and the edge into each delivery of a message delivered more than
// once (a duplicated send) left out, as dedup logic that swallows
// duplicated messages before the monitor records them would. Each such
// delivery replays as a local event, without its causal edge or clock merge.
func dropDuplicatedEdges(ex *poset.Execution) *poset.Execution {
	b := poset.NewBuilder(ex.NumProcs())
	for p := range ex.NumProcs() {
		for range ex.NumReal(p) {
			b.Append(p)
		}
	}
	for _, m := range ex.Messages() {
		if len(ex.MsgSuccessors(m.From)) == 1 {
			// A subset of a valid execution's edges is valid.
			_ = b.Message(m.From, m.To)
		}
	}
	return b.MustBuild()
}
