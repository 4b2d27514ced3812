package online

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/logx"
	"causet/internal/poset"
)

// ivState is one interval name's record, from its first Observe or
// condition reference until release or abandonment frees it whole. A name
// only conditions reference (never observed) is freed with its last
// reference.
type ivState struct {
	events   []poset.EventID // observed; dropped once the summary holds them
	observed bool
	complete bool
	slot     int32        // 1 + its settlement scratch index while a pass holds one (settle.go)
	waiters  []*condState // conditions blocked on the interval until it completes
	refs     int          // unsettled conditions referencing the interval
	doneAt   time.Time    // completion stamp on the monitor clock

	// Retention window start. While growing, seq is the stream position of
	// the last Observe (abandonment); once complete, seq and at mark the
	// completion or the last referencing settlement, whichever is later
	// (release).
	seq int
	at  time.Time

	sum    summary // built once, at the interval's first evaluation
	defErr error   // a failed build poisons the name
}

// memberEvents returns the interval's events: its summary's validated
// member list once built, the observed events before.
func (iv *ivState) memberEvents() []poset.EventID {
	if iv.sum.members != nil {
		return iv.sum.members.Events()
	}
	return iv.events
}

// condState is one condition name's record. Settlement drops the compiled
// condition; the record stays behind as the name's tombstone, so the name
// cannot be registered again while its verdict may still be in flight.
// Under a retention policy the tombstone goes one window after settlement
// (retention.go); without one it stays.
type condState struct {
	c       *monitor.Condition // nil once settled
	missing int                // referenced intervals not yet complete
}

// Monitor detects synchronization conditions online: nonatomic events grow
// via Observe as their member events occur, become immutable via Complete,
// and each condition is evaluated as soon as every interval it references
// is complete. By verdict stability (see the package comment) the first
// non-pending result of a condition is also its final one, so Poll delivers
// each verdict exactly once and the condition is never re-evaluated.
//
// The check loop is indexed: Complete promotes exactly the conditions it
// unblocked onto a ready queue, and Poll drains that queue through
// monitor.Evaluate, the offline monitor's evaluation path. Conditions are
// compiled once. Each interval gets a summary at its first evaluation: its
// validated member list, its per-node extremes and the Lemma 16 folds of
// their forward rows, all final at completion. A settling Poll reads the
// extremes' first-follower cells once per referenced interval and decides
// every atom with the Theorem 20 kernel on cuts assembled from the two
// (settle.go); it takes no snapshot and builds no core.Analysis. A
// settlement therefore costs the same however many intervals were ever
// defined. The offline monitor over the finished execution is the
// differential reference for every verdict (see
// TestIncrementalSnapshotAgreement).
type Monitor struct {
	stream *Stream

	mu    sync.Mutex
	ivs   map[string]*ivState
	conds map[string]*condState
	ready []*condState // unblocked, not yet evaluated

	// Detection latency: Complete stamps each interval with nowFn; settle
	// reports now − max(stamp of referenced intervals) — the lag from the
	// decisive event (the completion that made the condition evaluable) to
	// the verdict. nowFn is injectable, so timed-trace replays measure in
	// trace time; the default time.Now carries Go's monotonic reading, the
	// wall-clock fallback.
	nowFn func() time.Time

	lg             *logx.Logger
	metSettlements *obs.Counter
	violWin        *obs.Window
	detectWin      *obs.Window
	detectHist     *obs.Histogram
	checkWin       *obs.Window
	metReleased    *obs.Counter
	metAbandoned   *obs.Counter

	// Retention (SetRetention; retention.go): bounded-memory mode for
	// long-running streams. Interval records carry their window stamps;
	// retired remembers why an interval name was released or abandoned, so
	// later operations on it fail with ErrRetired. A name retired that way,
	// and a settled condition's tombstone in conds, stay for one retention
	// window: ledger lists the retirements oldest first, and each appraisal
	// forgets those out of the window, so retired and conds hold the names
	// of one window, not of the run. A name has a record in ivs or a
	// tombstone in retired, never both: appraisal deletes the record
	// before it writes the tombstone, and nothing makes a record for a
	// retired name, so Observe and Complete consult retired only when ivs
	// has no record. watermark caches the last applied compaction cut so
	// Observe can reject already-compacted positions without taking the
	// stream lock. Lock order is m.mu then stream.mu, never the reverse.
	retention           RetentionPolicy
	retainOn            bool
	retired             map[string]string
	ledger              []retirement
	released, abandoned int
	watermark           []int
	lastAppraise        int
	// newResults accumulates verdicts since the last Poll.
	newResults []monitor.Result

	// Settlement scratch (settle.go), reused by every settling Poll and
	// StrongestBetween: the first used entries hold the up rows and cuts of
	// the intervals the current pass prepared.
	scratch []settleCuts
	used    int
	fast    core.EvalCounters // core.fast.* for the atoms Poll decides
}

// NewMonitor creates an online monitor over the stream.
func NewMonitor(s *Stream) *Monitor {
	return &Monitor{
		stream:  s,
		ivs:     make(map[string]*ivState),
		conds:   make(map[string]*condState),
		nowFn:   time.Now,
		retired: make(map[string]string),
	}
}

// SetLogger attaches a structured event log (may be nil). The monitor
// emits interval_complete (Info) with the interval's final size when it
// freezes, and — exactly once per condition, by verdict stability —
// condition_settled with the condition source, final verdict and detection
// latency (Info for holds, Warn for violated, Error for failed). Retention
// adds interval_abandoned (Warn) and compaction_failed (Error). Observe
// logs nothing, so the log grows with intervals and conditions, not with
// events.
func (m *Monitor) SetLogger(lg *logx.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lg = lg
}

// Instrument attaches a metrics registry (may be nil): the
// online.settlements counter counts final verdicts, the
// online.violation_window sliding window observes one sample per violated
// condition (giving the dashboard a recent-violation rate), detection
// latency lands in the online.detect_latency_ns window (recent quantiles)
// and the online.detect_latency_hist_ns histogram (full distribution),
// every settling pass of Poll records its wall-clock cost in the
// monitor.check_ns window — the settle stage's cost, one sample per pass
// that had a condition ready; a Poll with nothing ready records nothing and
// reads no clock — and every atom Poll decides is counted on
// core.fast.evals and core.fast.comparisons (with the per-relation split),
// as the offline evaluator counts it. The series set does not depend on
// the number of conditions; per-condition latency is in the
// condition_settled log event.
func (m *Monitor) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fast = core.NewEvalCounters(reg, "fast")
	m.metSettlements = reg.Counter("online.settlements")
	m.violWin = reg.Window("online.violation_window", 256)
	m.detectWin = reg.Window("online.detect_latency_ns", 256)
	m.detectHist = reg.Histogram("online.detect_latency_hist_ns", obs.DurationBuckets)
	m.checkWin = reg.Window("monitor.check_ns", 256)
	m.metReleased = reg.Counter("monitor.released_intervals")
	m.metAbandoned = reg.Counter("monitor.abandoned_intervals")
}

// SetNow injects the monitor's clock (nil restores time.Now). Timed-trace
// replay drivers point this at the trace's virtual clock so detection
// latency is measured in trace time rather than replay wall time.
func (m *Monitor) SetNow(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	m.nowFn = now
}

// settle records the final verdict of an unsettled condition and drops its
// compiled form; the caller holds m.mu. This is the single point every
// verdict passes through, so the settlement log event fires exactly once
// per condition. settle reads no clock: now is the monitor clock and wall
// the wall clock, each read once by the caller for all the settlements it
// makes. wall stamps the violation and latency window samples, which only
// a verdict that is not Failed records, and is zero without a registry.
func (m *Monitor) settle(cs *condState, res monitor.Result, now, wall time.Time) {
	c := cs.c
	cs.c = nil
	m.newResults = append(m.newResults, res)
	// Detection latency is the lag to an actual verdict; a Failed settlement
	// is an error report, and measuring it against whatever completion
	// stamps happen to survive (some may already be released) would record
	// a stale or meaningless value.
	var latency time.Duration
	haveLatency := false
	if res.State != monitor.Failed {
		latency, haveLatency = m.detectLatency(c, now)
	}
	// Release this condition's hold on its referenced intervals. A name no
	// Observe ever reached goes with its last reference; for a completed one
	// the last settlement restarts its retention window, so a
	// StrongestBetween query issued when the verdict lands still finds its
	// operands.
	var total int
	if m.retainOn {
		total = m.stream.TotalEvents()
		m.ledger = append(m.ledger, retirement{name: c.Name, seq: total, at: now, cond: true})
	}
	for _, ref := range c.Refs() {
		iv := m.ivs[ref]
		if iv == nil {
			continue // retired
		}
		if iv.refs--; iv.refs > 0 {
			continue
		}
		switch {
		case !iv.observed:
			delete(m.ivs, ref)
		case iv.complete && m.retainOn:
			iv.seq = max(iv.seq, total)
			if now.After(iv.at) {
				iv.at = now
			}
		}
	}
	m.metSettlements.Inc()
	if res.State == monitor.Violated {
		m.violWin.ObserveAt(1, wall)
	}
	if haveLatency {
		m.detectWin.ObserveAt(int64(latency), wall)
		m.detectHist.Observe(int64(latency))
	}
	if m.lg == nil {
		return
	}
	fields := []logx.Field{
		logx.F("condition", c.Name),
		logx.F("src", c.Src),
		logx.F("state", res.State.String()),
	}
	if haveLatency {
		fields = append(fields, logx.F("detect_latency_ns", int64(latency)))
	}
	if res.Err != nil {
		fields = append(fields, logx.F("err", res.Err))
	}
	switch res.State {
	case monitor.Violated:
		m.lg.Warn("condition_settled", fields...)
	case monitor.Failed:
		m.lg.Error("condition_settled", fields...)
	default:
		m.lg.Info("condition_settled", fields...)
	}
}

// Observe appends member events to the named growing interval, creating it
// on first use. Observing a completed interval is an error.
func (m *Monitor) Observe(name string, events ...poset.EventID) error {
	if name == "" {
		return fmt.Errorf("online: interval name must be non-empty")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	iv := m.ivs[name]
	if iv == nil {
		if why, gone := m.retired[name]; gone {
			return retiredErr(name, why)
		}
	} else if iv.complete {
		return fmt.Errorf("online: interval %q is already complete", name)
	}
	if m.watermark != nil {
		for _, e := range events {
			if e.Proc >= 0 && e.Proc < len(m.watermark) && e.Pos <= m.watermark[e.Proc] {
				return fmt.Errorf("online: event p%d:%d was compacted by retention (watermark %d); observe events before they age out or widen the policy window",
					e.Proc, e.Pos, m.watermark[e.Proc])
			}
		}
	}
	if iv == nil {
		iv = &ivState{}
		m.ivs[name] = iv
	}
	iv.observed = true
	iv.events = append(iv.events, events...)
	if m.retainOn {
		total := m.stream.TotalEvents()
		iv.seq = total
		if total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	return nil
}

// Complete freezes the named interval; conditions referencing it become
// evaluable once their other references complete too. Completion decrements
// the missing-count of every condition waiting on the interval and promotes
// the fully-unblocked ones to the ready queue the next Poll drains.
func (m *Monitor) Complete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	iv := m.ivs[name]
	if iv == nil {
		if why, gone := m.retired[name]; gone {
			return retiredErr(name, why)
		}
	}
	switch {
	case iv == nil || !iv.observed:
		return fmt.Errorf("online: interval %q was never observed", name)
	case iv.complete:
		return fmt.Errorf("online: interval %q is already complete", name)
	case len(iv.events) == 0:
		return fmt.Errorf("online: interval %q has no events", name)
	}
	iv.complete = true
	iv.doneAt = m.nowFn()
	iv.at = iv.doneAt
	for _, cs := range iv.waiters {
		if cs.missing--; cs.missing == 0 {
			m.ready = append(m.ready, cs)
		}
	}
	iv.waiters = nil
	if m.lg.Enabled(logx.Info) {
		m.lg.Info("interval_complete", logx.F("interval", name), logx.F("size", len(iv.events)))
	}
	if m.retainOn {
		total := m.stream.TotalEvents()
		iv.seq = total
		if total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	return nil
}

// detectLatency computes a condition's detection latency at settlement: now
// minus the latest completion stamp among the intervals the condition
// references (that completion is the decisive event — the moment the
// verdict became computable). ok is false when no referenced interval
// carries a stamp (e.g. a parse failure settled the condition before
// anything completed). Caller holds m.mu. Negative lags (a virtual clock
// stepping backwards) clamp to zero.
func (m *Monitor) detectLatency(c *monitor.Condition, now time.Time) (time.Duration, bool) {
	var decisive time.Time
	for _, ref := range c.Refs() {
		if iv := m.ivs[ref]; iv != nil && iv.doneAt.After(decisive) {
			decisive = iv.doneAt
		}
	}
	if decisive.IsZero() {
		return 0, false
	}
	return max(now.Sub(decisive), 0), true
}

// AddCondition parses and registers a condition in the monitor DSL. The
// source is compiled exactly once, here; checks reuse the parsed expression.
// A name stays taken after its condition settles: for one window under a
// retention policy, after which registering it again makes a new condition
// whose verdict Poll delivers once; for good without one.
func (m *Monitor) AddCondition(name, src string) error {
	expr, err := monitor.Parse(src)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.conds[name]; dup {
		return fmt.Errorf("online: condition %q already defined", name)
	}
	cs := &condState{c: monitor.NewCondition(name, src, expr)}
	m.conds[name] = cs
	// Take a reference on every live interval and wait on the incomplete
	// ones. A reference to a retired interval can never be satisfied: settle
	// now (which gives the references back) instead of waiting forever.
	var gone error
	for _, ref := range cs.c.Refs() {
		if why, ok := m.retired[ref]; ok {
			if gone == nil {
				gone = retiredErr(ref, why)
			}
			continue
		}
		iv := m.ivs[ref]
		if iv == nil {
			iv = &ivState{}
			m.ivs[ref] = iv
		}
		iv.refs++
		if !iv.complete {
			cs.missing++
			iv.waiters = append(iv.waiters, cs)
		}
	}
	switch {
	case gone != nil:
		m.settle(cs, monitor.Result{Name: name, State: monitor.Failed, Err: gone}, m.nowFn(), time.Time{})
	case cs.missing == 0:
		m.ready = append(m.ready, cs)
	}
	return nil
}

// Poll runs the check loop and returns the conditions that settled since
// the previous Poll, each exactly once. Its cost is the ready conditions'
// evaluation, independent of how many conditions are registered, so a
// long-horizon driver can call it per event: a Poll with nothing ready
// reads no clock and, unless a retention appraisal is due, takes no stream
// lock. A settling pass records its cost in monitor.check_ns. Poll runs a
// retention appraisal when the cadence says so.
func (m *Monitor) Poll() []monitor.Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkIncrementalLocked()
	if m.retainOn {
		if total := m.stream.TotalEvents(); total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	out := m.newResults
	m.newResults = nil
	return out
}

// checkIncrementalLocked drains the ready queue: each unblocked condition
// is evaluated once, with its compiled expression, over cuts its intervals'
// summaries give at the current prefix. The stream is locked once for the
// whole batch, so every cut the pass reads is taken at one prefix, as a
// snapshot's would be. A Poll with nothing ready costs O(1) and reads no
// clock. A settling pass reads the monitor clock once, at its start, and
// every settlement in it takes that instant: detection latency runs to the
// pass that decides the verdict. With a registry it also reads the wall
// clock at its start and end, records the difference, from preparation to
// the last settlement, in monitor.check_ns, and stamps every window sample
// of the pass with those two readings.
func (m *Monitor) checkIncrementalLocked() {
	if len(m.ready) == 0 {
		return
	}
	now := m.nowFn()
	var wall time.Time
	if m.checkWin != nil {
		wall = time.Now()
	}
	todo := m.ready
	m.ready = nil
	sp := m.prepareReadyLocked(todo)
	defer sp.End()
	for _, cs := range todo {
		c := cs.c
		if c == nil {
			continue
		}
		res := monitor.Result{Name: c.Name, State: monitor.Failed}
		for _, ref := range c.Refs() {
			if res.Err = m.ivs[ref].defErr; res.Err != nil {
				break
			}
		}
		if res.Err == nil {
			res = monitor.Evaluate(c, operands{m}, &m.fast)
		}
		m.settle(cs, res, now, wall)
	}
	m.releaseScratchLocked()
	if m.checkWin != nil {
		end := time.Now()
		m.checkWin.ObserveAt(end.Sub(wall).Nanoseconds(), end)
	}
}

// prepareReadyLocked makes every interval the conditions todo reference
// evaluable, at one prefix: the stream is locked once for the batch. Left
// operands come first, with up rows, since theirs are the only up cuts the
// atoms read. It returns the settling pass's span, opened on the tracer the
// stream was instrumented with (a no-op without one). Caller holds m.mu.
func (m *Monitor) prepareReadyLocked(todo []*condState) obs.Span {
	var ex *poset.Execution
	m.stream.mu.Lock()
	defer m.stream.mu.Unlock()
	sp := m.stream.metTracer.Begin("online", "settle")
	for _, up := range [2]bool{true, false} {
		for _, cs := range todo {
			if cs.c == nil {
				continue
			}
			refs := cs.c.Refs()
			if up {
				refs = cs.c.LeftRefs()
			}
			for _, ref := range refs {
				if m.prepareLocked(&ex, ref, up) != nil {
					break
				}
			}
		}
	}
	return sp
}

// CompletedIntervals returns the names of the completed intervals, sorted.
func (m *Monitor) CompletedIntervals() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for n, iv := range m.ivs {
		if iv.complete {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// StrongestBetween reports the maximal relations (under the hierarchy's
// implication order) holding between two completed intervals at the current
// prefix — the compact online answer to Problem 4(ii). By verdict stability
// the answer is final once both intervals are complete. The pair is decided
// by the fused Table 1 kernel (core.Table1Cuts) over the cuts the check loop
// assembles from the intervals' summaries.
func (m *Monitor) StrongestBetween(xName, yName string) ([]core.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range [2]string{xName, yName} {
		if why, gone := m.retired[name]; gone {
			return nil, retiredErr(name, why)
		}
		if iv := m.ivs[name]; iv == nil || !iv.complete {
			return nil, fmt.Errorf("online: interval %q is not complete", name)
		}
	}
	defer m.releaseScratchLocked()
	var ex *poset.Execution
	m.stream.mu.Lock()
	err := m.prepareLocked(&ex, xName, true)
	if err == nil {
		err = m.prepareLocked(&ex, yName, false)
	}
	m.stream.mu.Unlock()
	if err != nil {
		return nil, err
	}
	x, y := m.ivs[xName], m.ivs[yName]
	if x.sum.members.Overlaps(y.sum.members) {
		return nil, &core.ErrOverlap{X: x.sum.members, Y: y.sum.members}
	}
	verdicts, _ := core.Table1Cuts(&m.scratch[x.slot-1].cuts[0], &m.scratch[y.slot-1].cuts[0],
		x.sum.members.NodeSet(), y.sum.members.NodeSet())
	var held []core.Relation
	for _, rel := range core.Relations() {
		if verdicts&(1<<rel) != 0 {
			held = append(held, rel)
		}
	}
	return hierarchy.Strongest(held), nil
}
