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

// pendingCond tracks one condition through the interval→conditions readiness
// index: missing counts the referenced intervals not yet complete; when it
// reaches zero the condition moves to the ready queue and is evaluated at
// the next Check.
type pendingCond struct {
	c       *monitor.Condition
	missing int
}

// Monitor detects synchronization conditions online: nonatomic events grow
// via Observe as their member events occur, become immutable via Complete,
// and each condition is evaluated as soon as every interval it references
// is complete. By verdict stability (see the package comment) the first
// non-pending result of a condition is also its final one; Check memoizes
// it and never re-evaluates.
//
// The check loop is indexed: Complete promotes exactly the conditions it
// unblocked onto a ready queue, and Check drains that queue against one
// persistent inner monitor that is rebased onto each new snapshot epoch —
// conditions are compiled once and intervals are defined once. The offline
// monitor over the finished execution is the differential reference for
// every verdict (see TestIncrementalSnapshotAgreement).
type Monitor struct {
	stream *Stream

	mu         sync.Mutex
	growing    map[string][]poset.EventID
	complete   map[string][]poset.EventID
	conditions []*monitor.Condition
	settled    map[string]monitor.Result

	// Readiness index.
	waiting map[string][]*pendingCond // interval name → conditions blocked on it
	ready   []*monitor.Condition      // unblocked, not yet evaluated

	// Persistent inner monitor. defined marks interval names already
	// registered with it; badIv poisons interval names whose Define failed
	// (e.g. bogus event IDs) so every condition that ever references them
	// settles Failed.
	inner   *monitor.Monitor
	defined map[string]bool
	badIv   map[string]error

	// Detection latency: Complete stamps each interval with nowFn; settle
	// reports now − max(stamp of referenced intervals) — the lag from the
	// decisive event (the completion that made the condition evaluable) to
	// the verdict. nowFn is injectable, so timed-trace replays measure in
	// trace time; the default time.Now carries Go's monotonic reading, the
	// wall-clock fallback.
	nowFn       func() time.Time
	completedAt map[string]time.Time

	lg             *logx.Logger
	reg            *obs.Registry
	metSettlements *obs.Counter
	violWin        *obs.Window
	detectWin      *obs.Window
	detectHist     *obs.Histogram
	checkWin       *obs.Window
	metReleased    *obs.Counter
	metAbandoned   *obs.Counter

	// Retention (SetRetention; retention.go): bounded-memory mode for
	// long-running streams. refCount tracks, per interval, how many
	// unsettled conditions still reference it — maintained even with
	// retention off so enabling it later starts from accurate counts. The
	// seq maps stamp stream positions (SetRetention backfills stamps for
	// state that predates it), retired remembers why a name was released or
	// abandoned so later operations fail with a clear error, and watermark
	// caches the last applied compaction cut so Observe can reject
	// already-compacted positions without taking the stream lock. Lock
	// order is m.mu then stream.mu, never the reverse.
	retention    RetentionPolicy
	retainOn     bool
	refCount     map[string]int
	completedSeq map[string]int
	observedSeq  map[string]int
	lastUseSeq   map[string]int
	lastUseAt    map[string]time.Time
	settleSeq    map[string]int
	settleAt     map[string]time.Time
	retired      map[string]string
	watermark    []int
	lastAppraise int
	// newResults accumulates verdicts since the last Poll; Poll returns and
	// clears it, and Check clears it too so a Check-only driver does not
	// grow it without bound.
	newResults []monitor.Result
}

// NewMonitor creates an online monitor over the stream.
func NewMonitor(s *Stream) *Monitor {
	return &Monitor{
		stream:   s,
		growing:  make(map[string][]poset.EventID),
		complete: make(map[string][]poset.EventID),
		settled:  make(map[string]monitor.Result),

		waiting: make(map[string][]*pendingCond),
		defined: make(map[string]bool),
		badIv:   make(map[string]error),

		nowFn:       time.Now,
		completedAt: make(map[string]time.Time),

		refCount:     make(map[string]int),
		completedSeq: make(map[string]int),
		observedSeq:  make(map[string]int),
		lastUseSeq:   make(map[string]int),
		lastUseAt:    make(map[string]time.Time),
		settleSeq:    make(map[string]int),
		settleAt:     make(map[string]time.Time),
		retired:      make(map[string]string),
	}
}

// SetLogger attaches a structured event log (may be nil). The monitor
// emits interval_observe (Debug) on growth, interval_complete (Info) on
// freeze, and — exactly once per condition, by verdict stability —
// condition_settled with the condition source and final verdict (Info for
// holds, Warn for violated, Error for failed).
func (m *Monitor) SetLogger(lg *logx.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lg = lg
}

// Instrument attaches a metrics registry (may be nil): the
// online.settlements counter counts final verdicts, the
// online.violation_window sliding window observes one sample per violated
// condition (giving the dashboard a recent-violation rate), detection
// latency lands in the online.detect_latency_ns window (recent quantiles),
// the online.detect_latency_hist_ns histogram (full distribution), and a
// per-condition online.detect_latency.cond.<name> gauge, and every Check
// or Poll call records its wall-clock cost in the monitor.check_ns window —
// the steady-state cost is the index drain, so this is the series that
// shows the amortization working.
func (m *Monitor) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
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

// settle records the final verdict of a condition; the caller holds m.mu
// and guarantees the name is not yet settled. This is the single point
// every verdict passes through, so the settlement log event fires exactly
// once per condition.
func (m *Monitor) settle(c *monitor.Condition, res monitor.Result) {
	m.settled[c.Name] = res
	m.newResults = append(m.newResults, res)
	var total int
	if m.retainOn {
		total = m.stream.TotalEvents()
		m.settleSeq[c.Name] = total
		m.settleAt[c.Name] = m.nowFn()
	}
	// Release this condition's hold on its referenced intervals; the last
	// settlement to let go of an interval restarts its retention window, so
	// a StrongestBetween query issued when the verdict lands still finds
	// its operands.
	for _, ref := range c.Refs() {
		switch n := m.refCount[ref]; {
		case n > 1:
			m.refCount[ref] = n - 1
		case n == 1:
			delete(m.refCount, ref)
			if m.retainOn {
				m.lastUseSeq[ref] = total
				m.lastUseAt[ref] = m.nowFn()
			}
		}
	}
	m.metSettlements.Inc()
	if res.State == monitor.Violated {
		m.violWin.Observe(1)
	}
	// Detection latency is the lag to an actual verdict; a Failed settlement
	// is an error report, and measuring it against whatever completion
	// stamps happen to survive (some may already be released) would record
	// a stale or meaningless value.
	var latency time.Duration
	haveLatency := false
	if res.State != monitor.Failed {
		latency, haveLatency = m.detectLatency(c)
	}
	if haveLatency {
		m.detectWin.Observe(int64(latency))
		m.detectHist.Observe(int64(latency))
		m.reg.Gauge("online.detect_latency.cond." + c.Name).Set(int64(latency))
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
	if why, gone := m.retired[name]; gone {
		return retiredErr(name, why)
	}
	if _, done := m.complete[name]; done {
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
	m.growing[name] = append(m.growing[name], events...)
	m.lg.Debug("interval_observe",
		logx.F("interval", name), logx.F("added", len(events)), logx.F("size", len(m.growing[name])))
	if m.retainOn {
		total := m.stream.TotalEvents()
		m.observedSeq[name] = total
		if total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	return nil
}

// Complete freezes the named interval; conditions referencing it become
// evaluable once their other references complete too. Completion decrements
// the missing-count of every condition waiting on the interval and promotes
// the fully-unblocked ones to the ready queue the next Check drains.
func (m *Monitor) Complete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if why, gone := m.retired[name]; gone {
		return retiredErr(name, why)
	}
	events, ok := m.growing[name]
	if !ok {
		return fmt.Errorf("online: interval %q was never observed", name)
	}
	if len(events) == 0 {
		return fmt.Errorf("online: interval %q has no events", name)
	}
	delete(m.growing, name)
	m.complete[name] = events
	m.completedAt[name] = m.nowFn()
	for _, pc := range m.waiting[name] {
		pc.missing--
		if pc.missing == 0 {
			m.ready = append(m.ready, pc.c)
		}
	}
	delete(m.waiting, name)
	m.lg.Info("interval_complete", logx.F("interval", name), logx.F("size", len(events)))
	if m.retainOn {
		total := m.stream.TotalEvents()
		m.completedSeq[name] = total
		delete(m.observedSeq, name)
		if total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	return nil
}

// detectLatency computes a condition's detection latency at settlement: the
// monitor clock's now minus the latest completion stamp among the intervals
// the condition references (that completion is the decisive event — the
// moment the verdict became computable). ok is false when no referenced
// interval carries a stamp (e.g. a parse failure settled the condition
// before anything completed). Caller holds m.mu. Negative lags (a virtual
// clock stepping backwards) clamp to zero.
func (m *Monitor) detectLatency(c *monitor.Condition) (time.Duration, bool) {
	var decisive time.Time
	for _, ref := range c.Refs() {
		if t, ok := m.completedAt[ref]; ok && t.After(decisive) {
			decisive = t
		}
	}
	if decisive.IsZero() {
		return 0, false
	}
	lat := m.nowFn().Sub(decisive)
	if lat < 0 {
		lat = 0
	}
	return lat, true
}

// AddCondition parses and registers a condition in the monitor DSL. The
// source is compiled exactly once, here; checks reuse the parsed expression.
func (m *Monitor) AddCondition(name, src string) error {
	expr, err := monitor.Parse(src)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conditions {
		if c.Name == name {
			return fmt.Errorf("online: condition %q already defined", name)
		}
	}
	// DropSettled may have purged the compiled condition from m.conditions;
	// the verdict tombstone still blocks the name from being reused.
	if _, done := m.settled[name]; done {
		return fmt.Errorf("online: condition %q already defined", name)
	}
	c := monitor.NewCondition(name, src, expr)
	m.conditions = append(m.conditions, c)
	for _, ref := range c.Refs() {
		m.refCount[ref]++
	}
	// A reference to a retired interval can never be satisfied: settle now
	// (which also gives the refcounts back) instead of waiting forever.
	for _, ref := range c.Refs() {
		if why, gone := m.retired[ref]; gone {
			m.settle(c, monitor.Result{Name: name, State: monitor.Failed, Err: retiredErr(ref, why)})
			return nil
		}
	}
	m.indexLocked(c)
	return nil
}

// indexLocked registers a new condition with the readiness index: it waits
// on each referenced interval not yet complete, or goes straight to the
// ready queue when there is nothing to wait for.
func (m *Monitor) indexLocked(c *monitor.Condition) {
	pc := &pendingCond{c: c}
	for _, ref := range c.Refs() {
		if _, done := m.complete[ref]; done {
			continue
		}
		pc.missing++
		m.waiting[ref] = append(m.waiting[ref], pc)
	}
	if pc.missing == 0 {
		m.ready = append(m.ready, c)
	}
}

// Check evaluates all conditions against the current stream prefix and
// returns one result per condition in registration order. Conditions whose
// referenced intervals are not all complete report Pending; every other
// verdict is final and memoized. Only the conditions unblocked since the
// previous Check are evaluated, against a persistent inner monitor rebased
// onto the current snapshot epoch.
func (m *Monitor) Check() []monitor.Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainLocked()
	out := make([]monitor.Result, 0, len(m.conditions))
	for _, c := range m.conditions {
		if res, done := m.settled[c.Name]; done {
			out = append(out, res)
		} else {
			out = append(out, monitor.Result{Name: c.Name, State: monitor.Pending})
		}
	}
	m.newResults = nil
	return out
}

// drainLocked is the body Check and Poll share: it evaluates the ready
// queue, records the pass in monitor.check_ns, and runs a retention
// appraisal when the cadence says so. Caller holds m.mu.
func (m *Monitor) drainLocked() {
	var t0 time.Time
	if m.checkWin != nil {
		t0 = time.Now()
	}
	m.checkIncrementalLocked()
	if m.checkWin != nil {
		m.checkWin.Observe(time.Since(t0).Nanoseconds())
	}
	m.maybeRetainLocked()
}

// ensureInnerLocked points the persistent inner monitor at the current
// snapshot epoch, creating or rebasing it as needed. Rebasing preserves
// defined intervals. Rebase returns an error when some defined interval's
// execution is not a prefix of the new snapshot's. Every snapshot is a
// later view of the stream's one builder, which poset.Prefix accepts even
// across compaction, so no path is known to trigger it; should it happen,
// the monitor falls back to a fresh inner monitor, which re-defines
// intervals on demand.
func (m *Monitor) ensureInnerLocked() {
	snap := m.stream.Snapshot()
	switch {
	case m.inner == nil:
		m.inner = monitor.NewWithAnalysis(snap.Analysis)
		m.defined = make(map[string]bool)
	case m.inner.Analysis() != snap.Analysis:
		if err := m.inner.Rebase(snap.Analysis); err != nil {
			m.inner = monitor.NewWithAnalysis(snap.Analysis)
			m.defined = make(map[string]bool)
		}
	}
}

// defineLocked registers a completed interval with the persistent inner
// monitor, once. A Define failure (bogus event IDs) poisons the name: the
// error is recorded and returned to every later reference, so each
// condition touching the interval settles Failed.
func (m *Monitor) defineLocked(name string) error {
	if err, bad := m.badIv[name]; bad {
		return err
	}
	if m.defined[name] {
		return nil
	}
	if err := m.inner.Define(name, m.complete[name]); err != nil {
		m.badIv[name] = err
		return err
	}
	m.defined[name] = true
	return nil
}

// checkIncrementalLocked drains the ready queue: each unblocked condition
// has its intervals defined (once) and is evaluated with its compiled
// expression against the persistent inner monitor. The snapshot (and its
// rebase) is only taken when something is actually ready, so a Check with
// nothing to do costs O(1).
func (m *Monitor) checkIncrementalLocked() {
	if len(m.ready) == 0 {
		return
	}
	todo := m.ready
	m.ready = nil
	m.ensureInnerLocked()
	for _, c := range todo {
		if _, done := m.settled[c.Name]; done {
			continue
		}
		var defErr error
		for _, ref := range c.Refs() {
			if err := m.defineLocked(ref); err != nil {
				defErr = err
				break
			}
		}
		if defErr != nil {
			m.settle(c, monitor.Result{Name: c.Name, State: monitor.Failed, Err: defErr})
			continue
		}
		res := m.inner.CheckCondition(c)
		if res.State == monitor.Pending {
			// Defensive: a ready condition has every reference defined, so
			// the inner monitor cannot report Pending; if it ever does,
			// re-queue rather than lose the condition.
			m.ready = append(m.ready, c)
			continue
		}
		m.settle(c, res)
	}
}

// CompletedIntervals returns the names of the completed intervals, sorted.
func (m *Monitor) CompletedIntervals() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.complete))
	for n := range m.complete {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StrongestBetween reports the maximal relations (under the hierarchy's
// implication order) holding between two completed intervals at the current
// prefix — the compact online answer to Problem 4(ii). By verdict stability
// the answer is final once both intervals are complete. The query runs
// against the persistent inner monitor, sharing its interval definitions
// with the check loop.
func (m *Monitor) StrongestBetween(xName, yName string) ([]core.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if why, gone := m.retired[xName]; gone {
		return nil, retiredErr(xName, why)
	}
	if why, gone := m.retired[yName]; gone {
		return nil, retiredErr(yName, why)
	}
	if _, ok := m.complete[xName]; !ok {
		return nil, fmt.Errorf("online: interval %q is not complete", xName)
	}
	if _, ok := m.complete[yName]; !ok {
		return nil, fmt.Errorf("online: interval %q is not complete", yName)
	}
	m.ensureInnerLocked()
	if err := m.defineLocked(xName); err != nil {
		return nil, err
	}
	if err := m.defineLocked(yName); err != nil {
		return nil, err
	}
	held, err := m.inner.HeldTable1(xName, yName)
	if err != nil {
		return nil, err
	}
	return hierarchy.Strongest(held), nil
}
