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
	events   []poset.EventID
	observed bool
	complete bool
	waiters  []*condState // conditions blocked on the interval until it completes
	refs     int          // unsettled conditions referencing the interval
	doneAt   time.Time    // completion stamp on the monitor clock

	// Retention window start. While growing, seq is the stream position of
	// the last Observe (abandonment); once complete, seq and at mark the
	// completion or the last referencing settlement, whichever is later
	// (release).
	seq int
	at  time.Time

	inner  *monitor.Monitor // inner monitor the interval is defined in
	defErr error            // a failed Define poisons the name
}

// condState is one condition name's record. Settlement drops the compiled
// condition; the record stays behind as the name's tombstone, so the name
// cannot be registered and settled twice.
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
// unblocked onto a ready queue, and Poll drains that queue against one
// persistent inner monitor that is rebased onto each new snapshot epoch —
// conditions are compiled once and intervals are defined once. The offline
// monitor over the finished execution is the differential reference for
// every verdict (see TestIncrementalSnapshotAgreement).
type Monitor struct {
	stream *Stream

	mu    sync.Mutex
	ivs   map[string]*ivState
	conds map[string]*condState
	ready []*condState // unblocked, not yet evaluated

	// Persistent inner monitor; an interval record is defined with it when
	// the record's inner pointer equals it.
	inner *monitor.Monitor

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
	// retired remembers why a name was released or abandoned so later
	// operations fail with a clear error, and watermark caches the last
	// applied compaction cut so Observe can reject already-compacted
	// positions without taking the stream lock. Lock order is m.mu then
	// stream.mu, never the reverse.
	retention           RetentionPolicy
	retainOn            bool
	retired             map[string]string
	released, abandoned int
	watermark           []int
	lastAppraise        int
	// newResults accumulates verdicts since the last Poll.
	newResults []monitor.Result
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
// emits interval_observe (Debug) on growth, interval_complete (Info) on
// freeze, and — exactly once per condition, by verdict stability —
// condition_settled with the condition source, final verdict and detection
// latency (Info for holds, Warn for violated, Error for failed).
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
// and the online.detect_latency_hist_ns histogram (full distribution), and
// every Poll records its wall-clock cost in the monitor.check_ns window —
// the steady-state cost is the index drain, so this is the series that
// shows the amortization working. The series set does not depend on the
// number of conditions; per-condition latency is in the condition_settled
// log event.
func (m *Monitor) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
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
// per condition.
func (m *Monitor) settle(cs *condState, res monitor.Result) {
	c := cs.c
	cs.c = nil
	m.newResults = append(m.newResults, res)
	now := m.nowFn()
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
		m.violWin.Observe(1)
	}
	if haveLatency {
		m.detectWin.Observe(int64(latency))
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
	if why, gone := m.retired[name]; gone {
		return retiredErr(name, why)
	}
	iv := m.ivs[name]
	if iv != nil && iv.complete {
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
	m.lg.Debug("interval_observe",
		logx.F("interval", name), logx.F("added", len(events)), logx.F("size", len(iv.events)))
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
	if why, gone := m.retired[name]; gone {
		return retiredErr(name, why)
	}
	iv := m.ivs[name]
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
	m.lg.Info("interval_complete", logx.F("interval", name), logx.F("size", len(iv.events)))
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
// A name stays taken after its condition settles.
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
		m.settle(cs, monitor.Result{Name: name, State: monitor.Failed, Err: gone})
	case cs.missing == 0:
		m.ready = append(m.ready, cs)
	}
	return nil
}

// Poll runs the check loop and returns the conditions that settled since
// the previous Poll, each exactly once. Its cost is the ready conditions'
// evaluation, independent of how many conditions are registered, so a
// long-horizon driver can call it per event. It records the pass in
// monitor.check_ns and runs a retention appraisal when the cadence says so.
func (m *Monitor) Poll() []monitor.Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t0 time.Time
	if m.checkWin != nil {
		t0 = time.Now()
	}
	m.checkIncrementalLocked()
	if m.checkWin != nil {
		m.checkWin.Observe(time.Since(t0).Nanoseconds())
	}
	if m.retainOn {
		if total := m.stream.TotalEvents(); total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	out := m.newResults
	m.newResults = nil
	return out
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
	case m.inner.Analysis() != snap.Analysis:
		if err := m.inner.Rebase(snap.Analysis); err != nil {
			m.inner = monitor.NewWithAnalysis(snap.Analysis)
		}
	}
}

// defineLocked registers a completed interval with the persistent inner
// monitor, once per inner monitor. A Define failure (bogus event IDs)
// poisons the name: the error is recorded and returned to every later
// reference, so each condition touching the interval settles Failed.
func (m *Monitor) defineLocked(name string) error {
	iv := m.ivs[name]
	if iv.defErr != nil {
		return iv.defErr
	}
	if iv.inner == m.inner {
		return nil
	}
	if err := m.inner.Define(name, iv.events); err != nil {
		iv.defErr = err
		return err
	}
	iv.inner = m.inner
	return nil
}

// checkIncrementalLocked drains the ready queue: each unblocked condition
// has its intervals defined (once) and is evaluated with its compiled
// expression against the persistent inner monitor. The snapshot (and its
// rebase) is only taken when something is actually ready, so a Poll with
// nothing to do costs O(1).
func (m *Monitor) checkIncrementalLocked() {
	if len(m.ready) == 0 {
		return
	}
	todo := m.ready
	m.ready = nil
	m.ensureInnerLocked()
	for _, cs := range todo {
		c := cs.c
		if c == nil {
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
			m.settle(cs, monitor.Result{Name: c.Name, State: monitor.Failed, Err: defErr})
			continue
		}
		res := m.inner.CheckCondition(c)
		if res.State == monitor.Pending {
			// Defensive: a ready condition has every reference defined, so
			// the inner monitor cannot report Pending; if it ever does,
			// re-queue rather than lose the condition.
			m.ready = append(m.ready, cs)
			continue
		}
		m.settle(cs, res)
	}
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
// the answer is final once both intervals are complete. The query runs
// against the persistent inner monitor, sharing its interval definitions
// with the check loop.
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
