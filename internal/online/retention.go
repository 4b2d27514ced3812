package online

import (
	"errors"
	"fmt"
	"time"

	"causet/internal/monitor"
	"causet/internal/obs/logx"
	"causet/internal/poset"
)

// RetentionPolicy bounds the memory of a long-running Monitor. With a policy
// set (SetRetention), the monitor periodically appraises its state: settled
// intervals age out of a window and are released, idle growing intervals can
// be abandoned (opt-in), and the stream is compacted below the greatest
// prefix nothing live still needs. Verdicts are unchanged by release and
// compaction — settled verdicts are final by verdict stability, and the
// watermark never passes an event a pending condition could still consult
// (the differential agreement suite and FuzzCompactionAgreement pin this).
// Abandonment is the one knob that does change verdicts (waiting conditions
// settle Failed), which is why it defaults to off.
type RetentionPolicy struct {
	// MaxEvents releases a settled completed interval once this many stream
	// events have been appended since its completion (or since the last
	// condition referencing it settled, whichever is later). 0 disables the
	// event-count window.
	MaxEvents int

	// MaxAge is the duration analogue of MaxEvents, measured on the
	// monitor's clock (SetNow). 0 disables the age window. When both
	// windows are set, either one expiring releases the interval.
	MaxAge time.Duration

	// AbandonAfter evicts a growing interval that has seen no Observe for
	// this many appended events, settling every condition waiting on it as
	// Failed and counting monitor.abandoned_intervals. 0 (the default)
	// never abandons: abandonment changes verdicts, so it is strictly
	// opt-in.
	AbandonAfter int

	// DropSettled additionally releases the per-condition state (compiled
	// expression, latency gauge) of settled conditions once they age out of
	// the same window. Final verdicts remain queryable forever through the
	// settled map, but Check stops listing dropped conditions — use Poll,
	// which reports each verdict exactly once, as the delivery path.
	DropSettled bool

	// Every is the appraisal cadence in appended events (default 256).
	// Lower values bound memory tighter at more compaction overhead.
	Every int
}

// SetRetention enables retention under the given policy. At least one of
// MaxEvents / MaxAge must be positive.
func (m *Monitor) SetRetention(p RetentionPolicy) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.MaxEvents <= 0 && p.MaxAge <= 0 {
		return errors.New("online: retention policy must set MaxEvents or MaxAge")
	}
	if p.Every <= 0 {
		p.Every = 256
	}
	m.retention = p
	m.retainOn = true
	total := m.stream.TotalEvents()
	m.lastAppraise = total
	// Intervals completed before retention was enabled enter the window now.
	for name := range m.complete {
		if _, ok := m.completedSeq[name]; !ok {
			m.completedSeq[name] = total
		}
	}
	for name := range m.growing {
		if _, ok := m.observedSeq[name]; !ok {
			m.observedSeq[name] = total
		}
	}
	return nil
}

// RetentionStats is a point-in-time summary of the retention subsystem, for
// dashboards and tests.
type RetentionStats struct {
	Enabled   bool
	Policy    RetentionPolicy
	Watermark []int // last applied compaction watermark (nil before the first)
	Released  int   // settled intervals released so far
	Abandoned int   // growing intervals abandoned so far
	Held      int   // completed intervals currently retained
	Growing   int   // intervals currently growing
	Retained  int   // stream events currently carrying per-event state
}

// RetentionStats reports the current retention state. Cheap enough for a
// dashboard refresh; Retained takes the stream lock.
func (m *Monitor) RetentionStats() RetentionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := RetentionStats{
		Enabled:  m.retainOn,
		Policy:   m.retention,
		Held:     len(m.complete),
		Growing:  len(m.growing),
		Retained: m.stream.RetainedEvents(),
	}
	if m.watermark != nil {
		st.Watermark = append([]int(nil), m.watermark...)
	}
	for _, why := range m.retired {
		if why == retiredAbandoned {
			st.Abandoned++
		} else {
			st.Released++
		}
	}
	return st
}

// Poll runs the check loop and returns only the conditions that settled
// since the previous Poll (or Check, which also consumes the delta). Unlike
// Check it never assembles the full O(#conditions) result slice, so a
// long-horizon driver can call it per event without going quadratic.
func (m *Monitor) Poll() []monitor.Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainLocked()
	out := m.newResults
	m.newResults = nil
	return out
}

// CompactNow forces a retention appraisal immediately, ignoring the Every
// cadence: abandonment, releases, and stream compaction all run. Test hook
// and shutdown aid; a no-op without a policy.
func (m *Monitor) CompactNow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.retainOn {
		return
	}
	m.appraiseLocked(m.stream.TotalEvents())
}

const (
	retiredReleased  = "released"
	retiredAbandoned = "abandoned"
)

// retiredErr renders the error every operation on a retired interval gets.
func retiredErr(name, why string) error {
	return fmt.Errorf("online: interval %q was %s by retention", name, why)
}

// maybeRetainLocked runs an appraisal when the cadence says so. Caller
// holds m.mu.
func (m *Monitor) maybeRetainLocked() {
	if !m.retainOn {
		return
	}
	total := m.stream.TotalEvents()
	if total-m.lastAppraise < m.retention.Every {
		return
	}
	m.appraiseLocked(total)
}

// outOfWindowLocked reports whether a retention window starting at (seq, at)
// has expired at stream position total / clock now.
func (m *Monitor) outOfWindowLocked(total int, now time.Time, seq int, at time.Time) bool {
	if m.retention.MaxEvents > 0 && total-seq > m.retention.MaxEvents {
		return true
	}
	if m.retention.MaxAge > 0 && !at.IsZero() && now.Sub(at) > m.retention.MaxAge {
		return true
	}
	return false
}

// appraiseLocked is one retention pass: abandon idle growing intervals
// (opt-in), release settled intervals out of the window, drop settled
// condition state (opt-in), then compact the stream below everything still
// needed. Caller holds m.mu.
func (m *Monitor) appraiseLocked(total int) {
	m.lastAppraise = total
	now := m.nowFn()

	// 1. Abandonment (opt-in): growing intervals nobody has touched for
	// AbandonAfter events will plausibly never complete; evict them and
	// fail their waiters so the waiters stop pinning memory too.
	if m.retention.AbandonAfter > 0 {
		for name, last := range m.observedSeq {
			if total-last <= m.retention.AbandonAfter {
				continue
			}
			delete(m.growing, name)
			delete(m.observedSeq, name)
			m.retired[name] = retiredAbandoned
			m.metAbandoned.Add(1)
			m.lg.Warn("interval_abandoned",
				logx.F("interval", name), logx.F("idle_events", total-last))
			err := retiredErr(name, retiredAbandoned)
			for _, pc := range m.waiting[name] {
				if _, done := m.settled[pc.c.Name]; !done {
					m.settle(pc.c, monitor.Result{Name: pc.c.Name, State: monitor.Failed, Err: err})
				}
			}
			delete(m.waiting, name)
		}
	}

	// 2. Release settled completed intervals. refCount > 0 means an
	// unsettled condition still references the interval — its events and
	// completion stamp must survive (the stamp is what keeps detection-
	// latency gauges honest for conditions that settle during a compaction
	// epoch). The window restarts at last use (the final referencing
	// settlement), so StrongestBetween queried at settlement time always
	// finds its operands.
	for name, seq := range m.completedSeq {
		if m.refCount[name] > 0 {
			continue
		}
		useSeq := seq
		if u, ok := m.lastUseSeq[name]; ok && u > useSeq {
			useSeq = u
		}
		useAt := m.completedAt[name]
		if u, ok := m.lastUseAt[name]; ok && u.After(useAt) {
			useAt = u
		}
		if !m.outOfWindowLocked(total, now, useSeq, useAt) {
			continue
		}
		delete(m.complete, name)
		delete(m.completedSeq, name)
		delete(m.completedAt, name)
		delete(m.lastUseSeq, name)
		delete(m.lastUseAt, name)
		delete(m.refCount, name)
		delete(m.defined, name)
		if m.inner != nil {
			m.inner.Undefine(name)
		}
		m.retired[name] = retiredReleased
		m.metReleased.Add(1)
	}

	// 3. Drop settled condition state (opt-in). The verdict stays in
	// m.settled — tiny and final — while the compiled expression goes; a
	// name can therefore never be re-added and re-settled.
	if m.retention.DropSettled {
		kept := m.conditions[:0]
		for _, c := range m.conditions {
			seq, settled := m.settleSeq[c.Name]
			if settled && m.outOfWindowLocked(total, now, seq, m.settleAt[c.Name]) {
				delete(m.settleSeq, c.Name)
				delete(m.settleAt, c.Name)
				// The per-condition latency gauge is minted from the condition
				// name — unbounded input on a long stream — so it retires with
				// the condition state, keeping registry (and sampler/tsdb)
				// cardinality bounded by the window.
				m.reg.RemoveGauge("online.detect_latency.cond." + c.Name)
				continue
			}
			kept = append(kept, c)
		}
		clear(m.conditions[len(kept):])
		m.conditions = kept
	}

	// 4. Compact the stream below everything still needed: every retained
	// completed interval, every growing interval. The stream further clamps
	// to pins, the frontier, and the greatest consistent cut.
	w := make([]int, m.stream.NumProcs())
	counts := m.stream.Counts()
	for p := range w {
		if w[p] = counts[p] - 1; w[p] < 0 {
			w[p] = 0
		}
	}
	hold := func(events []poset.EventID) {
		for _, e := range events {
			if e.Proc >= 0 && e.Proc < len(w) && e.Pos-1 < w[e.Proc] {
				w[e.Proc] = e.Pos - 1
			}
		}
	}
	for _, evs := range m.complete {
		hold(evs)
	}
	for _, evs := range m.growing {
		hold(evs)
	}
	applied, _, err := m.stream.Compact(w)
	if err != nil {
		// Compact rejects only a watermark of the wrong length, and w is
		// sized from the stream itself; should it ever fail, surface the
		// error rather than wedge the monitor.
		m.lg.Error("compaction_failed", logx.F("err", err))
		return
	}
	m.watermark = applied
}
