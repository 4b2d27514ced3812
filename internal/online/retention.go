package online

import (
	"errors"
	"fmt"
	"time"

	"causet/internal/monitor"
	"causet/internal/obs/logx"
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

	// Deprecated: ignored; settled condition state is always dropped.
	DropSettled bool

	// Every is the appraisal cadence in appended events (default 256).
	// Lower values bound memory tighter at more compaction overhead.
	Every int
}

// SetRetention enables retention under the given policy. At least one of
// MaxEvents / MaxAge must be positive. It marks the stream as compacted, so
// a replay onto it leaves the rings to grow with the retained window
// instead of sizing them for the whole execution.
func (m *Monitor) SetRetention(p RetentionPolicy) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.MaxEvents <= 0 && p.MaxAge <= 0 {
		return errors.New("online: retention policy must set MaxEvents or MaxAge")
	}
	if p.Every <= 0 {
		p.Every = 256
	}
	total := m.stream.TotalEvents()
	if !m.retainOn {
		// Intervals observed or completed before retention was enabled enter
		// the window now.
		for _, iv := range m.ivs {
			iv.seq = total
		}
	}
	m.retention = p
	m.retainOn = true
	m.stream.mu.Lock()
	m.stream.compacts = true
	m.stream.mu.Unlock()
	m.lastAppraise = total
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
// dashboard refresh: it walks the live interval records only, and Retained
// takes the stream lock.
func (m *Monitor) RetentionStats() RetentionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := RetentionStats{
		Enabled:   m.retainOn,
		Policy:    m.retention,
		Released:  m.released,
		Abandoned: m.abandoned,
		Retained:  m.stream.RetainedEvents(),
	}
	if m.watermark != nil {
		st.Watermark = append([]int(nil), m.watermark...)
	}
	for _, iv := range m.ivs {
		switch {
		case iv.complete:
			st.Held++
		case iv.observed:
			st.Growing++
		}
	}
	return st
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

// appraiseLocked is one retention pass over the interval records: abandon
// idle growing intervals (opt-in), release settled intervals out of the
// window, then compact the stream below everything still held. Caller holds
// m.mu.
func (m *Monitor) appraiseLocked(total int) {
	m.lastAppraise = total
	now := m.nowFn()
	w := make([]int, m.stream.NumProcs())
	counts := m.stream.Counts()
	for p := range w {
		if w[p] = counts[p] - 1; w[p] < 0 {
			w[p] = 0
		}
	}
	for name, iv := range m.ivs {
		switch {
		case !iv.observed:
			continue // only referenced: holds no events
		case !iv.complete && m.retention.AbandonAfter > 0 && total-iv.seq > m.retention.AbandonAfter:
			// Abandonment (opt-in): a growing interval nobody has touched for
			// AbandonAfter events will plausibly never complete; evict it and
			// fail its waiters so they stop pinning memory too.
			delete(m.ivs, name)
			m.retired[name] = retiredAbandoned
			m.abandoned++
			m.metAbandoned.Inc()
			m.lg.Warn("interval_abandoned",
				logx.F("interval", name), logx.F("idle_events", total-iv.seq))
			err := retiredErr(name, retiredAbandoned)
			for _, cs := range iv.waiters {
				if cs.c != nil {
					m.settle(cs, monitor.Result{Name: cs.c.Name, State: monitor.Failed, Err: err})
				}
			}
			continue
		case iv.complete && iv.refs == 0 && m.outOfWindowLocked(total, now, iv.seq, iv.at):
			// Release. refs > 0 means an unsettled condition still references
			// the interval — its events and completion stamp must survive
			// (the stamp keeps detection latency honest for conditions that
			// settle during a compaction epoch). The window restarts at last
			// use, so StrongestBetween queried at settlement time always
			// finds its operands.
			delete(m.ivs, name)
			m.retired[name] = retiredReleased
			m.released++
			m.metReleased.Inc()
			continue
		}
		for _, e := range iv.memberEvents() {
			if e.Proc >= 0 && e.Proc < len(w) && e.Pos-1 < w[e.Proc] {
				w[e.Proc] = e.Pos - 1
			}
		}
	}
	// Compact the stream below everything still held: every retained
	// completed interval, every growing interval. The stream further clamps
	// to pins, the frontier, and the greatest consistent cut.
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
