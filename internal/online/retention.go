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
//
// The same window bounds the names. A released or abandoned interval and a
// settled condition keep their name reserved for one window after they
// retire: inside it every call on the name fails as it did at retirement
// (ErrRetired for an interval, "already defined" for a condition). After it
// the monitor forgets the name, which is then unknown, exactly like a name
// never used: Observe starts a new interval, a condition referencing it
// waits for it, and AddCondition registers a new condition under it.
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
// MaxEvents / MaxAge must be positive. Intervals observed and conditions
// settled before the first call enter the window at that call. It marks the
// stream as compacted, so a replay onto it leaves the rings to grow with the
// retained window instead of sizing them for the whole execution.
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
		// Intervals observed or completed, and conditions settled, before
		// retention was enabled enter the window now.
		for _, iv := range m.ivs {
			iv.seq = total
		}
		now := m.nowFn()
		for name, cs := range m.conds {
			if cs.c == nil {
				m.ledger.Push(retirement{name: name, seq: total, at: now, cond: true})
			}
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

// ErrRetired is the class of the error every call on a released or
// abandoned interval gets while its name is reserved: Observe, Complete and
// StrongestBetween on the name, the Failed result of a condition that
// references it, and the Failed results of an abandoned interval's waiters.
var ErrRetired = errors.New("online: interval retired by retention")

// retiredError is the error of one retired interval; it says why the
// interval went and matches ErrRetired.
type retiredError struct{ name, why string }

func (e *retiredError) Error() string {
	return fmt.Sprintf("online: interval %q was %s by retention", e.name, e.why)
}

func (e *retiredError) Unwrap() error { return ErrRetired }

// retiredErr renders the error every operation on a retired interval gets.
func retiredErr(name, why string) error { return &retiredError{name: name, why: why} }

// retirement is one entry of the ledger: a name that retired at stream
// position seq and monitor time at, a settled condition's when cond is set
// and a released or abandoned interval's otherwise.
type retirement struct {
	name string
	seq  int
	at   time.Time
	cond bool
}

// forgetLocked drops the tombstones of the names that retired a window
// before (total, now), and their ledger entries. The ledger is in
// retirement order, so its stamps never decrease and the entries out of
// the window are a prefix; a clock that steps back keeps names longer,
// never shorter. Caller holds m.mu.
func (m *Monitor) forgetLocked(total int, now time.Time) {
	ledger := m.ledger.Items()
	k := 0
	for ; k < len(ledger); k++ {
		r := &ledger[k]
		if !m.outOfWindowLocked(total, now, r.seq, r.at) {
			break
		}
		if r.cond {
			delete(m.conds, r.name)
		} else {
			delete(m.retired, r.name)
		}
	}
	m.ledger.Pop(k) // the queue's array keeps no name alive
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

// appraiseLocked is one retention pass: forget the names retired a window
// ago, then, over the interval records, abandon idle growing intervals
// (opt-in) and release settled intervals out of the window, and compact the
// stream below everything still held. Caller holds m.mu.
func (m *Monitor) appraiseLocked(total int) {
	m.lastAppraise = total
	now := m.nowFn()
	m.forgetLocked(total, now)
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
			m.ledger.Push(retirement{name: name, seq: total, at: now})
			m.abandoned++
			m.metAbandoned.Inc()
			m.lg.Warn("interval_abandoned",
				logx.F("interval", name), logx.F("idle_events", total-iv.seq))
			err := retiredErr(name, retiredAbandoned)
			for _, cs := range iv.waiters {
				if cs.c != nil {
					m.settle(cs, monitor.Result{Name: cs.c.Name, State: monitor.Failed, Err: err}, now, time.Time{})
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
			m.ledger.Push(retirement{name: name, seq: total, at: now})
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
