package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"causet/internal/obs"
)

// span is one timed public call of a traced run: its name, start (offset
// from the run's start), duration, and the sequence number of the event
// that caused it. Spans of one event share that number.
type span struct {
	name  string
	start time.Duration
	dur   time.Duration
	event int
}

// callStat aggregates the spans of one name.
type callStat struct {
	n     int64
	total time.Duration
	hist  durHist
}

func (c *callStat) add(d time.Duration) {
	c.n++
	c.total += d
	c.hist.add(d)
}

func (c *callStat) mean() time.Duration {
	if c.n == 0 {
		return 0
	}
	return c.total / time.Duration(c.n)
}

// spanSet aggregates spans per name in memory and keeps a bounded raw
// sample for the Chrome trace written at the end of the run.
type spanSet struct {
	origin time.Time
	stats  map[string]*callStat
	sample []span
}

func newSpanSet(keep int) *spanSet {
	return &spanSet{origin: time.Now(), stats: make(map[string]*callStat), sample: make([]span, 0, keep)}
}

// record aggregates one span of d starting at t0 and keeps it in the raw
// sample while there is room.
func (s *spanSet) record(st *callStat, name string, t0 time.Time, d time.Duration, event int) {
	st.add(d)
	if len(s.sample) < cap(s.sample) {
		s.sample = append(s.sample, span{name: name, start: t0.Sub(s.origin), dur: d, event: event})
	}
}

// step records a call that started at t0 and ends now.
func (s *spanSet) step(name string, t0 time.Time, event int) time.Duration {
	d := time.Since(t0)
	s.record(s.stat(name), name, t0, d, event)
	return d
}

func (s *spanSet) stat(name string) *callStat {
	st, ok := s.stats[name]
	if !ok {
		st = &callStat{}
		s.stats[name] = st
	}
	return st
}

// summary renders count, total and quantiles per span name.
func (s *spanSet) summary() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(s.stats))
	for name, st := range s.stats {
		out[name] = map[string]float64{
			"count":   float64(st.n),
			"total_s": st.total.Seconds(),
			"mean_ns": float64(st.mean()),
			"p50_ns":  float64(st.hist.quantile(0.50)),
			"p99_ns":  float64(st.hist.quantile(0.99)),
			"p999_ns": float64(st.hist.quantile(0.999)),
			"max_ns":  float64(st.hist.quantile(1)),
		}
	}
	return out
}

// writeChrome writes the raw span sample as Chrome trace_event JSON; each
// span carries its causing event in args.event.
func (s *spanSet) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, 0, len(s.sample))
	for _, sp := range s.sample {
		evs = append(evs, ev{
			Name: sp.name, Cat: "perfbench", Ph: "X",
			TS: float64(sp.start.Nanoseconds()) / 1e3, Dur: float64(sp.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: 1, Args: map[string]int{"event": sp.event},
		})
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Online call kinds as the traced run attributes them.
const (
	callAppend = iota
	callObserve
	callComplete
	callAddCondition
	callPollEmpty
	callPollSettle
	numCallKinds
)

var callNames = [numCallKinds]string{
	"online.append", "online.observe", "online.complete",
	"online.add_condition", "online.poll_empty", "online.poll_settle",
}

// callTracer times every call of a traced online repetition's window. A
// call during which online.compactions advanced ran a retention appraisal
// and compaction; it is aggregated apart, so the plain per-call means
// exclude appraisal work.
type callTracer struct {
	spans     *spanSet
	plain     [numCallKinds]*callStat
	appraisal [numCallKinds]*callStat

	compactions *obs.Counter
	lastComp    int64
	retMax      int
	heldMax     int
	heldEvery   int // completions between RetentionStats samples
	completes   int
	sampling    time.Duration // RetentionStats sampling, outside every span
	window      time.Duration // traced window minus sampling
	reps        int
}

func newCallTracer(spans *spanSet, completions int) *callTracer {
	t := &callTracer{spans: spans, heldEvery: max(1, completions/64)}
	for k := range t.plain {
		t.plain[k] = spans.stat(callNames[k])
		t.appraisal[k] = spans.stat(callNames[k] + ".appraisal")
	}
	return t
}

func (t *callTracer) begin(r *replay) {
	t.compactions = r.reg.Counter("online.compactions")
	t.lastComp = t.compactions.Value()
	t.retMax, t.heldMax, t.completes, t.sampling = 0, 0, 0, 0
}

func (t *callTracer) end(window time.Duration) {
	t.window += window - t.sampling
	t.reps++
}

func callKind(o *op, delivered int) int {
	switch o.kind {
	case opSend, opRecv:
		return callAppend
	case opObserve:
		return callObserve
	case opComplete:
		return callComplete
	case opAddCondition:
		return callAddCondition
	}
	if delivered > 0 {
		return callPollSettle
	}
	return callPollEmpty
}

// record aggregates one call of the window.
func (t *callTracer) record(r *replay, o *op, delivered int, t0, t1 time.Time) {
	if !r.inWindow {
		return
	}
	k := callKind(o, delivered)
	d := t1.Sub(t0)
	st := t.plain[k]
	if c := t.compactions.Value(); c != t.lastComp {
		st, t.lastComp = t.appraisal[k], c
	}
	t.spans.record(st, callNames[k], t0, d, r.events)
	switch o.kind {
	case opSend, opRecv:
		t.retMax = max(t.retMax, r.s.RetainedEvents())
	case opComplete:
		t.completes++
		if t.completes%t.heldEvery == 0 {
			s0 := time.Now()
			t.heldMax = max(t.heldMax, r.m.RetentionStats().Held)
			t.sampling += time.Since(s0)
		}
	}
}

// layer turns the aggregated calls into the online per-layer metrics.
func (t *callTracer) layer(m map[string]float64) {
	var accounted, extra time.Duration
	var appraisals int64
	for k := 0; k < numCallKinds; k++ {
		p, a := t.plain[k], t.appraisal[k]
		accounted += p.total + a.total
		appraisals += a.n
		extra += a.total - time.Duration(a.n)*p.mean()
		m[callNames[k]+"_ns"] = float64(p.mean().Nanoseconds())
		m[callNames[k]+"_calls"] = float64(p.n+a.n) / float64(max(t.reps, 1))
	}
	settles := t.plain[callPollSettle].n + t.appraisal[callPollSettle].n
	polls := settles + t.plain[callPollEmpty].n + t.appraisal[callPollEmpty].n
	m["online.appraisals"] = float64(appraisals) / float64(max(t.reps, 1))
	if appraisals > 0 {
		m["online.appraisal_ns"] = float64(extra.Nanoseconds()) / float64(appraisals)
	}
	if polls > 0 {
		m["online.poll_hit_ratio"] = float64(settles) / float64(polls)
	}
	m["trace.window_s"] = t.window.Seconds() / float64(max(t.reps, 1))
	if t.window > 0 {
		m["trace.accounted_share"] = float64(accounted) / float64(t.window)
	}
}
