package main

import (
	"fmt"
	"runtime"
	"time"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/online"
	"causet/internal/poset"
)

// onlineWorkload is an online workload: a generated script, the retention
// policy the monitor runs under, and the oracle verdict of every condition.
type onlineWorkload struct {
	sc     *script
	policy online.RetentionPolicy
	expect []monitor.State
}

// replay drives one repetition of a script through a fresh Stream and
// Monitor. Its buffers are allocated once per run, before any heap
// baseline, so they never count towards heap_mib.
type replay struct {
	w   *onlineWorkload
	sc  *script
	s   *online.Stream
	m   *online.Monitor
	reg *obs.Registry

	base       time.Time
	last       poset.EventID
	events     int
	decisiveAt []time.Duration // per round: start of its decisive append
	delivered  []uint8         // per condition: verdict state + 1 once delivered
	lat        []time.Duration // detection latencies delivered in the window
	inWindow   bool
	err        error // first API or delivery error
	failed     int

	tr *callTracer // nil in untraced repetitions

	// heapEvery > 0 makes the repetition a heap profile: every heapEvery
	// appended events of the window it forces a collection and folds the
	// exact live heap into heapMax. Its timings are discarded.
	heapEvery int
	heapMax   uint64
}

func newReplay(w *onlineWorkload) *replay {
	return &replay{
		w:          w,
		sc:         w.sc,
		decisiveAt: make([]time.Duration, w.sc.rounds),
		delivered:  make([]uint8, len(w.sc.condRound)),
		lat:        make([]time.Duration, 0, len(w.sc.condRound)),
	}
}

// onlineRep is the outcome of one repetition.
type onlineRep struct {
	setup    time.Duration
	window   time.Duration
	events   int // appended in the window
	ops      int // calls issued in the whole repetition
	verdicts int // delivered in the window
	p50, p99 time.Duration
	heapPeak uint64 // bytes above the pre-set-up baseline
	mallocs  uint64 // heap allocations in the window
	gcShare  float64
	hash     uint64
	counts   []int64 // windowCounters advanced in the window
	retMax   int
	heldMax  int
	failed   int
	cpu      int // the CPU the process was pinned to, or -1
}

// windowCounters are the registry counters a repetition reads around its
// window; all repeat exactly for a given seed.
var windowCounters = []string{"online.snapshots", "core.cut_builds", "core.fast.comparisons"}

func readCounters(r *replay) []int64 {
	out := make([]int64, len(windowCounters))
	for i, name := range windowCounters {
		out[i] = r.reg.Counter(name).Value()
	}
	return out
}

func (r *replay) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// call issues one op and reports how many verdicts a Poll delivered.
func (r *replay) call(o *op, start time.Time) (int, error) {
	switch o.kind {
	case opSend, opRecv:
		var e poset.EventID
		var err error
		if o.kind == opSend {
			e, err = r.s.Send(int(o.proc))
		} else {
			e, err = r.s.Recv(int(o.proc), poset.EventID{Proc: int(o.peer), Pos: int(o.pos)})
		}
		if err != nil {
			return 0, err
		}
		if e.Proc != int(o.proc) {
			return 0, fmt.Errorf("append on p%d returned %v", o.proc, e)
		}
		if o.decisive {
			r.decisiveAt[o.iv] = start.Sub(r.base)
		}
		r.last = e
		r.events++
		return 0, nil
	case opObserve:
		return 0, r.m.Observe(r.sc.intervals.at(o.iv), r.last)
	case opComplete:
		return 0, r.m.Complete(r.sc.intervals.at(o.iv))
	case opAddCondition:
		return 0, r.m.AddCondition(r.sc.condNames.at(o.iv), r.sc.condSrc.at(o.iv))
	case opPoll:
		res := r.m.Poll()
		if len(res) > 0 {
			r.deliver(res, time.Since(r.base))
		}
		return len(res), nil
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// deliver records the verdicts one Poll returned at offset now.
func (r *replay) deliver(res []monitor.Result, now time.Duration) {
	for _, v := range res {
		c, ok := r.sc.condIndex(v.Name)
		if !ok {
			r.fail(fmt.Errorf("unknown condition %q delivered", v.Name))
			continue
		}
		if r.delivered[c] != 0 {
			r.fail(fmt.Errorf("%s delivered twice", v.Name))
			continue
		}
		r.delivered[c] = uint8(v.State) + 1
		if r.inWindow {
			r.lat = append(r.lat, now-r.decisiveAt[r.sc.condRound[c]])
		}
	}
}

// exec issues ops [lo, hi). Untraced, it reads the clock only at decisive
// appends and delivering Polls; traced, it times every call.
func (r *replay) exec(lo, hi int) error {
	ops := r.sc.ops
	for i := lo; i < hi; i++ {
		o := &ops[i]
		var t0 time.Time
		if r.tr != nil || o.decisive {
			t0 = time.Now()
		}
		n, err := r.call(o, t0)
		if r.tr != nil {
			r.tr.record(r, o, n, t0, time.Now())
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, opNames[o.kind], err)
		}
		if r.heapEvery > 0 && r.inWindow && (o.kind == opSend || o.kind == opRecv) &&
			r.events%r.heapEvery == 0 {
			r.heapMax = max(r.heapMax, liveHeap())
		}
	}
	return nil
}

// runRep runs one repetition: set-up (construction plus the warm-up
// prefix), then the timed window over the rest of the script. Forced
// collections happen only before set-up and after the window, except in a
// heap-profile repetition (heapEvery > 0), whose timings are not used.
func (r *replay) runRep(tr *callTracer, heapEvery int) (onlineRep, error) {
	var rep onlineRep
	clear(r.delivered)
	clear(r.decisiveAt)
	r.lat = r.lat[:0]
	r.err, r.failed, r.events, r.inWindow = nil, 0, 0, false
	r.tr, r.heapEvery, r.heapMax = tr, heapEvery, 0

	baseline := liveHeap()
	r.base = time.Now()

	r.reg = obs.New()
	r.s = online.NewStream(r.sc.procs)
	r.s.Instrument(r.reg, nil)
	r.m = online.NewMonitor(r.s)
	r.m.Instrument(r.reg)
	if err := r.m.SetRetention(r.w.policy); err != nil {
		return rep, err
	}
	rep.ops = len(r.sc.ops)
	if err := r.exec(0, r.sc.warmOps); err != nil {
		return r.abort(rep, err), nil
	}
	rep.setup = time.Since(r.base)

	before := readCounters(r)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCCPU()
	r.inWindow = true
	warmEvents := r.events
	if tr != nil {
		tr.begin(r)
	}
	t0 := time.Now()
	err := r.exec(r.sc.warmOps, len(r.sc.ops))
	rep.window = time.Since(t0)
	if tr != nil {
		tr.end(rep.window)
	}
	r.inWindow = false
	if err != nil {
		return r.abort(rep, err), nil
	}
	gc1 := readGCCPU()
	runtime.ReadMemStats(&ms1)
	rep.heapPeak = heapPeak(baseline, r.heapMax)
	rep.counts = readCounters(r)
	for i := range rep.counts {
		rep.counts[i] -= before[i]
	}
	rep.events = r.events - warmEvents
	rep.verdicts = len(r.lat)
	rep.p50, rep.p99 = quantileDur(r.lat, 0.50), quantileDur(r.lat, 0.99)
	rep.mallocs = ms1.Mallocs - ms0.Mallocs
	rep.gcShare = gc1.share(gc0)
	if tr != nil {
		rep.retMax, rep.heldMax = tr.retMax, tr.heldMax
	}
	r.s, r.m, r.reg = nil, nil, nil
	r.checkVerdicts()
	rep.hash = verdictHash(r.delivered)
	rep.failed = r.failed
	return rep, nil
}

// abort ends a repetition an API error stopped: the error and every
// condition it left unsettled count as failures.
func (r *replay) abort(rep onlineRep, err error) onlineRep {
	r.fail(err)
	r.s, r.m, r.reg = nil, nil, nil
	r.checkVerdicts()
	rep.failed = r.failed
	return rep
}

// checkVerdicts compares every delivered verdict with the oracle and counts
// conditions that never settled.
func (r *replay) checkVerdicts() {
	for c, got := range r.delivered {
		switch {
		case got == 0:
			r.fail(fmt.Errorf("%s never settled", r.sc.condNames.at(int32(c))))
		case monitor.State(got-1) != r.w.expect[c]:
			r.fail(fmt.Errorf("%s: got %s, oracle says %s", r.sc.condNames.at(int32(c)),
				monitor.State(got-1), r.w.expect[c]))
		}
	}
}
