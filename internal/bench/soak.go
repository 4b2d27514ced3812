package bench

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"causet/internal/obs"
	"causet/internal/online"
	"causet/internal/poset"
)

// SoakConfig is one point of the E15 long-horizon soak: a causal ring chain
// of Rounds rounds over Procs processes driven through the online monitor
// twice — once under a retention policy (MaxEvents=Window, appraisal every
// Every events) and once unbounded — comparing verdict traces, peak heap,
// and retained-event counts between the legs.
type SoakConfig struct {
	Procs  int
	Rounds int
	Window int // retention MaxEvents for the retained leg
	Every  int // retention appraisal cadence in appended events
}

// DefaultSoakConfigs is the E15 grid. The largest point streams over one
// million events (Procs × Rounds), where the retained leg must stay flat at
// the working set (roughly Window + Every events plus the growing round).
// The unbounded monitor holds every event's state, so only points under
// soakUnboundedCap run the unbounded comparison leg — that is where its
// linear memory growth is measured.
func DefaultSoakConfigs() []SoakConfig {
	return []SoakConfig{
		{Procs: 8, Rounds: 2_000, Window: 512, Every: 128},
		{Procs: 8, Rounds: 16_000, Window: 512, Every: 128},
		{Procs: 8, Rounds: 128_000, Window: 512, Every: 128},
	}
}

// soakUnboundedCap is the event count above which SoakSweep skips the
// unbounded leg. Its per-event time stays flat (TestSoakSettlementCostFlat),
// but its memory grows by about 0.45 KiB per event, some 450 MiB at the
// million-event point: that growth is what this experiment documents, not a
// footprint worth paying on every sweep.
const soakUnboundedCap = 40_000

// SoakRow is one measured point of experiment E15. Ret* columns come from
// the primary retention leg, Unb* from the unbounded leg (zero when UnbRan
// is false). Agree means every compared leg produced a byte-identical
// verdict trace (FNV-64a over the Poll deltas in settlement order) and
// settled every condition: the primary retention leg always runs against a
// second retention leg with a different window and appraisal cadence (two
// different compaction schedules agreeing), and under the cap the unbounded
// leg joins the comparison too.
type SoakRow struct {
	Procs  int
	Rounds int
	Events int // appended events per leg
	Window int // retention MaxEvents of the primary retention leg

	RetNs          float64 // ns per event, retention leg (memory sampling excluded)
	UnbNs          float64 // ns per event, unbounded leg (0 unless UnbRan)
	RetHeapPeak    uint64  // peak live heap over baseline, retention leg (bytes)
	UnbHeapPeak    uint64  // peak live heap over baseline, unbounded leg (bytes)
	RetRetainedMax int     // max stream events retained at any point, retention leg
	RetRetainedEnd int     // stream events retained at end of run, retention leg
	UnbRetainedMax int     // max events retained, unbounded leg (== Events when UnbRan)
	Released       int     // intervals released by the primary retention leg
	Settled        int     // conditions settled (all legs when Agree)
	UnbRan         bool    // unbounded comparison leg ran (Events <= cap)
	Agree          bool    // identical verdict traces across legs, every condition settled
}

// soakLeg is the outcome of one monitored replay of the soak workload.
type soakLeg struct {
	elapsed     time.Duration // wall clock minus memory-sampling time
	heapPeak    uint64
	retainedMax int
	retainedEnd int
	settled     int
	pending     int
	hash        uint64
	released    int
}

// soakLoop is one monitored replay of the soak workload. Unlike the E14
// harness it does not pre-generate an execution: the input events are
// created on the stream as the rounds progress, so the measured heap is the
// monitor's working set and not a pre-built poset masking it.
type soakLoop struct {
	procs   int
	s       *online.Stream
	m       *online.Monitor
	h       hash.Hash64
	settled int
	prev    poset.EventID // the last event appended; the next one receives it
}

func newSoakLoop(procs int, policy *online.RetentionPolicy, reg *obs.Registry, tr *obs.Tracer) (*soakLoop, error) {
	s := online.NewStream(procs)
	s.Instrument(reg, tr)
	m := online.NewMonitor(s)
	m.Instrument(reg)
	if policy != nil {
		if err := m.SetRetention(*policy); err != nil {
			return nil, err
		}
	}
	return &soakLoop{procs: procs, s: s, m: m, h: fnv.New64a()}, nil
}

// lap runs round r, after rounds 0..r-1: it appends one causal lap of the
// ring (proc p receives from its predecessor's send), observes every event into the interval
// "round-r", completes it, registers the condition "ordered-(r-1)":
// R1(round-(r-1), round-r), and polls for settlement deltas, which are
// folded into an FNV-64a verdict-trace hash.
func (d *soakLoop) lap(r int) error {
	name := fmt.Sprintf("round-%d", r)
	for p := 0; p < d.procs; p++ {
		var e poset.EventID
		var err error
		if r == 0 && p == 0 {
			e, err = d.s.Send(p)
		} else {
			e, err = d.s.Recv(p, d.prev)
		}
		if err != nil {
			return fmt.Errorf("bench: soak append round %d proc %d: %w", r, p, err)
		}
		if err := d.m.Observe(name, e); err != nil {
			return fmt.Errorf("bench: soak observe %s: %w", name, err)
		}
		d.prev = e
	}
	if err := d.m.Complete(name); err != nil {
		return fmt.Errorf("bench: soak complete %s: %w", name, err)
	}
	if r > 0 {
		cond := fmt.Sprintf("ordered-%d", r-1)
		expr := fmt.Sprintf("R1(round-%d, round-%d)", r-1, r)
		if err := d.m.AddCondition(cond, expr); err != nil {
			return fmt.Errorf("bench: soak condition %s: %w", cond, err)
		}
	}
	d.drain()
	return nil
}

// drain folds the settlement deltas of one Poll into the verdict hash.
func (d *soakLoop) drain() {
	for _, r := range d.m.Poll() {
		fmt.Fprintf(d.h, "%s=%s;", r.Name, r.State)
		if r.Err != nil {
			fmt.Fprintf(d.h, "err=%v;", r.Err)
		}
		d.settled++
	}
}

// runSoak drives the soak workload once, sampling the live heap and the
// retained-event count as the rounds progress.
func runSoak(cfg SoakConfig, policy *online.RetentionPolicy, reg *obs.Registry, tr *obs.Tracer) (soakLeg, error) {
	var leg soakLeg
	var m0, ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	d, err := newSoakLoop(cfg.Procs, policy, reg, tr)
	if err != nil {
		return leg, err
	}
	sampleEvery := cfg.Rounds / 64
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	var sampling time.Duration
	sample := func() {
		t0 := time.Now()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > m0.HeapAlloc && ms.HeapAlloc-m0.HeapAlloc > leg.heapPeak {
			leg.heapPeak = ms.HeapAlloc - m0.HeapAlloc
		}
		sampling += time.Since(t0)
	}

	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		if err := d.lap(r); err != nil {
			return leg, err
		}
		if ret := d.s.RetainedEvents(); ret > leg.retainedMax {
			leg.retainedMax = ret
		}
		if r%sampleEvery == 0 {
			sample()
		}
	}
	d.drain()
	leg.elapsed = time.Since(start) - sampling
	sample()
	leg.retainedEnd = d.s.RetainedEvents()
	if ret := leg.retainedEnd; ret > leg.retainedMax {
		leg.retainedMax = ret
	}
	leg.settled = d.settled
	leg.hash = d.h.Sum64()
	if policy != nil {
		leg.released = d.m.RetentionStats().Released
	}
	return leg, nil
}

// SoakSweep runs E15: each config is replayed under two retention schedules
// (and, under the event cap, unbounded) and the verdict-trace hashes must
// match for Agree.
func SoakSweep(cfgs []SoakConfig) ([]SoakRow, error) {
	return SoakSweepObs(cfgs, nil, nil)
}

// SoakSweepObs is SoakSweep with the streams and monitors instrumented
// against reg and tr (either may be nil), so online.compactions,
// monitor.released_intervals, and friends accumulate into benchtab's JSON
// report.
func SoakSweepObs(cfgs []SoakConfig, reg *obs.Registry, tr *obs.Tracer) ([]SoakRow, error) {
	rows := make([]SoakRow, 0, len(cfgs))
	for _, cfg := range cfgs {
		if cfg.Procs < 1 || cfg.Rounds < 1 {
			return nil, fmt.Errorf("bench: soak config %+v invalid", cfg)
		}
		policy := &online.RetentionPolicy{MaxEvents: cfg.Window, Every: cfg.Every}
		// A second schedule with a wider window and coarser cadence: settled
		// intervals age out at different stream positions and the watermark
		// advances in different steps, so the two legs agreeing pins verdict
		// preservation across compaction schedules even when the unbounded
		// leg is too expensive to run.
		altPolicy := &online.RetentionPolicy{MaxEvents: 4*cfg.Window + 32, Every: 2*cfg.Every + 16}
		ret, err := runSoak(cfg, policy, reg, tr)
		if err != nil {
			return nil, fmt.Errorf("bench: soak %dx%d retained: %w", cfg.Procs, cfg.Rounds, err)
		}
		alt, err := runSoak(cfg, altPolicy, reg, tr)
		if err != nil {
			return nil, fmt.Errorf("bench: soak %dx%d alt-retained: %w", cfg.Procs, cfg.Rounds, err)
		}
		events := cfg.Procs * cfg.Rounds
		row := SoakRow{
			Procs: cfg.Procs, Rounds: cfg.Rounds, Events: events, Window: cfg.Window,
			RetHeapPeak:    ret.heapPeak,
			RetRetainedMax: ret.retainedMax, RetRetainedEnd: ret.retainedEnd,
			Released: ret.released,
			Settled:  ret.settled,
		}
		if events > 0 {
			row.RetNs = float64(ret.elapsed.Nanoseconds()) / float64(events)
		}
		wantSettled := cfg.Rounds - 1
		row.Agree = ret.hash == alt.hash &&
			ret.settled == wantSettled && alt.settled == wantSettled
		if events <= soakUnboundedCap {
			unb, err := runSoak(cfg, nil, reg, tr)
			if err != nil {
				return nil, fmt.Errorf("bench: soak %dx%d unbounded: %w", cfg.Procs, cfg.Rounds, err)
			}
			row.UnbRan = true
			row.UnbHeapPeak = unb.heapPeak
			row.UnbRetainedMax = unb.retainedMax
			if events > 0 {
				row.UnbNs = float64(unb.elapsed.Nanoseconds()) / float64(events)
			}
			row.Agree = row.Agree && ret.hash == unb.hash && unb.settled == wantSettled
		}
		rows = append(rows, row)
	}
	return rows, nil
}
