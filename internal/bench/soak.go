package bench

import (
	"fmt"
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
// The unbounded monitor pays an O(stream length) snapshot rebuild per
// settlement, so only points under soakUnboundedCap run the unbounded
// comparison leg — that is where its linear memory and superlinear time
// growth are measured; beyond the cap the run would take hours, which is the
// pathology this experiment documents, not a leg worth waiting on.
func DefaultSoakConfigs() []SoakConfig {
	return []SoakConfig{
		{Procs: 8, Rounds: 2_000, Window: 512, Every: 128},
		{Procs: 8, Rounds: 16_000, Window: 512, Every: 128},
		{Procs: 8, Rounds: 128_000, Window: 512, Every: 128},
	}
}

// soakUnboundedCap is the event count above which SoakSweep skips the
// unbounded leg (see DefaultSoakConfigs).
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

// runSoak drives the soak workload once. Unlike the E14 harness it does not
// pre-generate an execution: the input events are created on the stream as
// the rounds progress, so the measured heap is the monitor's working set and
// not a pre-built poset masking it. Each round appends one causal lap of the
// ring (proc p receives from its predecessor's send), observes every event
// into the interval "round-r", completes it, registers the condition
// "ordered-(r-1)": R1(round-(r-1), round-r), and polls for settlement
// deltas, which are folded into an FNV-64a verdict-trace hash.
func runSoak(cfg SoakConfig, policy *online.RetentionPolicy, reg *obs.Registry, tr *obs.Tracer) (soakLeg, error) {
	var leg soakLeg
	var m0, ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	s := online.NewStream(cfg.Procs)
	s.Instrument(reg, tr)
	m := online.NewMonitor(s)
	m.Instrument(reg)
	if policy != nil {
		if err := m.SetRetention(*policy); err != nil {
			return leg, err
		}
	}

	h := fnv.New64a()
	drain := func() {
		for _, r := range m.Poll() {
			fmt.Fprintf(h, "%s=%s;", r.Name, r.State)
			if r.Err != nil {
				fmt.Fprintf(h, "err=%v;", r.Err)
			}
			leg.settled++
		}
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
	var prev poset.EventID
	havePrev := false
	for r := 0; r < cfg.Rounds; r++ {
		name := fmt.Sprintf("round-%d", r)
		for p := 0; p < cfg.Procs; p++ {
			var e poset.EventID
			var err error
			if !havePrev {
				e, err = s.Send(p)
			} else {
				e, err = s.Recv(p, prev)
			}
			if err != nil {
				return leg, fmt.Errorf("bench: soak append round %d proc %d: %w", r, p, err)
			}
			if err := m.Observe(name, e); err != nil {
				return leg, fmt.Errorf("bench: soak observe %s: %w", name, err)
			}
			prev, havePrev = e, true
		}
		if err := m.Complete(name); err != nil {
			return leg, fmt.Errorf("bench: soak complete %s: %w", name, err)
		}
		if r > 0 {
			cond := fmt.Sprintf("ordered-%d", r-1)
			expr := fmt.Sprintf("R1(round-%d, round-%d)", r-1, r)
			if err := m.AddCondition(cond, expr); err != nil {
				return leg, fmt.Errorf("bench: soak condition %s: %w", cond, err)
			}
		}
		drain()
		if ret := s.RetainedEvents(); ret > leg.retainedMax {
			leg.retainedMax = ret
		}
		if r%sampleEvery == 0 {
			sample()
		}
	}
	drain()
	leg.elapsed = time.Since(start) - sampling
	sample()
	leg.retainedEnd = s.RetainedEvents()
	if ret := leg.retainedEnd; ret > leg.retainedMax {
		leg.retainedMax = ret
	}
	leg.hash = h.Sum64()
	if policy != nil {
		leg.released = m.RetentionStats().Released
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
