package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/sim"
)

// StreamConfig is one point of the E14 sweep: a ring workload of Rounds
// rounds over Procs processes, with one R1 condition per consecutive round
// pair, driven through the online monitor loop (append + Observe/Complete +
// Poll after every event).
type StreamConfig struct {
	Procs  int
	Rounds int
}

// DefaultStreamConfigs is the E14 sweep grid. Rounds is the axis that
// separates the paths: every round completion settles a condition, and the
// cold baseline pays a full rebuild (deep-copied execution + two
// O(|E|·|P|) clock passes) for each one, so its total cost grows
// quadratically in rounds while the incremental path stays linear.
func DefaultStreamConfigs() []StreamConfig {
	return []StreamConfig{{Procs: 8, Rounds: 4}, {Procs: 8, Rounds: 16}, {Procs: 8, Rounds: 64}, {Procs: 8, Rounds: 256}}
}

// StreamRow is one measured point of experiment E14: the steady-state online
// monitor loop against the cold-recompute baseline (runCold). Per-event
// costs cover the whole loop (append + interval bookkeeping + check); the
// Check columns isolate the amortized check cost (Poll, online). The Leg
// columns are the baseline's.
type StreamRow struct {
	Procs     int
	Rounds    int
	Events    int     // appended events per run
	IncNs     float64 // ns per event, online monitor
	LegNs     float64 // ns per event, cold recompute
	IncEvSec  float64 // events per second, online monitor
	LegEvSec  float64 // events per second, cold recompute
	IncAllocs float64 // heap allocations per event, online monitor
	LegAllocs float64 // heap allocations per event, cold recompute
	IncCheck  float64 // amortized Poll ns per event, online monitor
	LegCheck  float64 // amortized recompute ns per event, cold recompute
	Speedup   float64 // LegNs / IncNs
	Agree     bool    // identical final verdict vectors, none pending
}

// streamWorkload prepares the generated execution and the per-round
// condition set of one sweep point.
func streamWorkload(cfg StreamConfig, seed int64) (*sim.Result, [][2]string) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: cfg.Procs, Rounds: cfg.Rounds, Seed: seed})
	var conds [][2]string
	for i := 0; i+1 < len(res.Phases); i++ {
		conds = append(conds, [2]string{
			fmt.Sprintf("ordered-%d", i),
			fmt.Sprintf("R1(%s, %s)", res.Phases[i].Name, res.Phases[i+1].Name),
		})
	}
	return res, conds
}

// streamRun is one measured replay: its wall-clock time, the time spent
// checking, the heap allocations of the run, and the rendered final
// verdicts.
type streamRun struct {
	elapsed  time.Duration
	checkNs  int64
	allocs   uint64
	verdicts string
}

// phaseIndex maps every phase event to its phase and counts each phase's
// events still to come.
func phaseIndex(res *sim.Result) (phaseOf map[poset.EventID]int, remaining []int) {
	phaseOf = make(map[poset.EventID]int, res.Exec.NumEvents())
	remaining = make([]int, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	return phaseOf, remaining
}

// timedRun runs loop once between two runtime.MemStats readings and fills
// in the elapsed time and allocation count of r.
func timedRun(r *streamRun, loop func() error) error {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := loop()
	r.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.allocs = m1.Mallocs - m0.Mallocs
	return err
}

// runStream drives one full monitored replay through the online monitor,
// calling Poll after every event. The final verdict vector lists every
// condition in registration order, Pending where Poll never delivered one.
func runStream(res *sim.Result, conds [][2]string, reg *obs.Registry, tr *obs.Tracer) (streamRun, error) {
	s := online.NewStream(res.Exec.NumProcs())
	s.Instrument(reg, tr)
	m := online.NewMonitor(s)
	m.Instrument(reg)
	for _, c := range conds {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			return streamRun{}, err
		}
	}
	phaseOf, remaining := phaseIndex(res)
	settled := make(map[string]monitor.State, len(conds))
	var r streamRun
	err := timedRun(&r, func() error {
		_, err := online.ReplayStepsOn(s, res.Exec, func(_ *online.Stream, e poset.EventID) error {
			pi := phaseOf[e]
			if err := m.Observe(res.Phases[pi].Name, e); err != nil {
				return err
			}
			remaining[pi]--
			if remaining[pi] == 0 {
				if err := m.Complete(res.Phases[pi].Name); err != nil {
					return err
				}
			}
			c0 := time.Now()
			for _, out := range m.Poll() {
				settled[out.Name] = out.State
			}
			r.checkNs += time.Since(c0).Nanoseconds()
			return nil
		})
		return err
	})
	if err != nil {
		return streamRun{}, err
	}
	var v strings.Builder
	for _, c := range conds {
		fmt.Fprintf(&v, "%s=%s;", c[0], settled[c[0]])
	}
	r.verdicts = v.String()
	return r, nil
}

// runCold is the E14 baseline: the same replay with nothing incremental.
// It mirrors every event into a poset.Builder, and at each completion that
// makes conditions ready it rebuilds the prefix from scratch — Build's deep
// copy, then monitor.New with its cold clock tables — defines the ready
// conditions' intervals and evaluates them. By verdict stability each
// condition is evaluated once, when it becomes ready.
func runCold(res *sim.Result, conds [][2]string) (streamRun, error) {
	compiled := make([]*monitor.Condition, len(conds))
	for i, c := range conds {
		expr, err := monitor.Parse(c[1])
		if err != nil {
			return streamRun{}, err
		}
		compiled[i] = monitor.NewCondition(c[0], c[1], expr)
	}
	phaseOf, remaining := phaseIndex(res)
	complete := make(map[string][]poset.EventID, len(res.Phases))
	settled := make([]monitor.State, len(compiled))
	ready := func(c *monitor.Condition) bool {
		for _, ref := range c.Refs() {
			if _, ok := complete[ref]; !ok {
				return false
			}
		}
		return true
	}
	recompute := func(b *poset.Builder) error {
		var mon *monitor.Monitor
		for i, c := range compiled {
			if settled[i] != monitor.Pending || !ready(c) {
				continue
			}
			if mon == nil {
				ex, err := b.Build()
				if err != nil {
					return err
				}
				mon = monitor.New(ex)
			}
			for _, ref := range c.Refs() {
				if _, ok := mon.Interval(ref); ok {
					continue
				}
				if err := mon.Define(ref, complete[ref]); err != nil {
					return err
				}
			}
			a := mon.Analysis()
			settled[i] = monitor.Evaluate(c, monitor.AnalysisOperands(a, mon.Interval), a.FastCounters()).State
		}
		return nil
	}
	var r streamRun
	err := timedRun(&r, func() error {
		sendFor := make(map[poset.EventID]poset.EventID, len(res.Exec.Messages()))
		for _, msg := range res.Exec.Messages() {
			sendFor[msg.To] = msg.From
		}
		b := poset.NewBuilder(res.Exec.NumProcs())
		for _, e := range res.Exec.LinearExtension() {
			b.Append(e.Proc)
			if from, ok := sendFor[e]; ok {
				if err := b.Message(from, e); err != nil {
					return err
				}
			}
			pi := phaseOf[e]
			if remaining[pi]--; remaining[pi] > 0 {
				continue
			}
			complete[res.Phases[pi].Name] = res.Phases[pi].Events
			c0 := time.Now()
			if err := recompute(b); err != nil {
				return err
			}
			r.checkNs += time.Since(c0).Nanoseconds()
		}
		return nil
	})
	if err != nil {
		return streamRun{}, err
	}
	var v strings.Builder
	for i, c := range compiled {
		fmt.Fprintf(&v, "%s=%s;", c.Name, settled[i])
	}
	r.verdicts = v.String()
	return r, nil
}

// StreamSweep runs E14: for each config it replays the same ring workload
// through the online monitor loop and through the cold-recompute baseline,
// reps times each (keeping the fastest run, averaging allocations), and
// cross-checks that both settle every condition with identical verdicts.
func StreamSweep(cfgs []StreamConfig, reps int, seed int64) ([]StreamRow, error) {
	return StreamSweepObs(cfgs, reps, seed, nil, nil)
}

// StreamSweepObs is StreamSweep with the online streams and monitors
// instrumented against reg and tr (either may be nil), so the online.* and
// monitor.* instruments accumulate across the sweep and land in benchtab's
// JSON report.
func StreamSweepObs(cfgs []StreamConfig, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) ([]StreamRow, error) {
	if reps < 1 {
		reps = 1
	}
	rows := make([]StreamRow, 0, len(cfgs))
	for _, cfg := range cfgs {
		res, conds := streamWorkload(cfg, seed)
		events := res.Exec.NumEvents()
		measure := func(run func() (streamRun, error)) (ns, evSec, allocsEv, checkEv float64, verdicts string, err error) {
			var bestElapsed time.Duration
			var bestCheck, allocSum int64
			for r := 0; r < reps; r++ {
				sr, err := run()
				if err != nil {
					return 0, 0, 0, 0, "", err
				}
				if r == 0 || sr.elapsed < bestElapsed {
					bestElapsed = sr.elapsed
				}
				if r == 0 || sr.checkNs < bestCheck {
					bestCheck = sr.checkNs
				}
				allocSum += int64(sr.allocs)
				verdicts = sr.verdicts
			}
			ns = float64(bestElapsed.Nanoseconds()) / float64(events)
			if bestElapsed > 0 {
				evSec = float64(events) / bestElapsed.Seconds()
			}
			allocsEv = float64(allocSum) / float64(reps) / float64(events)
			checkEv = float64(bestCheck) / float64(events)
			return ns, evSec, allocsEv, checkEv, verdicts, nil
		}
		row := StreamRow{Procs: cfg.Procs, Rounds: cfg.Rounds, Events: events}
		var incV, legV string
		var err error
		inc := func() (streamRun, error) { return runStream(res, conds, reg, tr) }
		cold := func() (streamRun, error) { return runCold(res, conds) }
		if row.IncNs, row.IncEvSec, row.IncAllocs, row.IncCheck, incV, err = measure(inc); err != nil {
			return nil, fmt.Errorf("bench: stream sweep %dx%d online: %w", cfg.Procs, cfg.Rounds, err)
		}
		if row.LegNs, row.LegEvSec, row.LegAllocs, row.LegCheck, legV, err = measure(cold); err != nil {
			return nil, fmt.Errorf("bench: stream sweep %dx%d cold: %w", cfg.Procs, cfg.Rounds, err)
		}
		row.Agree = incV == legV && !strings.Contains(incV, monitor.Pending.String())
		if row.IncNs > 0 {
			row.Speedup = row.LegNs / row.IncNs
		}
		rows = append(rows, row)
	}
	return rows, nil
}
