package main

import (
	"fmt"
	"math"
	"time"

	"causet/internal/monitor"
	"causet/internal/online"
)

// newOnlineWorkload generates the script and computes its oracle; all of
// it happens before any set-up or timed phase.
func newOnlineWorkload(cfg config) (*onlineWorkload, error) {
	z := cfg.size
	w := &onlineWorkload{}
	switch cfg.workload {
	case "ring-soak":
		w.sc = ringScript(z.ringProcs, z.ringWarm, z.ringRounds, cfg.seed)
		w.policy = online.RetentionPolicy{MaxEvents: 512, Every: 128, DropSettled: true}
		// Consecutive laps of a causal chain: every ordered-* holds.
		w.expect = make([]monitor.State, len(w.sc.condRound))
		for c := range w.expect {
			w.expect[c] = monitor.Holds
		}
	case "gossip-wide":
		w.sc = gossipScript(z.gossipProcs, z.gossipWarm, z.gossipRounds, cfg.seed)
		w.policy = online.RetentionPolicy{MaxEvents: 2048, Every: 256, DropSettled: true}
		var err error
		if w.expect, err = scriptOracle(w.sc, z.gossipChunk); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// repLoop runs rounds of repetitions until cfg.seconds have elapsed since
// start, at least one round. Given two or more cpus, a round pins the
// process to each of them in turn for one repetition, so every run spends
// the same share of its window on each CPU: on a shared host the CPUs'
// speeds drift apart, and which one the scheduler happened to pick would
// otherwise shift a whole run. Traced runs follow each untraced repetition
// with a traced one on the same CPU, so both see the same drift of the
// host. The process leaves the loop allowed on all of cpus again.
func repLoop(cfg config, start time.Time, cpus []int, untraced, traced func(cpu int) error) error {
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	slots := []int{-1}
	if len(cpus) >= 2 {
		slots = cpus
	}
	for {
		for _, cpu := range slots {
			if cpu >= 0 {
				if err := pinProcess([]int{cpu}); err != nil {
					return err
				}
			}
			if err := untraced(cpu); err != nil {
				return err
			}
			if cfg.traced {
				if err := traced(cpu); err != nil {
					return err
				}
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	if len(slots) > 1 {
		return pinProcess(cpus)
	}
	return nil
}

func runOnline(cfg config) (*outcome, error) {
	w, err := newOnlineWorkload(cfg)
	if err != nil {
		return nil, err
	}
	sc := w.sc
	rp := newReplay(w)
	start := time.Now()
	spans := newSpanSet(20_000)
	tr := newCallTracer(spans, sc.rounds-sc.warmRounds)
	var plain, traced []onlineRep
	samples := 0
	out := &outcome{values: make(map[string]float64), prov: make(map[string]any)}
	var firstErr error
	collect := func(rep onlineRep) {
		out.attempted += int64(rep.ops + len(sc.condRound))
		out.failed += int64(rep.failed)
		if rep.failed > 0 && firstErr == nil {
			firstErr = rp.err
		}
	}
	// The heap profile: one untimed repetition with exact live-heap readings
	// at 64 evenly spaced points of the window. The traced run reports no
	// heap and skips it.
	var heapRep onlineRep
	if !cfg.traced {
		if heapRep, err = rp.runRep(nil, max(1, (sc.events-sc.warmEvents)/64)); err != nil {
			return nil, err
		}
		collect(heapRep)
	}
	// The repetitions take turns on the allowed CPUs if the process may pin
	// itself to them, and otherwise run wherever the scheduler puts them.
	cpus := allowedCPUs()
	if len(cpus) >= 2 {
		if err := pinProcess(cpus); err != nil {
			out.prov["cpu_pinning_error"] = err.Error()
			cpus = nil
		}
	}
	out.prov["cpus"] = cpus
	err = repLoop(cfg, start, cpus, func(cpu int) error {
		rep, err := rp.runRep(nil, 0)
		if err != nil {
			return err
		}
		rep.cpu = cpu
		collect(rep)
		plain = append(plain, rep)
		samples += rep.verdicts
		return nil
	}, func(int) error {
		rep, err := rp.runRep(tr, 0)
		if err != nil {
			return err
		}
		collect(rep)
		traced = append(traced, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Throughput is over the whole timed window of the run and latency the
	// mean over its repetitions: the repetitions alternate CPUs, so a
	// median would fall between the CPUs' two speeds and jump with them.
	v := out.values
	opsPerS := func(r onlineRep) float64 { return float64(r.events) / r.window.Seconds() }
	p99 := func(r onlineRep) float64 { return float64(r.p99.Nanoseconds()) / 1e3 }
	v["ops_per_s"] = windowRate(plain)
	v["latency_p50_us"] = meanOf(plain, func(r onlineRep) float64 { return float64(r.p50.Nanoseconds()) / 1e3 })
	v["latency_p99_us"] = meanOf(plain, p99)
	v["heap_mib"] = float64(heapRep.heapPeak) / (1 << 20)
	v["setup_s"] = medianOf(plain, func(r onlineRep) float64 { return r.setup.Seconds() })
	v["online.allocs_per_event"] = medianOf(plain, func(r onlineRep) float64 { return float64(r.mallocs) / float64(r.events) })
	v["gc.cpu_share"] = medianOf(plain, func(r onlineRep) float64 { return r.gcShare })

	p0 := plain[0]
	prov := out.prov
	prov["reps"] = len(plain)
	prov["rep_cpu"] = perRep(plain, func(r onlineRep) float64 { return float64(r.cpu) })
	prov["rep_ops_per_s"] = perRep(plain, opsPerS)
	prov["rep_setup_s"] = perRep(plain, func(r onlineRep) float64 { return r.setup.Seconds() })
	prov["rep_p99_us"] = perRep(plain, p99)
	prov["rep_window_end_heap_mib"] = perRep(plain, func(r onlineRep) float64 { return float64(r.heapPeak) / (1 << 20) })
	prov["warm_events"] = sc.warmEvents
	prov["events_per_rep"] = p0.events
	prov["conditions"] = len(sc.condRound)
	prov["verdicts_per_rep"] = p0.verdicts
	prov["latency_samples"] = samples
	prov["verdict_mix"] = verdictMix(rp.delivered)
	prov["verdict_hash"] = fmt.Sprintf("%016x", p0.hash)
	if firstErr != nil {
		prov["first_error"] = firstErr.Error()
	}

	if cfg.traced {
		t0 := traced[0]
		tr.layer(v)
		verdicts := float64(max(t0.verdicts, 1))
		v["online.events"] = float64(t0.events)
		v["online.verdicts"] = float64(t0.verdicts)
		v["online.snapshots_per_verdict"] = float64(t0.counts[0]) / verdicts
		v["core.cut_builds_per_verdict"] = float64(t0.counts[1]) / verdicts
		v["core.fast.comparisons_per_verdict"] = float64(t0.counts[2]) / verdicts
		v["online.retained_events_max"] = float64(t0.retMax)
		v["online.held_intervals_max"] = float64(t0.heldMax)
		v["trace.overhead"] = windowRate(traced) / v["ops_per_s"]
		v["trace.reps"] = float64(len(traced))
		prov["traced_reps"] = len(traced)
		prov["spans"] = spans.summary()
		prov["spans_out"] = cfg.spansOut
		if err := spans.writeChrome(cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// windowRate is the events appended per second over the timed windows of
// all the repetitions together.
func windowRate(reps []onlineRep) float64 {
	var events int
	var window time.Duration
	for _, r := range reps {
		events += r.events
		window += r.window
	}
	return float64(events) / window.Seconds()
}

// meanOf is the mean of f over the repetitions.
func meanOf[R any](reps []R, f func(R) float64) float64 {
	var sum float64
	for _, r := range reps {
		sum += f(r)
	}
	return sum / float64(len(reps))
}

// medianOf is the median of f over the repetitions.
func medianOf[R any](reps []R, f func(R) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// perRep lists one value per repetition, in run order, to four significant
// digits.
func perRep[R any](reps []R, f func(R) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		v := f(r)
		if v != 0 {
			scale := math.Pow(10, 3-math.Floor(math.Log10(math.Abs(v))))
			v = math.Round(v*scale) / scale
		}
		out[i] = v
	}
	return out
}

func verdictMix(delivered []uint8) map[string]int {
	mix := make(map[string]int)
	for _, d := range delivered {
		if d == 0 {
			mix["unsettled"]++
			continue
		}
		mix[monitor.State(d-1).String()]++
	}
	return mix
}

func runOffline(cfg config) (*outcome, error) {
	z := cfg.size
	input, err := gossipTrace(z.matrixProcs, z.matrixRounds, cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &offlineWorkload{input: input, workers: matrixWorkers}
	if err := w.matrixOracle(cfg.seed, z.spotChecks); err != nil {
		return nil, err
	}
	start := time.Now()
	spans := newSpanSet(4096)
	var plain, traced []offlineRep
	out := &outcome{values: make(map[string]float64), prov: make(map[string]any)}
	collect := func(rep offlineRep) {
		out.attempted += int64(w.pairs)
		out.failed += int64(rep.failed)
	}
	err = repLoop(cfg, start, nil, func(int) error {
		rep, err := w.runRep(nil, 0)
		if err != nil {
			return err
		}
		collect(rep)
		plain = append(plain, rep)
		return nil
	}, func(int) error {
		rep, err := w.runRep(spans, len(traced))
		if err != nil {
			return err
		}
		collect(rep)
		traced = append(traced, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.attempted += int64(w.spotted)
	out.failed += int64(w.spotFailed)

	v := out.values
	pairsPerS := func(r offlineRep) float64 { return float64(w.pairs) / r.job.Seconds() }
	jobs := make([]time.Duration, 0, len(plain))
	for _, r := range plain {
		jobs = append(jobs, r.job)
	}
	v["ops_per_s"] = medianOf(plain, pairsPerS)
	v["latency_p50_us"] = float64(quantileDur(jobs, 0.50).Nanoseconds()) / 1e3
	v["latency_p99_us"] = float64(quantileDur(jobs, 0.99).Nanoseconds()) / 1e3
	v["heap_mib"] = medianOf(plain, func(r offlineRep) float64 { return float64(r.heapPeak) / (1 << 20) })
	v["setup_s"] = medianOf(plain, func(r offlineRep) float64 { return r.setup.Seconds() })
	v["gc.cpu_share"] = medianOf(plain, func(r offlineRep) float64 { return r.gcShare })

	prov := out.prov
	prov["reps"] = len(plain)
	prov["rep_ops_per_s"] = perRep(plain, pairsPerS)
	prov["rep_setup_s"] = perRep(plain, func(r offlineRep) float64 { return r.setup.Seconds() })
	prov["rep_heap_mib"] = perRep(plain, func(r offlineRep) float64 { return float64(r.heapPeak) / (1 << 20) })
	prov["workers"] = w.workers
	prov["pairs_per_rep"] = w.pairs
	prov["intervals"] = z.matrixRounds
	prov["input_bytes"] = len(input)
	prov["spot_checks"] = w.spotted
	prov["matrix_hash"] = fmt.Sprintf("%016x", plain[0].hash)

	if cfg.traced {
		t0 := traced[0]
		pairs := float64(w.pairs)
		for _, name := range []string{"trace.decode", "poset.build", "core.analysis", "interval.build", "core.cut_build", "batch.matrix_warm"} {
			v[name+"_s"] = spans.stat(name).mean().Seconds()
		}
		var accounted, window time.Duration
		for _, st := range spans.stats {
			accounted += st.total
		}
		for _, r := range traced {
			window += r.window
		}
		v["core.cut_builds"] = float64(t0.counts["core.cut_builds"])
		v["batch.pairs"] = pairs
		v["batch.comparisons_per_pair"] = float64(t0.counts["batch.comparisons"]) / pairs
		v["batch.worker_busy_share"] = medianOf(traced, func(r offlineRep) float64 {
			return r.busy.Seconds() / (float64(w.workers) * r.matrixWarm.Seconds())
		})
		v["batch.allocs_per_pair"] = medianOf(traced, func(r offlineRep) float64 { return float64(r.mallocs) / pairs })
		v["trace.overhead"] = medianOf(traced, pairsPerS) / v["ops_per_s"]
		v["trace.window_s"] = window.Seconds() / float64(len(traced))
		v["trace.accounted_share"] = float64(accounted) / float64(window)
		v["trace.reps"] = float64(len(traced))
		prov["traced_reps"] = len(traced)
		prov["spans"] = spans.summary()
		prov["spans_out"] = cfg.spansOut
		if err := spans.writeChrome(cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}
