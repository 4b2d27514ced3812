// The E13 detection-latency table: replay seeded workloads — simulator
// patterns and fault-injected protocol runs — through the online monitor
// under a deterministic virtual clock and a polling detector, and report
// the latency quantiles the telemetry instruments record. An external test
// package so the fault plans can come from internal/faultsim (which itself
// imports internal/online).
package online_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"causet/internal/faultsim"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/logx"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/sim"
)

// replayLatency feeds ex through the online monitor with a virtual clock
// advancing 1ms per event and a detector that polls every poll events plus
// once at the end — the model behind the E13 table: detection latency is
// the lag from the decisive interval completion to the poll that settles
// the condition. Returns the settled-condition count, the recorded latency
// window, and the monitor with its registry and JSONL log.
func replayLatency(t *testing.T, ex *poset.Execution, members map[string][]poset.EventID, conds [][2]string, poll int, policy *online.RetentionPolicy) (int, obs.WindowSnapshot, *online.Monitor, *obs.Registry, *bytes.Buffer) {
	t.Helper()
	memberOf := make(map[poset.EventID][]string)
	remaining := make(map[string]int, len(members))
	for name, evs := range members {
		for _, e := range evs {
			memberOf[e] = append(memberOf[e], name)
		}
		remaining[name] = len(evs)
	}

	reg := obs.New()
	var logBuf bytes.Buffer
	base := time.Unix(1_700_000_000, 0)
	vnow := base
	var mon *online.Monitor
	step, settled := 0, 0
	feed := func(s *online.Stream, e poset.EventID) error {
		if mon == nil {
			mon = online.NewMonitor(s)
			mon.Instrument(reg)
			mon.SetLogger(logx.New(&logBuf, logx.Info))
			mon.SetNow(func() time.Time { return vnow })
			if policy != nil {
				if err := mon.SetRetention(*policy); err != nil {
					return err
				}
			}
			for _, c := range conds {
				if err := mon.AddCondition(c[0], c[1]); err != nil {
					return err
				}
			}
		}
		step++
		vnow = base.Add(time.Duration(step) * time.Millisecond)
		for _, name := range memberOf[e] {
			if err := mon.Observe(name, e); err != nil {
				return err
			}
			remaining[name]--
			if remaining[name] == 0 {
				if err := mon.Complete(name); err != nil {
					return err
				}
			}
		}
		if step%poll == 0 {
			settled += len(mon.Poll())
		}
		return nil
	}
	if _, err := online.ReplaySteps(ex, feed); err != nil {
		t.Fatal(err)
	}
	if mon == nil {
		t.Fatal("replay fed no events")
	}
	settled += len(mon.Poll())
	return settled, reg.Snapshot().Windows["online.detect_latency_ns"], mon, reg, &logBuf
}

// settledLatencies reads the condition_settled events of a JSONL monitor
// log: condition name → detect_latency_ns, for the settlements that carry
// one.
func settledLatencies(t *testing.T, log *bytes.Buffer) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(log.Bytes()))
	for sc.Scan() {
		var line struct {
			Event     string `json:"event"`
			Condition string `json:"condition"`
			Latency   *int64 `json:"detect_latency_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line not valid JSON: %v\n%s", err, sc.Text())
		}
		if line.Event == "condition_settled" && line.Latency != nil {
			out[line.Condition] = *line.Latency
		}
	}
	return out
}

// TestDetectionLatencyTable generates the table EXPERIMENTS.md E13 quotes:
// seeded sim patterns and fault plans, a poll every 8 events (8ms of
// virtual time), and the latency quantiles straight from the
// online.detect_latency_ns window. Deterministic end to end — the logged
// numbers reproduce exactly — with the invariants asserted: every
// recorded latency is within one poll interval of the decisive event, and
// quantiles are ordered.
func TestDetectionLatencyTable(t *testing.T) {
	const poll = 8 // events per detector poll; 1 event = 1ms of virtual time

	type workload struct {
		name  string
		ex    *poset.Execution
		ivs   map[string][]poset.EventID
		conds [][2]string
	}
	var ws []workload

	// Simulator patterns: conditions over consecutive phases.
	for _, p := range []struct {
		pattern sim.Pattern
		phase   string
	}{
		{sim.Ring, "ring-round"},
		{sim.Gossip, "gossip-round"},
		{sim.Pipeline, "pipeline-item"},
	} {
		res := sim.MustGenerate(sim.Config{Pattern: p.pattern, Procs: 6, Rounds: 4, Seed: 1})
		ivs := map[string][]poset.EventID{}
		for _, ph := range res.Phases {
			ivs[ph.Name] = ph.Events
		}
		ws = append(ws, workload{
			name: p.pattern.String(), ex: res.Exec, ivs: ivs,
			conds: [][2]string{
				{"ordered", fmt.Sprintf("R1(%s-0, %s-1)", p.phase, p.phase)},
				{"span", fmt.Sprintf("R1(%s-0, %s-3)", p.phase, p.phase)},
			},
		})
	}

	// Fault plans: the two-phase protocol under increasing chaos. Dropped
	// messages can erase intervals — those conditions stay pending and are
	// simply absent from the latency sample set.
	for _, plan := range []struct{ name, spec string }{
		{"2pc", "twophase,nodes=3,rounds=2,seed=5"},
		{"2pc+dup", "twophase,nodes=3,rounds=2,seed=5,dup=0.5"},
		{"2pc+drop", "twophase,nodes=3,rounds=2,seed=5,drop=0.2"},
	} {
		f, err := faultsim.TraceFromSpec(plan.spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := f.Execution()
		if err != nil {
			t.Fatal(err)
		}
		all, err := f.AllIntervals(ex)
		if err != nil {
			t.Fatal(err)
		}
		ivs := map[string][]poset.EventID{}
		for name, iv := range all {
			ivs[name] = iv.Events()
		}
		ws = append(ws, workload{
			name: plan.name, ex: ex, ivs: ivs,
			conds: [][2]string{
				{"causal0", "R1(vote-0, apply-0)"},
				{"causal1", "R1(vote-1, apply-1)"},
			},
		})
	}

	t.Logf("%-10s %8s %8s %8s %8s %8s", "workload", "settled", "samples", "p50 ms", "p99 ms", "mean ms")
	for _, w := range ws {
		settled, win, _, _, _ := replayLatency(t, w.ex, w.ivs, w.conds, poll, nil)
		if settled == 0 {
			t.Errorf("%s: no condition settled", w.name)
			continue
		}
		if win.Count == 0 {
			t.Errorf("%s: settlements recorded no latency samples", w.name)
			continue
		}
		// A polling detector can lag a decisive event by at most one poll
		// interval (poll events × 1ms) plus the same-tick settlement.
		maxLag := (time.Duration(poll) * time.Millisecond).Nanoseconds()
		if win.P99 < 0 || win.P99 > maxLag {
			t.Errorf("%s: p99 latency %dns outside [0, %dns]", w.name, win.P99, maxLag)
		}
		if win.P50 > win.P99 {
			t.Errorf("%s: p50 %d > p99 %d", w.name, win.P50, win.P99)
		}
		mean := float64(win.Sum) / float64(win.Count) / 1e6
		t.Logf("%-10s %8d %8d %8.1f %8.1f %8.1f", w.name, settled, win.Count,
			float64(win.P50)/1e6, float64(win.P99)/1e6, mean)
	}
}

// TestDetectionLatencyUnderRetention extends the E13 table to retention
// mode: conditions settling during compaction epochs must record exactly
// the latency the unbounded monitor records — identical windows and
// identical per-condition latencies in the condition_settled log, no fake
// zeros and no stale carryover. A condition added after its referenced
// intervals were released settles Failed and must record no latency at all
// (released intervals carry no completion stamps, so a latency there could
// only be a fabricated zero).
func TestDetectionLatencyUnderRetention(t *testing.T) {
	const poll = 8
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 6, Rounds: 4, Seed: 1})
	ivs := map[string][]poset.EventID{}
	for _, ph := range res.Phases {
		ivs[ph.Name] = ph.Events
	}
	conds := [][2]string{
		{"ordered", "R1(ring-round-0, ring-round-1)"},
		{"span", "R1(ring-round-0, ring-round-3)"},
		{"backflow", "R1(ring-round-3, ring-round-0)"},
	}
	policy := &online.RetentionPolicy{MaxEvents: 16, Every: 4}
	baseSettled, baseWin, _, _, baseLog := replayLatency(t, res.Exec, ivs, conds, poll, nil)
	retSettled, retWin, retMon, retReg, retLog := replayLatency(t, res.Exec, ivs, conds, poll, policy)

	if baseSettled != retSettled {
		t.Fatalf("settled counts diverge: baseline %d, retained %d", baseSettled, retSettled)
	}
	if baseWin.Count != retWin.Count || baseWin.Sum != retWin.Sum || baseWin.P50 != retWin.P50 || baseWin.P99 != retWin.P99 {
		t.Errorf("latency windows diverge:\nbaseline %+v\nretained %+v", baseWin, retWin)
	}
	baseLat, retLat := settledLatencies(t, baseLog), settledLatencies(t, retLog)
	if len(baseLat) == 0 {
		t.Fatal("baseline run logged no per-condition latency")
	}
	if len(baseLat) != len(retLat) {
		t.Errorf("latency sets diverge: baseline %v, retained %v", baseLat, retLat)
	}
	for name, want := range baseLat {
		if got, ok := retLat[name]; !ok || got != want {
			t.Errorf("latency of %s: retained %d (present=%t), baseline %d", name, got, ok, want)
		}
	}

	// Force the settled pair out of the window, then reference it late: the
	// condition fails cleanly and records nothing.
	retMon.CompactNow()
	if err := retMon.AddCondition("late", "R1(ring-round-0, ring-round-1)"); err != nil {
		t.Fatal(err)
	}
	sawLate := false
	for _, r := range retMon.Poll() {
		if r.Name == "late" {
			sawLate = true
			if r.State != monitor.Failed {
				t.Errorf("late condition state = %v, want failed", r.State)
			}
		}
	}
	if !sawLate {
		st := retMon.RetentionStats()
		if st.Released == 0 {
			t.Skipf("no interval released at end of replay (stats %+v); late-condition leg not exercised", st)
		}
		t.Error("late condition did not settle")
	}
	if _, ok := settledLatencies(t, retLog)["late"]; ok {
		t.Error("late condition logged a latency; released intervals have no completion stamps, so this value is fabricated")
	}
	if after := retReg.Snapshot().Windows["online.detect_latency_ns"]; after.Count != retWin.Count {
		t.Errorf("late settlement added a latency sample: window count %d -> %d", retWin.Count, after.Count)
	}
}
