package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"causet/internal/monitor"
)

func smallConfig(workload string, seed int64, traced bool) config {
	return config{workload: workload, seed: seed, traced: traced, size: smallSize}
}

// exactLayer lists the per-layer metrics that are counts (or ratios of
// counts) and must repeat exactly for a given seed.
var exactLayer = []string{
	"online.append_calls", "online.observe_calls", "online.complete_calls",
	"online.add_condition_calls", "online.poll_empty_calls", "online.poll_settle_calls",
	"online.poll_hit_ratio", "online.appraisals", "online.events", "online.verdicts",
	"online.snapshots_per_verdict", "core.cut_builds_per_verdict",
	"core.fast.comparisons_per_verdict", "online.retained_events_max",
	"online.held_intervals_max", "core.cut_builds", "batch.pairs",
	"batch.comparisons_per_pair",
}

func tracedRun(t *testing.T, workload string, seed int64) *outcome {
	t.Helper()
	cfg := smallConfig(workload, seed, true)
	cfg.spansOut = t.TempDir() + "/spans.json"
	out, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if out.failed != 0 {
		t.Fatalf("%s seed %d: %d failures, first: %v", workload, seed, out.failed, out.prov["first_error"])
	}
	return out
}

func fingerprint(out *outcome) (map[string]float64, any) {
	counts := make(map[string]float64)
	for _, name := range exactLayer {
		counts[name] = out.values[name]
	}
	hash := out.prov["verdict_hash"]
	if hash == nil {
		hash = out.prov["matrix_hash"]
	}
	return counts, hash
}

// TestDeterminism runs every workload twice with one seed (identical
// per-layer counts and verdict hash) and once with a second seed (every
// oracle still passes).
func TestDeterminism(t *testing.T) {
	for _, w := range []string{"ring-soak", "gossip-wide", "offline-matrix"} {
		t.Run(w, func(t *testing.T) {
			c1, h1 := fingerprint(tracedRun(t, w, 1))
			c2, h2 := fingerprint(tracedRun(t, w, 1))
			if !reflect.DeepEqual(c1, c2) {
				t.Errorf("per-layer counts differ between runs of seed 1:\n%v\n%v", c1, c2)
			}
			if h1 != h2 {
				t.Errorf("verdict hash differs between runs of seed 1: %v vs %v", h1, h2)
			}
			tracedRun(t, w, 2)
		})
	}
}

// TestOracleChunking checks the chunked offline oracle against one build of
// the whole execution, and the ring's constant oracle against both.
func TestOracleChunking(t *testing.T) {
	z := smallSize
	for _, sc := range []*script{
		gossipScript(z.gossipProcs, z.gossipWarm, z.gossipRounds, 3),
		ringScript(z.ringProcs, z.ringWarm, z.ringRounds, 3),
	} {
		whole, err := scriptOracle(sc, sc.rounds)
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := scriptOracle(sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(whole, chunked) {
			t.Fatalf("%s: chunked oracle disagrees with the whole-execution oracle", sc.condPrefix)
		}
		if sc.condPrefix == "ordered-" {
			for c, st := range whole {
				if st != monitor.Holds {
					t.Fatalf("ring condition %d is %s", c, st)
				}
			}
		}
	}
}

// TestOracleCatchesWrongVerdict flips one expected online verdict and one
// expected matrix cell, each of which must count exactly one failure, and
// breaks one online call.
func TestOracleCatchesWrongVerdict(t *testing.T) {
	w, err := newOnlineWorkload(smallConfig("gossip-wide", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if w.expect[0] == monitor.Holds {
		w.expect[0] = monitor.Violated
	} else {
		w.expect[0] = monitor.Holds
	}
	rep, err := newReplay(w).runRep(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Fatalf("flipped oracle verdict: %d failures, want 1", rep.failed)
	}

	// An API error in the window (an append on a process the stream does
	// not have) counts, and so does every condition it leaves unsettled.
	w, err = newOnlineWorkload(smallConfig("ring-soak", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	i := len(w.sc.ops) - 1
	for w.sc.ops[i].kind != opRecv {
		i--
	}
	w.sc.ops[i].proc = 200
	if rep, err = newReplay(w).runRep(nil, 0); err != nil {
		t.Fatal(err)
	}
	if rep.failed < 2 {
		t.Fatalf("API error: %d failures, want the error plus unsettled conditions", rep.failed)
	}

	z := smallSize
	input, err := gossipTrace(z.matrixProcs, z.matrixRounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	ow := &offlineWorkload{input: input, workers: matrixWorkers}
	if err := ow.matrixOracle(1, z.spotChecks); err != nil {
		t.Fatal(err)
	}
	ow.expect[1] ^= 1 << 8
	orep, err := ow.runRep(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if orep.failed != 1 {
		t.Fatalf("flipped oracle cell: %d failures, want 1", orep.failed)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []struct{ name, unit string }
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(c.declared), len(c.printed))
		}
		for i, m := range c.printed {
			if d := c.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
}

// TestOutputContract checks the last output line: exactly the four keys,
// and every listed metric present with its unit.
func TestOutputContract(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		cfg := smallConfig("ring-soak", 5, traced)
		cfg.spansOut = t.TempDir() + "/s.json"
		if code := report(cfg, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil ||
			res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("result keys %v", keys)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Fatalf("%d metrics, want %d", len(metrics), len(want))
		}
		for _, m := range want {
			got, ok := metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Fatalf("metric %s: %+v", m.name, got)
			}
			if !traced && got.Value <= 0 {
				t.Fatalf("end-to-end metric %s is %v", m.name, got.Value)
			}
		}
	}
}
