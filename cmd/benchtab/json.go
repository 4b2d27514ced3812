package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"

	"causet/internal/bench"
	"causet/internal/obs"
	"causet/internal/obs/tsdb"
)

// jsonSchema identifies the report layout; bump the suffix on breaking
// changes so downstream tooling can reject files it does not understand.
const jsonSchema = "causet-benchtab/1"

// jsonReport is the machine-readable benchmark report emitted by
// benchtab -json. BENCH_*.json files committed at the repo root track these
// across PRs; the checked-in BENCH_e1.json is the schema example that
// TestJSONMatchesCommittedSchema validates against.
type jsonReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Trials     int    `json:"trials"`
	Reps       int    `json:"reps"`

	// E1: three-evaluator agreement per relation (correctness anchor).
	E1 []jsonAgreementRow `json:"e1_agreement"`
	// E4: Fast-evaluator comparison counts vs the Theorem 20 bounds.
	E4 []jsonBoundRow `json:"e4_bounds"`
	// E5: comparisons/op and ns/op per evaluator across sizes.
	E5 []jsonSweepRow `json:"e5_sweep"`
	// E7: serial vs parallel batch timing.
	E7 []jsonParallelRow `json:"e7_parallel"`
	// E10: fused profile kernel vs the per-relation 32-scan (the legacy_*
	// columns), with allocation columns.
	// Absent from reports written before the fused kernel existed — decoders
	// (cmd/benchdiff) must treat a missing or empty list as "not measured",
	// which omitempty preserves on the write side too.
	E10 []jsonProfileRow `json:"e10_profile,omitempty"`
	// E14: online streaming throughput, online monitor vs the cold recompute
	// per settlement (the leg_* columns).
	// Absent from reports written before the incremental hot path existed —
	// like E10, decoders must treat a missing or empty list as "not measured".
	E14 []jsonStreamRow `json:"e14_stream,omitempty"`
	// E15: long-horizon soak, retained working set vs unbounded monitor.
	// Absent from reports written before the retention subsystem existed —
	// like E10/E14, decoders must treat a missing or empty list as "not
	// measured".
	E15 []jsonSoakRow `json:"e15_soak,omitempty"`

	// Metrics is the registry snapshot accumulated while the experiments
	// above ran: core.<eval>.comparisons[.<rel>], core.cut_builds,
	// batch.* counters, and the associated histograms.
	Metrics obs.Snapshot `json:"metrics"`

	// Tsdb is the detection-latency time-series dump sampled while the
	// report ran (-sample-interval cadence). Absent from reports written
	// before the telemetry store existed; decoders (cmd/benchdiff) must
	// tolerate both a missing and a present section.
	Tsdb *tsdb.Dump `json:"tsdb,omitempty"`
}

type jsonAgreementRow struct {
	Relation   string `json:"relation"`
	Trials     int    `json:"trials"`
	Agreements int    `json:"agreements"`
	Held       int    `json:"held"`
}

type jsonBoundRow struct {
	Relation    string `json:"relation"`
	Bound       string `json:"bound"`
	Trials      int    `json:"trials"`
	WithinBound int    `json:"within_bound"`
	TightHits   int    `json:"tight_hits"`
	MaxCount    int64  `json:"max_comparisons"`
}

type jsonSweepRow struct {
	N          int     `json:"n"`
	NaiveCmp   float64 `json:"naive_cmp"`
	ProxyCmp   float64 `json:"proxy_cmp"`
	FastCmp    float64 `json:"fast_cmp"`
	NaiveNsOp  float64 `json:"naive_ns_op"`
	ProxyNsOp  float64 `json:"proxy_ns_op"`
	FastNsOp   float64 `json:"fast_ns_op"`
	SpeedupPxF float64 `json:"proxy_over_fast"`
}

type jsonParallelRow struct {
	N          int     `json:"n"`
	Workers    int     `json:"workers"`
	Queries    int     `json:"queries"`
	SerialNs   float64 `json:"serial_ns"`
	ParallelNs float64 `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	Agree      bool    `json:"agree"`
}

type jsonProfileRow struct {
	N            int     `json:"n"`
	Pairs        int     `json:"pairs"`
	FusedNsOp    float64 `json:"fused_ns_op"`
	LegacyNsOp   float64 `json:"legacy_ns_op"`
	FusedCmp     float64 `json:"fused_cmp"`
	LegacyCmp    float64 `json:"legacy_cmp"`
	FusedAllocs  float64 `json:"fused_allocs_op"`
	LegacyAllocs float64 `json:"legacy_allocs_op"`
	FusedBytes   float64 `json:"fused_bytes_op"`
	LegacyBytes  float64 `json:"legacy_bytes_op"`
	Speedup      float64 `json:"speedup"`
	Agree        bool    `json:"agree"`
}

type jsonStreamRow struct {
	Procs     int     `json:"procs"`
	Rounds    int     `json:"rounds"`
	Events    int     `json:"events"`
	IncNsEv   float64 `json:"inc_ns_event"`
	LegNsEv   float64 `json:"leg_ns_event"`
	IncEvSec  float64 `json:"inc_events_sec"`
	LegEvSec  float64 `json:"leg_events_sec"`
	IncAllocs float64 `json:"inc_allocs_event"`
	LegAllocs float64 `json:"leg_allocs_event"`
	IncCheck  float64 `json:"inc_check_ns_event"`
	LegCheck  float64 `json:"leg_check_ns_event"`
	Speedup   float64 `json:"speedup"`
	Agree     bool    `json:"agree"`
}

type jsonSoakRow struct {
	Procs          int     `json:"procs"`
	Rounds         int     `json:"rounds"`
	Events         int     `json:"events"`
	Window         int     `json:"window"`
	RetNsEv        float64 `json:"ret_ns_event"`
	UnbNsEv        float64 `json:"unb_ns_event"`
	RetHeapPeak    uint64  `json:"ret_heap_peak_bytes"`
	UnbHeapPeak    uint64  `json:"unb_heap_peak_bytes"`
	RetRetainedMax int     `json:"ret_retained_max"`
	RetRetainedEnd int     `json:"ret_retained_end"`
	UnbRetainedMax int     `json:"unb_retained_max"`
	Released       int     `json:"released"`
	Settled        int     `json:"settled"`
	UnbRan         bool    `json:"unbounded_ran"`
	Agree          bool    `json:"agree"`
}

// buildJSONReport runs E1, E4, E5, E7, E10, E14, and E15 with the timing sweeps
// instrumented against reg (so the snapshot carries the comparison
// counters behind the numbers) and assembles the report.
func buildJSONReport(trials, reps, workers int, seed int64, reg *obs.Registry, tr *obs.Tracer) (jsonReport, error) {
	rep := jsonReport{
		Schema:     jsonSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Trials:     trials,
		Reps:       reps,
	}
	for _, r := range bench.Table1Agreement(trials, seed) {
		rep.E1 = append(rep.E1, jsonAgreementRow{
			Relation:   r.Relation.String(),
			Trials:     r.Trials,
			Agreements: r.Agreements,
			Held:       r.HeldCount,
		})
	}
	for _, r := range bench.Theorem20Counts(trials, seed) {
		rep.E4 = append(rep.E4, jsonBoundRow{
			Relation:    r.Relation.String(),
			Bound:       r.BoundExpr,
			Trials:      r.Trials,
			WithinBound: r.WithinBound,
			TightHits:   r.TightHits,
			MaxCount:    r.MaxCount,
		})
	}
	for _, r := range bench.ComplexitySweepObs([]int{2, 4, 8, 16, 32, 64, 128, 256}, reps, seed, reg, tr) {
		rep.E5 = append(rep.E5, jsonSweepRow{
			N:          r.N,
			NaiveCmp:   r.NaiveCmp,
			ProxyCmp:   r.ProxyCmp,
			FastCmp:    r.FastCmp,
			NaiveNsOp:  r.NaiveNsOp,
			ProxyNsOp:  r.ProxyNsOp,
			FastNsOp:   r.FastNsOp,
			SpeedupPxF: r.SpeedupPxF,
		})
	}
	for _, r := range bench.ParallelSweepObs([]int{8, 32, 128}, workers, reps, seed, reg, tr) {
		rep.E7 = append(rep.E7, jsonParallelRow{
			N:          r.N,
			Workers:    r.Workers,
			Queries:    r.Queries,
			SerialNs:   r.SerialNs,
			ParallelNs: r.ParallelNs,
			Speedup:    r.Speedup,
			Agree:      r.Agree,
		})
	}
	for _, r := range bench.ProfileSweepObs([]int{8, 32, 128}, reps, seed, reg, tr) {
		rep.E10 = append(rep.E10, jsonProfileRow{
			N:            r.N,
			Pairs:        r.Pairs,
			FusedNsOp:    r.FusedNs,
			LegacyNsOp:   r.LegacyNs,
			FusedCmp:     r.FusedCmp,
			LegacyCmp:    r.LegacyCmp,
			FusedAllocs:  r.FusedAllocs,
			LegacyAllocs: r.LegacyAllocs,
			FusedBytes:   r.FusedBytes,
			LegacyBytes:  r.LegacyBytes,
			Speedup:      r.Speedup,
			Agree:        r.Agree,
		})
	}
	rows, err := bench.StreamSweepObs(bench.DefaultStreamConfigs(), reps, seed, reg, tr)
	if err != nil {
		return jsonReport{}, err
	}
	for _, r := range rows {
		rep.E14 = append(rep.E14, jsonStreamRow{
			Procs:     r.Procs,
			Rounds:    r.Rounds,
			Events:    r.Events,
			IncNsEv:   r.IncNs,
			LegNsEv:   r.LegNs,
			IncEvSec:  r.IncEvSec,
			LegEvSec:  r.LegEvSec,
			IncAllocs: r.IncAllocs,
			LegAllocs: r.LegAllocs,
			IncCheck:  r.IncCheck,
			LegCheck:  r.LegCheck,
			Speedup:   r.Speedup,
			Agree:     r.Agree,
		})
	}
	soakRows, err := bench.SoakSweepObs(bench.DefaultSoakConfigs(), reg, tr)
	if err != nil {
		return jsonReport{}, err
	}
	for _, r := range soakRows {
		rep.E15 = append(rep.E15, jsonSoakRow{
			Procs:          r.Procs,
			Rounds:         r.Rounds,
			Events:         r.Events,
			Window:         r.Window,
			RetNsEv:        r.RetNs,
			UnbNsEv:        r.UnbNs,
			RetHeapPeak:    r.RetHeapPeak,
			UnbHeapPeak:    r.UnbHeapPeak,
			RetRetainedMax: r.RetRetainedMax,
			RetRetainedEnd: r.RetRetainedEnd,
			UnbRetainedMax: r.UnbRetainedMax,
			Released:       r.Released,
			Settled:        r.Settled,
			UnbRan:         r.UnbRan,
			Agree:          r.Agree,
		})
	}
	rep.Metrics = reg.Snapshot()
	return rep, nil
}

// jsonOutput opens the -json destination before the sweep runs, so a bad
// path fails fast: out itself for "-", else the created file, which closeOut
// closes.
func jsonOutput(out io.Writer, dest string) (w io.Writer, closeOut func() error, err error) {
	if dest == "-" {
		return out, func() error { return nil }, nil
	}
	f, err := os.Create(dest)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// writeJSONReport marshals the report, indented, with a trailing newline.
func writeJSONReport(w io.Writer, rep jsonReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
