// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the public APIs of internal/online,
// internal/trace, internal/core and internal/batch, checks every verdict
// against an oracle, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run) as the last line of standard output,
// after one line of provenance. A traced run also writes a bounded sample
// of its raw spans, as Chrome trace_event JSON, to
// .bench_build/spans-<workload>-<seed>.json. From the repository root:
//
//	bash perfbench/run.sh --workload ring-soak --seed 1 --seconds 32 --trace 0
//
// Workloads:
//
//	ring-soak       the long-running retained monitor of E15: 8 processes,
//	                one causal lap per round, one ready-at-once R1 condition
//	                per lap; loads snapshot views, cut-cache carry, per-event
//	                bookkeeping, retention and the verdict ledger.
//	gossip-wide     32 processes with random peers and 3–4 compound
//	                conditions per round registered ahead; loads append
//	                (clock merge, first-follower walk), cut builds and the
//	                readiness index.
//	offline-matrix  relcheck -matrix -parallel 2 over a recorded
//	                16-process gossip trace; loads trace decoding, the
//	                static analysis, the fused Table 1 kernel and the
//	                batch worker pool.
//
// Each run repeats set-up plus a fixed-size timed window until --seconds
// have elapsed: the host's speed drifts by several percent between
// repetitions, so no single one is trusted. Inputs are generated from
// --seed before any timed phase. The online workloads have a single caller
// and run on one P, the shape of a single-threaded monitor; their
// repetitions take turns on the host's CPUs, and a run reports the
// throughput of all its windows together and the mean latency quantiles.
// offline-matrix uses two batch workers on two Ps and reports medians over
// its repetitions. Set-up time is a median everywhere.
// The exit code is 0 when every verdict matched its oracle, 1 on any
// failure it counted (a wrong, duplicate or missing verdict or matrix cell,
// or an online API error), 2 when a run cannot complete (bad usage, or an
// error from input generation, an oracle, set-up or the matrix job).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spansOut string
	size     sizes
}

// sizes fixes every workload's length; the same on every host, so a run
// measures the same work wherever it runs (see also matrixWorkers).
type sizes struct {
	ringProcs, ringWarm, ringRounds       int
	gossipProcs, gossipWarm, gossipRounds int
	gossipChunk                           int // oracle chunk, in rounds
	matrixProcs, matrixRounds, spotChecks int
}

var fullSize = sizes{
	ringProcs: 8, ringWarm: 4_000, ringRounds: 36_000,
	gossipProcs: 32, gossipWarm: 200, gossipRounds: 2_700, gossipChunk: 256,
	matrixProcs: 16, matrixRounds: 1_300, spotChecks: 256,
}

// matrixWorkers is offline-matrix's batch worker count and GOMAXPROCS, the
// -parallel 2 of relcheck; fixed, so the job has one shape on every host.
const matrixWorkers = 2

// smallSize is the tests' size: same shapes, a fraction of a second per
// workload.
var smallSize = sizes{
	ringProcs: 8, ringWarm: 50, ringRounds: 400,
	gossipProcs: 32, gossipWarm: 10, gossipRounds: 80, gossipChunk: 16,
	matrixProcs: 16, matrixRounds: 60, spotChecks: 64,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics and units.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"heap_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics and units. A workload reports 0
// for a layer it does not load.
var perLayer = []struct{ name, unit string }{
	{"online.append_ns", "ns"}, {"online.append_calls", "count"},
	{"online.observe_ns", "ns"}, {"online.observe_calls", "count"},
	{"online.complete_ns", "ns"}, {"online.complete_calls", "count"},
	{"online.add_condition_ns", "ns"}, {"online.add_condition_calls", "count"},
	{"online.poll_empty_ns", "ns"}, {"online.poll_empty_calls", "count"},
	{"online.poll_settle_ns", "ns"}, {"online.poll_settle_calls", "count"},
	{"online.poll_hit_ratio", "ratio"},
	{"online.appraisal_ns", "ns"}, {"online.appraisals", "count"},
	{"online.events", "count"}, {"online.verdicts", "count"},
	{"online.snapshots_per_verdict", "ratio"},
	{"core.cut_builds_per_verdict", "ratio"},
	{"core.fast.comparisons_per_verdict", "ratio"},
	{"online.retained_events_max", "count"},
	{"online.held_intervals_max", "count"},
	{"online.allocs_per_event", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"trace.decode_s", "s"}, {"poset.build_s", "s"},
	{"core.analysis_s", "s"}, {"interval.build_s", "s"},
	{"core.cut_build_s", "s"}, {"core.cut_builds", "count"},
	{"batch.matrix_warm_s", "s"}, {"batch.pairs", "count"},
	{"batch.comparisons_per_pair", "ratio"},
	{"batch.worker_busy_share", "ratio"},
	{"batch.allocs_per_pair", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.window_s", "s"},
	{"trace.accounted_share", "ratio"},
	{"trace.reps", "count"},
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	prov      map[string]any
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "ring-soak, gossip-wide or offline-matrix")
	seed := fl.Int64("seed", 1, "input generation seed")
	seconds := fl.Float64("seconds", 10, "measurement time; repetitions run until it has elapsed")
	traced := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, size: fullSize}
	if cfg.traced {
		cfg.spansOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	return report(cfg, stdout, stderr)
}

// report runs one workload and writes its provenance line and its result
// line; the return value is the exit code.
func report(cfg config, stdout, stderr io.Writer) int {
	start := time.Now()
	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out.prov["elapsed_s"] = time.Since(start).Seconds()
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	list := endToEnd
	if cfg.traced {
		list = perLayer
	}
	for _, m := range list {
		v := out.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only a failed repetition divides by zero; Correct is false then
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": out.prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(cfg config) (*outcome, error) {
	var out *outcome
	var err error
	switch cfg.workload {
	case "ring-soak", "gossip-wide":
		runtime.GOMAXPROCS(1)
		out, err = runOnline(cfg)
	case "offline-matrix":
		runtime.GOMAXPROCS(matrixWorkers)
		out, err = runOffline(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want ring-soak, gossip-wide or offline-matrix)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	commit, digest := sourceIdentity()
	for k, v := range map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go_version": runtime.Version(), "commit": commit, "source_sha256": digest,
		"failed_share": float64(out.failed) / float64(max(out.attempted, 1)),
	} {
		out.prov[k] = v
	}
	return out, nil
}

// sourceIdentity names the code measured: the VCS revision the toolchain
// stamped, when built inside a repository, and a digest of the module's Go
// sources and go.mod files, which identifies a checkout without one.
func sourceIdentity() (commit, digest string) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var files []string
	root := "."
	if _, err := os.Stat("perfbench"); err != nil {
		root = ".."
	}
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return commit, hex.EncodeToString(h.Sum(nil))
}
