// Command benchdiff compares causet-benchtab/1 JSON reports and gates on
// performance regressions. It is the CI perf gate: diff a fresh benchtab
// -json run against the committed BENCH_e1.json baseline and fail the build
// when a deterministic comparison-count column grows past the threshold.
//
// Usage:
//
//	benchdiff [flags] old.json new.json     diff two reports
//	benchdiff [flags] dir/                  trajectory: diff consecutive
//	                                        BENCH_*.json files (sorted by name)
//
// Exit status contract (mirrors syncmon; CI relies on it):
//
//	0  no regression beyond the threshold
//	1  at least one regression past -threshold (or a correctness drop)
//	2  internal error: bad flags, unreadable report, wrong schema
//
// What is gated vs merely reported:
//
//   - E1 agreement and E4 bound-conformance RATES are correctness: any drop
//     is a regression, threshold-independent (rates normalize out differing
//     -trials between the two runs).
//   - E5 and E10 comparison-count columns (naive/proxy/fast cmp per op,
//     fused/scan cmp per profile) are deterministic for a fixed seed, so
//     they gate at -threshold percent. E10 fused/scan mask agreement is
//     correctness, like E1/E4 rates.
//   - ns/op columns and E7/E10/E14 speedups are wall-clock noise across
//     machines; they are reported but gate only when -ns-threshold is set
//     (> 0). The same applies to the E14 ns/event and check-ns/event
//     columns. E14 online/cold-recompute verdict agreement is correctness,
//     like E1/E4 rates.
//   - E10 allocs/op and bytes/op columns and E14 allocs/event are
//     deterministic in steady state but sensitive to Go-version and GC
//     accounting changes, so they follow their own opt-in -alloc-threshold
//     gate (0 = report only).
//   - Reports written before a table existed (e.g. e10_profile) simply omit
//     it; the differ skips the missing table instead of failing, so old
//     BENCH_*.json baselines keep working.
//   - The embedded metrics snapshots are diffed (obs.Snapshot.Diff) and
//     reported for forensics, never gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"causet/internal/buildinfo"
)

// Exit codes of the benchdiff contract (see the command comment).
const (
	exitOK         = 0
	exitRegression = 1
	exitError      = 2
)

// wantSchema is the only report layout this differ understands.
const wantSchema = "causet-benchtab/1"

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(exitError)
	}
	os.Exit(code)
}

// run returns the process exit code; a non-nil error is itself an internal
// error (the caller maps it to exitError).
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 10, "max allowed increase, in percent, for deterministic comparison-count columns")
	nsThreshold := fs.Float64("ns-threshold", 0, "max allowed increase, in percent, for ns/op timing columns (0 = report only, never gate)")
	allocThreshold := fs.Float64("alloc-threshold", 0, "max allowed increase, in percent, for allocs/op and bytes/op columns (0 = report only, never gate)")
	jsonOut := fs.String("json", "", "also write the diff as machine-readable JSON to this file (- = stdout)")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return exitError, err
	}
	if *version {
		buildinfo.Current().Print(out, "benchdiff")
		return exitOK, nil
	}
	opt := options{Threshold: *threshold, NsThreshold: *nsThreshold, AllocThreshold: *allocThreshold}

	var pairs [][2]string
	switch fs.NArg() {
	case 1:
		dir := fs.Arg(0)
		files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return exitError, err
		}
		sort.Strings(files)
		if len(files) < 2 {
			return exitError, fmt.Errorf("trajectory over %s needs at least two BENCH_*.json files, found %d", dir, len(files))
		}
		for i := 0; i+1 < len(files); i++ {
			pairs = append(pairs, [2]string{files[i], files[i+1]})
		}
	case 2:
		pairs = [][2]string{{fs.Arg(0), fs.Arg(1)}}
	default:
		return exitError, fmt.Errorf("want OLD.json NEW.json or a directory of BENCH_*.json files, got %d args", fs.NArg())
	}

	code := exitOK
	var diffs []reportDiff
	for _, p := range pairs {
		oldRep, err := loadReport(p[0])
		if err != nil {
			return exitError, err
		}
		newRep, err := loadReport(p[1])
		if err != nil {
			return exitError, err
		}
		d := diffReports(p[0], p[1], oldRep, newRep, opt)
		d.print(out)
		diffs = append(diffs, d)
		if len(d.Regressions) > 0 {
			code = exitRegression
		}
	}

	if *jsonOut != "" {
		w := io.Writer(out)
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return exitError, err
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		var payload any = diffs
		if len(diffs) == 1 {
			payload = diffs[0]
		}
		if err := enc.Encode(payload); err != nil {
			return exitError, err
		}
	}
	return code, nil
}

// loadReport reads and schema-checks one benchtab report. Decoding is
// tolerant of unknown fields (future schema additions must not break the
// gate) but strict about the schema string itself.
func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != wantSchema {
		return report{}, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, wantSchema)
	}
	return rep, nil
}
