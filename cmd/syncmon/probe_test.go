package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/trace"
)

// BenchmarkSyncmonProbe times whole syncmon checks of the probe trace: the
// offline-matrix shape (`tracegen -pattern gossip -procs 16 -rounds 1300
// -seed 3`: 41,600 events, 20,800 messages, 1,300 intervals, 5.6 MB of
// JSON) against 649 conditions R2(gossip-round-2k, gossip-round-2k+1), all
// of which hold. default runs with no retention policy, retention under
// -retention events=4096. The trace and conditions files are written once,
// untimed; each op loads, replays and checks them from scratch.
func BenchmarkSyncmonProbe(b *testing.B) {
	res, err := sim.Generate(sim.Config{Pattern: sim.Gossip, Procs: 16, Rounds: 1300, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	named := make(map[string][]poset.EventID, len(res.Phases))
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	dir := b.TempDir()
	tracePath, condPath := filepath.Join(dir, "probe.json"), filepath.Join(dir, "probe.conds")
	f, err := os.Create(tracePath)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.New(res.Exec, named).WriteJSON(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	var conds strings.Builder
	for k := 0; k < 649; k++ {
		fmt.Fprintf(&conds, "c%d: R2(gossip-round-%d, gossip-round-%d)\n", k, 2*k, 2*k+1)
	}
	if err := os.WriteFile(condPath, []byte(conds.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	prevStderr := stderrW
	stderrW = io.Discard // the retention summary
	defer func() { stderrW = prevStderr }()
	for _, bc := range []struct {
		name  string
		extra []string
	}{
		{"default", nil},
		{"retention", []string{"-retention", "events=4096"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			args := append([]string{"-trace", tracePath, "-conds", condPath}, bc.extra...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if code, err := run(args, io.Discard); err != nil || code != exitOK {
					b.Fatalf("run: exit %d, err %v", code, err)
				}
			}
		})
	}
}
