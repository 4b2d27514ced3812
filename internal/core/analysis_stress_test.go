package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"causet/internal/interval"
	"causet/internal/poset/posettest"
)

// TestCutsCacheBuildOnce hammers the cut cache with many goroutines
// querying overlapping interval sets in scrambled orders, and asserts the
// singleflight contract: each IntervalCuts is built exactly once
// (CutBuilds == distinct intervals), every querier sees the same cached
// value, and the contents match a serially built Analysis.
func TestCutsCacheBuildOnce(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	ex := posettest.Random(r, 5, 100, 0.5)
	sets := posettest.DisjointN(r, ex, 16, 5)
	if sets == nil {
		t.Fatal("workload generation failed")
	}
	ivs := make([]*interval.Interval, len(sets))
	for i, s := range sets {
		ivs[i] = interval.MustNew(ex, s)
	}
	serial := NewAnalysis(ex)

	a := NewAnalysis(ex)
	const goroutines = 16
	got := make([][]*IntervalCuts, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rg := rand.New(rand.NewSource(int64(g)))
			got[g] = make([]*IntervalCuts, len(ivs))
			<-start
			for round := 0; round < 25; round++ {
				for _, i := range rg.Perm(len(ivs)) {
					ic := a.Cuts(ivs[i])
					if got[g][i] == nil {
						got[g][i] = ic
					} else if got[g][i] != ic {
						t.Errorf("goroutine %d saw two values for interval %d", g, i)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if builds := a.CutBuilds(); builds != int64(len(ivs)) {
		t.Errorf("%d builds for %d distinct intervals, want exactly one each", builds, len(ivs))
	}
	for i, iv := range ivs {
		want := got[0][i]
		for g := 1; g < goroutines; g++ {
			if got[g][i] != want {
				t.Fatalf("goroutines disagree on interval %d's cuts", i)
			}
		}
		if !reflect.DeepEqual(want, serial.Cuts(iv)) {
			t.Errorf("concurrent cuts of interval %d differ from serial build", i)
		}
	}
}
