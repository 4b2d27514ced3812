package main

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"causet/internal/obs"
	"causet/internal/obs/alert"
	"causet/internal/obs/tsdb"
	"causet/internal/online"
)

// TestMonitorViewConcurrent hammers the dashboard from several goroutines —
// HTML and JSON fetches racing against the replay on the view's own stream
// and monitor (appends, settlements, and the compactions of a tight
// retention window), then repeated settlement publications, live sampler
// ticks into the store behind the sparklines, and alert-engine evaluations
// behind the alerts panel. Run under -race this pins the
// view/stream/monitor/store/engine locking; functionally it asserts every
// response stays well-formed mid-churn and the panels end on the trace's
// final state.
func TestMonitorViewConcurrent(t *testing.T) {
	reg := obs.New()
	st := tsdb.NewStore(tsdb.Options{})
	smp := tsdb.NewSampler(reg, st, time.Second)
	rules, err := alert.ParseRules("breach[warn]: syncmon.violations.count > 0\n")
	if err != nil {
		t.Fatal(err)
	}
	eng := alert.NewEngine(st, rules)
	eng.Instrument(reg)
	smp.AfterSample = eng.Evaluate

	view, ex, replay := newView(t, writeRing(t, 64), [][2]string{
		{"ordered", "R1(ring-round-0, ring-round-1)"},
		{"late", "R1(ring-round-62, ring-round-63)"},
		{"backwards", "R1(ring-round-1, ring-round-0)"},
	}, &online.RetentionPolicy{MaxEvents: 8, Every: 4}, reg, st, eng)

	// Stamp samples near the wall clock: the sparkline panel only plots the
	// last sparkWindow of real time.
	base := time.Now().Add(-time.Second)
	violWin := reg.Window("syncmon.violations", 256)

	const rounds = 50
	var started, wg sync.WaitGroup
	started.Add(2)
	wg.Add(3)
	done := make(chan struct{})
	// Writer: once both readers have fetched, the replay, then settlement
	// publications, violation observations, and sampler ticks.
	go func() {
		defer wg.Done()
		defer close(done)
		started.Wait()
		results, err := replay()
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < rounds; i++ {
			violWin.Observe(1)
			smp.SampleOnce(base.Add(time.Duration(i) * time.Millisecond))
			view.setResults(results)
		}
	}()
	// Readers: each fetches until the writer is done, and at least rounds
	// times; every response must be well-formed.
	read := func(url string, ok func(body []byte) error) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				if i >= rounds {
					return
				}
			default:
			}
			rec := httptest.NewRecorder()
			view.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if i == 0 {
				started.Done()
			}
			if err := ok(rec.Body.Bytes()); err != nil {
				t.Errorf("fetch %d of %s: %v", i, url, err)
				return
			}
		}
	}
	go read("/debug/monitor?format=json", func(body []byte) error {
		var state monitorState
		return json.Unmarshal(body, &state)
	})
	go read("/debug/monitor", func(body []byte) error {
		if !strings.Contains(string(body), "syncmon live monitor") {
			return errors.New("HTML view did not render")
		}
		return nil
	})
	wg.Wait()

	// After the churn: the clocks are the trace's final ones, the stream
	// was compacted, the alerts panel reports the (long since fired) rule,
	// and the sparkline panel reflects the sampled store.
	rec := httptest.NewRecorder()
	view.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/monitor?format=json", nil))
	var state monitorState
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	checkClocks(t, state, ex)
	if state.Retention == nil || state.Retention.Released == 0 || len(state.Retention.Watermark) == 0 {
		t.Errorf("retention panel = %+v, want released intervals and a watermark", state.Retention)
	}
	verdicts := map[string]string{}
	for _, c := range state.Conditions {
		verdicts[c.Name] = c.State
	}
	if verdicts["ordered"] != "holds" || verdicts["late"] != "holds" || verdicts["backwards"] != "violated" {
		t.Errorf("verdicts = %v", verdicts)
	}
	if len(state.Alerts) != 1 || state.Alerts[0].State != "firing" {
		t.Errorf("alerts panel = %+v, want the breach rule firing", state.Alerts)
	}
	if state.Tsdb == nil || state.Tsdb.Series == 0 {
		t.Errorf("tsdb stats panel empty: %+v", state.Tsdb)
	}
	if len(state.Sparks) == 0 {
		t.Error("sparkline panel empty after sampling")
	}
	for _, s := range state.Sparks {
		if s.Name == "" {
			t.Errorf("spark with empty name: %+v", s)
		}
	}
}
