package online

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/obs/logx"
	"causet/internal/poset"
)

// lockedBuffer is a goroutine-safe bytes.Buffer for capturing log output
// written concurrently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestMonitorConcurrentSettlement drives Observe/Complete/Poll from many
// goroutines (run under -race in CI) and asserts the two properties the
// online monitor promises:
//
//  1. Exactly-once delivery: across all the racing Poll callers, every
//     condition's verdict is delivered exactly once, and it is the right one.
//  2. Exactly-once settlement: the condition_settled logx event fires once
//     per condition, however many concurrent Polls race to settle it.
func TestMonitorConcurrentSettlement(t *testing.T) {
	const procs = 4
	const rounds = 8

	s := NewStream(procs)
	reg := obs.New()
	s.Instrument(reg, nil)
	m := NewMonitor(s)
	m.Instrument(reg)
	var logBuf lockedBuffer
	m.SetLogger(logx.New(&logBuf, logx.Debug))

	// One interval per (round, proc): a chain of sends around the ring, so
	// consecutive rounds are causally ordered and R1 holds between them.
	type ivKey struct{ round, proc int }
	events := make(map[ivKey]poset.EventID)
	var last poset.EventID
	for r := 0; r < rounds; r++ {
		for p := 0; p < procs; p++ {
			var e poset.EventID
			var err error
			if r == 0 && p == 0 {
				e, err = s.Send(p)
			} else {
				e, err = s.Recv(p, last)
			}
			if err != nil {
				t.Fatal(err)
			}
			events[ivKey{r, p}] = e
			last = e
		}
	}

	// Conditions: consecutive rounds are R1-ordered (holds), the reverse
	// direction is a violation.
	condCount := 0
	for r := 0; r+1 < rounds; r++ {
		a, b := fmt.Sprintf("round-%d", r), fmt.Sprintf("round-%d", r+1)
		if err := m.AddCondition(fmt.Sprintf("ordered-%d", r), fmt.Sprintf("R1(%s, %s)", a, b)); err != nil {
			t.Fatal(err)
		}
		if err := m.AddCondition(fmt.Sprintf("backflow-%d", r), fmt.Sprintf("R1(%s, %s)", b, a)); err != nil {
			t.Fatal(err)
		}
		condCount += 2
	}

	// Concurrently: one goroutine per round observing and completing its
	// interval, plus pollers draining deliveries the whole time.
	var (
		wg        sync.WaitGroup
		verdictMu sync.Mutex
		delivered = map[string]monitor.State{}
	)
	record := func(rs []monitor.Result) {
		verdictMu.Lock()
		defer verdictMu.Unlock()
		for _, res := range rs {
			if prev, dup := delivered[res.Name]; dup {
				t.Errorf("%s delivered twice: %v then %v", res.Name, prev, res.State)
				continue
			}
			delivered[res.Name] = res.State
		}
	}
	stopCheckers := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				record(m.Poll())
				select {
				case <-stopCheckers:
					return
				default:
				}
			}
		}()
	}
	var growWG sync.WaitGroup
	for r := 0; r < rounds; r++ {
		growWG.Add(1)
		go func(r int) {
			defer growWG.Done()
			name := fmt.Sprintf("round-%d", r)
			for p := 0; p < procs; p++ {
				if err := m.Observe(name, events[ivKey{r, p}]); err != nil {
					t.Error(err)
				}
			}
			if err := m.Complete(name); err != nil {
				t.Error(err)
			}
		}(r)
	}
	growWG.Wait()
	// One final Poll after all intervals are complete settles everything.
	record(m.Poll())
	close(stopCheckers)
	wg.Wait()

	if len(delivered) != condCount {
		t.Errorf("%d of %d conditions delivered after all intervals completed", len(delivered), condCount)
	}
	for r := 0; r+1 < rounds; r++ {
		if got := delivered[fmt.Sprintf("ordered-%d", r)]; got != monitor.Holds {
			t.Errorf("ordered-%d = %v, want holds", r, got)
		}
		if got := delivered[fmt.Sprintf("backflow-%d", r)]; got != monitor.Violated {
			t.Errorf("backflow-%d = %v, want violated", r, got)
		}
	}

	// Exactly-once settlement events, one per condition.
	settled := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for sc.Scan() {
		var line struct {
			Event     string `json:"event"`
			Condition string `json:"condition"`
			State     string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line not valid JSON: %v\n%s", err, sc.Text())
		}
		if line.Event == "condition_settled" {
			settled[line.Condition]++
		}
	}
	if len(settled) != condCount {
		t.Errorf("settlement events for %d conditions, want %d: %v", len(settled), condCount, settled)
	}
	for name, n := range settled {
		if n != 1 {
			t.Errorf("condition %s settled %d times in the log, want exactly 1", name, n)
		}
	}
	if got := reg.Counter("online.settlements").Value(); got != int64(condCount) {
		t.Errorf("online.settlements = %d, want %d", got, condCount)
	}
	if viol := reg.Window("online.violation_window", 256).Count(); viol != int64(rounds-1) {
		t.Errorf("violation window count = %d, want %d", viol, rounds-1)
	}
}

// TestMonitorConcurrentWithCompaction interleaves Observe/Complete/Poll
// with retention appraisals and forced CompactNow calls from racing
// goroutines (run under -race in CI). The appender pins each event until
// its round's grower has observed it — the streaming discipline retention
// requires — so aggressive compaction must neither change any verdict nor
// break verdict stability.
func TestMonitorConcurrentWithCompaction(t *testing.T) {
	const procs = 4
	const rounds = 16

	s := NewStream(procs)
	reg := obs.New()
	m := NewMonitor(s)
	m.Instrument(reg)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 8, Every: 4}); err != nil {
		t.Fatal(err)
	}
	condCount := 0
	for r := 0; r+1 < rounds; r++ {
		a, b := fmt.Sprintf("round-%d", r), fmt.Sprintf("round-%d", r+1)
		if err := m.AddCondition(fmt.Sprintf("ordered-%d", r), fmt.Sprintf("R1(%s, %s)", a, b)); err != nil {
			t.Fatal(err)
		}
		if err := m.AddCondition(fmt.Sprintf("backflow-%d", r), fmt.Sprintf("R1(%s, %s)", b, a)); err != nil {
			t.Fatal(err)
		}
		condCount += 2
	}

	// Appender: one causal chain of sends around the ring, each event pinned
	// until its grower observes it. Growers: per-round Observe + Complete +
	// Unpin. Checkers: Poll for deltas, asserting each condition settles at
	// most once. Compactor: hammer CompactNow the whole time.
	chans := make([]chan poset.EventID, rounds)
	for r := range chans {
		chans[r] = make(chan poset.EventID, procs)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last poset.EventID
		for r := 0; r < rounds; r++ {
			for p := 0; p < procs; p++ {
				var e poset.EventID
				var err error
				if r == 0 && p == 0 {
					e, err = s.Send(p)
				} else {
					e, err = s.Recv(p, last)
				}
				if err != nil {
					t.Error(err)
					close(chans[r])
					return
				}
				s.Pin(e)
				last = e
				chans[r] <- e
			}
			close(chans[r])
		}
	}()
	var growWG sync.WaitGroup
	for r := 0; r < rounds; r++ {
		growWG.Add(1)
		go func(r int) {
			defer growWG.Done()
			name := fmt.Sprintf("round-%d", r)
			for e := range chans[r] {
				if err := m.Observe(name, e); err != nil {
					t.Errorf("observe %s: %v", name, err)
				}
				s.Unpin(e)
			}
			if err := m.Complete(name); err != nil {
				t.Errorf("complete %s: %v", name, err)
			}
		}(r)
	}
	stop := make(chan struct{})
	var auxWG sync.WaitGroup
	var verdictMu sync.Mutex
	firstSeen := map[string]monitor.State{}
	for c := 0; c < 3; c++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for {
				for _, res := range m.Poll() {
					verdictMu.Lock()
					if prev, dup := firstSeen[res.Name]; dup {
						t.Errorf("condition %s settled twice: %v then %v", res.Name, prev, res.State)
					} else {
						firstSeen[res.Name] = res.State
					}
					verdictMu.Unlock()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			m.CompactNow()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Reader: TotalEvents takes no lock, so check that it never runs
	// backwards and never runs ahead of the counts read after it.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		last := 0
		for {
			total := s.TotalEvents()
			if total < last {
				t.Errorf("TotalEvents went from %d back to %d", last, total)
			}
			if sum := sumCounts(s); total > sum {
				t.Errorf("TotalEvents = %d before Counts summed to %d", total, sum)
			}
			last = total
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	growWG.Wait()
	wg.Wait()
	for _, res := range m.Poll() {
		verdictMu.Lock()
		if _, dup := firstSeen[res.Name]; dup {
			t.Errorf("condition %s settled twice", res.Name)
		} else {
			firstSeen[res.Name] = res.State
		}
		verdictMu.Unlock()
	}
	// The appender can race far ahead of the growers, so completions may all
	// be stamped near the final stream position; trailing traffic ages the
	// settled intervals out of the MaxEvents window so releases and stream
	// compaction actually happen while the compactor is still hammering.
	for i := 0; i < 64; i++ {
		if _, err := s.Local(i % procs); err != nil {
			t.Fatal(err)
		}
		m.Poll()
	}
	close(stop)
	auxWG.Wait()
	if total, sum := s.TotalEvents(), sumCounts(s); total != sum {
		t.Errorf("TotalEvents = %d; want the sum of Counts, %d", total, sum)
	}

	if len(firstSeen) != condCount {
		t.Fatalf("%d conditions settled, want %d: %v", len(firstSeen), condCount, firstSeen)
	}
	for r := 0; r+1 < rounds; r++ {
		if got := firstSeen[fmt.Sprintf("ordered-%d", r)]; got != monitor.Holds {
			t.Errorf("ordered-%d = %v, want holds", r, got)
		}
		if got := firstSeen[fmt.Sprintf("backflow-%d", r)]; got != monitor.Violated {
			t.Errorf("backflow-%d = %v, want violated", r, got)
		}
	}
	if got := reg.Counter("online.settlements").Value(); got != int64(condCount) {
		t.Errorf("online.settlements = %d, want %d", got, condCount)
	}
	st := m.RetentionStats()
	if st.Released == 0 {
		t.Errorf("no interval was released under aggressive retention: %+v", st)
	}
}

// sumCounts is the number of events the stream's per-process counts hold.
func sumCounts(s *Stream) int {
	n := 0
	for _, c := range s.Counts() {
		n += c
	}
	return n
}
