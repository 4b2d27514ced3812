package bench

import (
	"fmt"
	"strconv"
	"testing"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/online"
)

// BenchmarkPollSettle measures one settling online Poll: a ring of 8 or 32
// processes with one R1(round-(r-1), round-r) per lap and no retention, so
// each Poll summarizes the lap's interval and settles one condition. The
// lap's appends, Observe and Complete run with the timer stopped, so ns/op
// and allocs/op are the Poll's alone. The stream restarts every 256 laps
// (untimed) to keep the benchmark's memory bounded.
func BenchmarkPollSettle(b *testing.B) {
	for _, procs := range []int{8, 32} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var s *online.Stream
			var m *online.Monitor
			lap := func(r int) {
				name := fmt.Sprintf("round-%d", r)
				if r > 0 {
					if err := m.AddCondition(fmt.Sprintf("c%d", r), fmt.Sprintf("R1(round-%d, %s)", r-1, name)); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < procs; i++ {
					send, err := s.Send(i)
					if err != nil {
						b.Fatal(err)
					}
					recv, err := s.Recv((i+1)%procs, send)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Observe(name, send, recv); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Complete(name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := 2 + i%256
				if r == 2 {
					// Two untimed laps settle the first condition, so the
					// timed Polls, even at -benchtime=1x, reuse warm scratch.
					s = online.NewStream(procs)
					m = online.NewMonitor(s)
					lap(0)
					lap(1)
					m.Poll()
				}
				lap(r)
				b.StartTimer()
				if out := m.Poll(); len(out) != 1 || out[0].State != monitor.Holds {
					b.Fatalf("lap %d: Poll = %+v; want one Holds", r, out)
				}
			}
		})
	}
}

// BenchmarkEventLoop measures the online loop per event, in the shape
// perfbench's ring-soak drives it: one op is a Recv on the next process of
// the ring, an Observe of it into the lap's interval and a Poll. The last
// op of each lap also completes the lap's interval and registers
// R1(round-(r-1), round-r), which that op's Poll settles. The monitor runs
// under retention (MaxEvents 512, Every 128), so appraisals and
// compactions are part of the cost, at 8 and 32 processes, with and
// without a registry; the difference between the two is the telemetry's
// share of the loop.
func BenchmarkEventLoop(b *testing.B) {
	for _, procs := range []int{8, 32} {
		for _, instrumented := range []bool{false, true} {
			b.Run(fmt.Sprintf("procs=%d/registry=%t", procs, instrumented), func(b *testing.B) {
				s := online.NewStream(procs)
				m := online.NewMonitor(s)
				if instrumented {
					reg := obs.New()
					s.Instrument(reg, nil)
					m.Instrument(reg)
				}
				if err := m.SetRetention(online.RetentionPolicy{MaxEvents: 512, Every: 128}); err != nil {
					b.Fatal(err)
				}
				prev, err := s.Send(0)
				if err != nil {
					b.Fatal(err)
				}
				r, k, name := 0, 0, "round-0"
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e, err := s.Recv((prev.Proc+1)%procs, prev)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Observe(name, e); err != nil {
						b.Fatal(err)
					}
					if k++; k == procs {
						if err := m.Complete(name); err != nil {
							b.Fatal(err)
						}
						next := "round-" + strconv.Itoa(r+1)
						if r > 0 {
							src := "R1(round-" + strconv.Itoa(r-1) + ", " + name + ")"
							if err := m.AddCondition("c"+strconv.Itoa(r), src); err != nil {
								b.Fatal(err)
							}
						}
						r, k, name = r+1, 0, next
					}
					for _, res := range m.Poll() {
						if res.State != monitor.Holds {
							b.Fatalf("%s = %v; want holds", res.Name, res.State)
						}
					}
					prev = e
				}
			})
		}
	}
}
