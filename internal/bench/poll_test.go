package bench

import (
	"fmt"
	"testing"

	"causet/internal/monitor"
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
