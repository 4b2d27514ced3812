package online

import (
	"errors"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"causet/internal/poset"
)

// rowsRun drives a compacting stream and an uncompacted twin through one op
// script and checks the compacting stream's rows after every op. Each op
// takes two random bytes: the low three bits of the first pick the op, the
// rest of it and the second byte its operands. Processes are drawn by
// trailing zeros, so process 0 takes about half of the events, process 1 a
// quarter, and so on: the busy rings wrap repeatedly and grow after
// wrapping while the idle ones stay short.
type rowsRun struct {
	t     *testing.T
	s     *Stream
	twin  *Stream
	open  []poset.EventID // sends not yet received
	pins  []poset.EventID // events pinned on s, one entry per Pin
	grows int             // ring growths that re-laid a wrapped ring
	multi int             // receives that merged several sends
}

func (r *rowsRun) proc(b byte) int {
	return min(bits.TrailingZeros8(b|0x80), r.s.procs-1)
}

func (r *rowsRun) step(op, arg byte) {
	t, s := r.t, r.s
	switch op & 7 {
	case 0, 1: // Local
		p := r.proc(op >> 3)
		r.append(func(s *Stream) (poset.EventID, error) { return s.Local(p) })
	case 2: // Send
		p := r.proc(op >> 3)
		e := r.append(func(s *Stream) (poset.EventID, error) { return s.Send(p) })
		r.open = append(r.open, e)
		if arg&1 == 0 { // most sends stay addressable until received
			s.Pin(e)
			r.pins = append(r.pins, e)
		}
	case 3, 4: // Recv of one open send (3), or of two or three at once (4)
		n := 1
		if op&7 == 4 {
			n = 2 + int(arg>>7)
		}
		p := r.proc(op >> 3)
		var sends []poset.EventID
		for k := range r.open {
			if e := r.open[(int(arg)+k)%len(r.open)]; e.Proc != p && len(sends) < n {
				sends = append(sends, e)
			}
		}
		if len(sends) == 0 {
			return
		}
		counts := s.Counts()
		got, err := s.Recv(p, sends...)
		if i := slices.IndexFunc(sends, func(e poset.EventID) bool { return e.Pos <= s.CompactedThrough()[e.Proc] }); i >= 0 {
			if !errors.Is(err, ErrCompacted) || !slices.Equal(s.Counts(), counts) {
				t.Fatalf("Recv(%d, %v) with compacted send %v: %v, counts %v -> %v; want ErrCompacted and no event",
					p, sends, sends[i], err, counts, s.Counts())
			}
			r.open = slices.DeleteFunc(r.open, func(e poset.EventID) bool { return e == sends[i] })
			return
		}
		want, terr := r.twin.Recv(p, sends...)
		if err != nil || terr != nil || got != want {
			t.Fatalf("Recv(%d, %v) = %v, %v; twin %v, %v", p, sends, got, err, want, terr)
		}
		if len(sends) > 1 {
			r.multi++
		}
		r.open = slices.DeleteFunc(r.open, func(e poset.EventID) bool { return slices.Contains(sends, e) })
		for _, send := range sends {
			if i := slices.Index(r.pins, send); i >= 0 {
				s.Unpin(send)
				r.pins = slices.Delete(r.pins, i, i+1)
			}
		}
	case 5: // Pin one of the last few events of a process
		p := r.proc(op >> 3)
		pos := s.Counts()[p] - int(arg)%8
		if pos < 1 {
			return
		}
		e := poset.EventID{Proc: p, Pos: pos}
		s.Pin(e)
		r.pins = append(r.pins, e)
	case 6: // Unpin
		if len(r.pins) == 0 {
			return
		}
		i := int(arg) % len(r.pins)
		s.Unpin(r.pins[i])
		r.pins = slices.Delete(r.pins, i, i+1)
	case 7: // Compact at a random watermark
		counts := s.Counts()
		w := make([]int, len(counts))
		for p, c := range counts {
			w[p] = c - int(arg>>(p%4*2))%4 - int(op>>3)%8
		}
		slots := slices.Clone(s.slots)
		if _, _, err := s.Compact(w); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.slots, slots) {
			t.Fatalf("Compact resized rings: %v -> %v", slots, s.slots)
		}
	}
}

// append applies one Local or Send to both streams and counts the ring
// growths that re-laid a wrapped ring of s.
func (r *rowsRun) append(op func(*Stream) (poset.EventID, error)) poset.EventID {
	head, slots := slices.Clone(r.s.head), slices.Clone(r.s.slots)
	e, err := op(r.s)
	te, terr := op(r.twin)
	if err != nil || terr != nil || e != te {
		r.t.Fatalf("append: %v, %v; twin %v, %v", e, err, te, terr)
	}
	if r.s.slots[e.Proc] != slots[e.Proc] && head[e.Proc] != 0 {
		r.grows++
	}
	return e
}

// check compares every retained event's forward row and first-follower row
// with the twin's, and each first-follower cell with the brute-force first
// follower min{m : T(q,m)[p] ≥ k} over the twin's clocks.
func (r *rowsRun) check() {
	t, s, twin := r.t, r.s, r.twin
	for p := range s.procs {
		for k := s.base[p] + 1; k <= s.counts[p]; k++ {
			e := poset.EventID{Proc: p, Pos: k}
			fwd, ff := s.row(s.fwd, e), s.row(s.ff, e)
			if want := twin.row(twin.fwd, e); !slices.Equal(fwd, want) {
				t.Fatalf("T(%v) = %v, twin %v", e, fwd, want)
			}
			if want := twin.row(twin.ff, e); !slices.Equal(ff, want) {
				t.Fatalf("first followers of %v = %v, twin %v", e, ff, want)
			}
			for q, got := range ff {
				m := 1 + sort.Search(twin.counts[q], func(i int) bool {
					return twin.row(twin.fwd, poset.EventID{Proc: q, Pos: i + 1})[p] >= k
				})
				if m > twin.counts[q] {
					m = 0
				}
				if got != m {
					t.Fatalf("first follower of %v on node %d = %d, brute force %d", e, q, got, m)
				}
			}
		}
	}
}

// runRows runs a script of up to 400 ops drawn from seed over 2 to 5
// processes.
func runRows(t *testing.T, procs uint8, seed int64, ops uint16) *rowsRun {
	n := 2 + int(procs)%4
	r := &rowsRun{t: t, s: NewStream(n), twin: NewStream(n)}
	script := make([]byte, 2*(int(ops)%401))
	rand.New(rand.NewSource(seed)).Read(script)
	for i := 0; i < len(script); i += 2 {
		r.step(script[i], script[i+1])
		r.check()
	}
	return r
}

// rowsSeeds is FuzzStreamRows's seed corpus: 400-op scripts over three to
// five processes.
var rowsSeeds = []struct {
	procs uint8
	seed  int64
}{{1, 0}, {2, 1}, {3, 2}}

// FuzzStreamRows drives Local, Send, Recv of one open send or of two or
// three at once, Pin, Unpin and Compact at a random watermark over a
// compacting stream and an uncompacted twin, and after every op checks each
// retained event's ring rows against the twin's and its first-follower
// cells against brute force.
func FuzzStreamRows(f *testing.F) {
	for _, c := range rowsSeeds {
		f.Add(c.procs, c.seed, uint16(400))
	}
	f.Fuzz(func(t *testing.T, procs uint8, seed int64, ops uint16) {
		runRows(t, procs, seed, ops)
	})
}

// TestStreamRowsWrap pins that the seed corpus exercises what
// FuzzStreamRows is for: rings that grow after their head has wrapped, and
// receives that merge several sends.
func TestStreamRowsWrap(t *testing.T) {
	grows, multi := 0, 0
	for _, c := range rowsSeeds {
		r := runRows(t, c.procs, c.seed, 400)
		grows += r.grows
		multi += r.multi
	}
	if grows == 0 {
		t.Fatal("no ring grew after its head wrapped")
	}
	if multi == 0 {
		t.Fatal("no receive merged several sends")
	}
	t.Logf("%d ring growths after a wrap, %d receives of several sends", grows, multi)
}

// TestCompactAllocs pins that compaction moves no rows and copies no
// message log: with its rings grown, a steady-state Stream.Compact allocates
// only its own watermark slice and the builder's.
func TestCompactAllocs(t *testing.T) {
	const procs, runs = 4, 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewStream(procs)
	lap := func() []int {
		for p := range procs {
			send, err := s.Send(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Recv((p+1)%procs, send); err != nil {
				t.Fatal(err)
			}
		}
		w := s.Counts()
		for p := range w {
			w[p] -= 8
		}
		return w
	}
	for range 64 {
		if _, _, err := s.Compact(lap()); err != nil {
			t.Fatal(err)
		}
	}
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for range runs {
		w := lap()
		runtime.ReadMemStats(&m0)
		_, dropped, err := s.Compact(w)
		runtime.ReadMemStats(&m1)
		if err != nil || dropped == 0 {
			t.Fatalf("Compact(%v) dropped %d: %v", w, dropped, err)
		}
		mallocs += m1.Mallocs - m0.Mallocs
	}
	if got := float64(mallocs) / runs; got != 2 {
		t.Errorf("steady-state Compact: %.2f allocs, want 2 (the two watermark slices)", got)
	}
}
