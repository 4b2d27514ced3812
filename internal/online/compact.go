package online

import (
	"fmt"

	"causet/internal/poset"
)

// This file is the stream side of the retention subsystem (DESIGN.md S26):
// Compact drops the per-event state — clock rows, first-follower rows, and
// the builder's message edges — of a settled prefix by advancing each
// ring's head and the builder's log start, so it moves no rows and the
// rings keep their capacity for the appends that follow. Event positions
// are never renumbered: external EventIDs stay valid, only queries that
// need a dropped event's causal neighborhood become unanswerable (and say
// so).

// Pin marks a recorded event as in-flight: the compaction watermark will
// not pass it until a matching Unpin. Drivers that append sends whose
// receives arrive later (delayed delivery, reordering fault plans) pin each
// send so Recv can still read its clock whenever the receive lands. Pins
// nest: each Pin needs its own Unpin.
func (s *Stream) Pin(e poset.EventID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins == nil {
		s.pins = make(map[poset.EventID]int)
	}
	s.pins[e]++
}

// Unpin releases one Pin of e. Unpinning an unpinned event is a no-op.
func (s *Stream) Unpin(e poset.EventID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[e]; n > 1 {
		s.pins[e] = n - 1
	} else if n == 1 {
		delete(s.pins, e)
	}
}

// TotalEvents reports the total number of events recorded so far (including
// compacted ones — positions are absolute). It takes no lock: the total is
// the one field read without it (see Stream).
func (s *Stream) TotalEvents() int {
	return int(s.total.Load())
}

// Counts returns a copy of the per-process event counts.
func (s *Stream) Counts() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.counts...)
}

// CompactedThrough returns a copy of the per-process compaction watermark:
// events at or below it have had their per-event state dropped. All zeros
// until the first effective Compact.
func (s *Stream) CompactedThrough() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.base...)
}

// RetainedEvents reports how many events currently have per-event state.
func (s *Stream) RetainedEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for p := 0; p < s.procs; p++ {
		n += s.counts[p] - s.base[p]
	}
	return n
}

// Compact drops per-event state at or below the requested per-process
// watermark w, after clamping it to the greatest safe position:
//
//   - at most counts[p]-1 — the frontier event's clock row feeds the next
//     append's program-predecessor merge;
//   - strictly below every pinned event (see Pin);
//   - at or above the previous watermark (compaction is monotone);
//   - down to the greatest *consistent cut* ≤ the clamped request: a cut w
//     is consistent when the clock of each watermark event is ≤ w
//     componentwise, i.e. nothing outside the cut causally precedes
//     anything inside it. Downward closedness is what keeps every
//     retained×retained causality query exact afterwards (no causal path
//     between retained events routes through the dropped region).
//
// Compaction advances each process's ring head past its dropped rows and
// the builder's message log past the dropped messages (Builder.CompactBelow):
// it moves no rows, so its cost follows the number of processes and
// retained messages, not the retained rows. The applied watermark and the
// number of newly compacted events are returned; a request the clamps
// reduce to a no-op returns (applied, 0, nil) without touching anything. A
// watermark with the wrong number of components is an error.
func (s *Stream) Compact(w []int) (applied []int, dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(w) != s.procs {
		return nil, 0, fmt.Errorf("online: Compact watermark has %d components for %d processes", len(w), s.procs)
	}
	nw := make([]int, s.procs)
	for p := 0; p < s.procs; p++ {
		nw[p] = w[p]
		if frontier := s.counts[p] - 1; nw[p] > frontier {
			nw[p] = frontier
		}
		if nw[p] < s.base[p] {
			nw[p] = s.base[p]
		}
	}
	for e, n := range s.pins {
		if n > 0 && nw[e.Proc] >= e.Pos {
			nw[e.Proc] = e.Pos - 1
			if nw[e.Proc] < s.base[e.Proc] {
				nw[e.Proc] = s.base[e.Proc]
			}
		}
	}
	// Greatest consistent cut ≤ nw, by decreasing fixpoint: while some
	// watermark event's clock exceeds the cut, move that component down.
	// The previous watermark is itself consistent, so the fixpoint never
	// needs to descend below it (the set of consistent cuts is a lattice
	// and s.base is a lower bound of the candidates).
	for changed := true; changed; {
		changed = false
		for p := 0; p < s.procs; p++ {
			for nw[p] > s.base[p] {
				t := s.row(s.fwd, poset.EventID{Proc: p, Pos: nw[p]})
				ok := true
				for q := 0; q < s.procs; q++ {
					if t[q] > nw[q] {
						ok = false
						break
					}
				}
				if ok {
					break
				}
				nw[p]--
				changed = true
			}
		}
	}
	for p := 0; p < s.procs; p++ {
		dropped += nw[p] - s.base[p]
	}
	if dropped == 0 {
		return nw, 0, nil
	}
	if _, err := s.b.CompactBelow(nw); err != nil {
		// The fixpoint above guarantees a consistent cut, which the builder
		// re-validates against its message log; a rejection means the two
		// structures disagree, i.e. corruption.
		panic(err)
	}
	// Advance the ring heads past the dropped rows. The frontier clamp keeps
	// at least one row retained, so the cut is shorter than the ring and one
	// wrap suffices. Snapshots hold copies, so no reader sees a slot reused.
	for p := 0; p < s.procs; p++ {
		if s.head[p] += nw[p] - s.base[p]; s.head[p] >= s.slots[p] {
			s.head[p] -= s.slots[p]
		}
	}
	copy(s.base, nw)
	s.snap = nil
	s.metCompactions.Add(1)
	s.metCompacted.Add(int64(dropped))
	retained := 0
	for p := 0; p < s.procs; p++ {
		retained += s.counts[p] - s.base[p]
	}
	s.metRetained.Set(int64(retained))
	return nw, dropped, nil
}
