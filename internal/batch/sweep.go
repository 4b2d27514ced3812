package batch

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/poset"
)

// This file implements Matrix on the fast evaluator as a per-node threshold
// sweep. Theorem 20's per-node conditions (core.FastEvaluator.EvalCount)
// make every canonical relation a test between one cut component of the row
// interval X and one of the column interval Y on the same node p, always of
// the form key(Y) ≥ threshold(X):
//
//	R1:  ∀p∈N_X: Y.InterDown[p] ≥ X.LastPos[p]
//	R2:  ∀p∈N_X: Y.UnionDown[p] ≥ X.LastPos[p]
//	R3:  ∃p∈N_X: Y.InterDown[p] ≥ X.InterUp[p]
//	R4:  ∃p∈N_X: Y.UnionDown[p] ≥ X.InterUp[p]
//	R3': ∀p∈N_Y: Y.FirstPos[p]  ≥ X.InterUp[p]
//	R2': ∃p∈N_Y: Y.UnionDown[p] ≥ X.UnionUp[p]
//
// (R1 and R4 are decided over N_X; their N_Y forms are the same
// predicates.) On one node the columns that pass a row are therefore a
// prefix of the columns in descending key order, and walking the rows in
// descending threshold order only ever extends that prefix. One walk per
// (node, relation) keeps the prefix as a running column bitset and ANDs it
// into the row of a ∀ plane or ORs it into the row of an ∃ plane, 64 cells
// per word. On the N_Y side a ∀ walk starts from the columns with no event
// on p, which hold vacuously, and an ∃ walk admits member columns only.
//
// The sweep runs in two pool phases after the cut pre-pass. The first sorts
// each node's six orders and merges each walk's row order against its
// column order once, recording how many columns each row admits; one extra
// task builds the per-event index of the intervals containing each event.
// The second gives each worker a fixed row range of every plane: it replays
// the walks, applying only its own rows, marks its rows' overlapping
// columns from the event index, and fills its rows of the matrix one plane
// word at a time. Every plane bit is written by the one worker owning its
// row, so the matrix and the Stats are independent of the worker count.

// The per-node orders. Each is a list of packed (key, interval) words
// (sweepKey) sorted so the largest key comes first.
const (
	byLast      = iota // member rows by LastPos
	byInterUp          // all rows by InterUp
	byUnionUp          // all rows by UnionUp
	byInterDown        // all columns by InterDown
	byUnionDown        // all columns by UnionDown
	byFirstPos         // member columns by FirstPos
	numOrders
)

// The planes: one per canonical relation, then the overlap plane.
const (
	planeR1 = iota
	planeR2
	planeR3
	planeR4
	planeR3p
	planeR2p
	planeOvl
	numPlanes
)

// planeSweep is one relation's walk on a node: its row order against its
// column order, quantified over the rows' node sets (N_X) or the columns'
// (N_Y).
type planeSweep struct {
	rows, cols int
	forall     bool // ∀ plane (rows start full, walks AND) or ∃ (start empty, OR)
	overY      bool // quantifies over N_Y: only member columns are admitted
}

// sweeps lists the walk of each relation plane.
var sweeps = [planeOvl]planeSweep{
	planeR1:  {byLast, byInterDown, true, false},
	planeR2:  {byLast, byUnionDown, true, false},
	planeR3:  {byInterUp, byInterDown, false, false},
	planeR4:  {byInterUp, byUnionDown, false, false},
	planeR3p: {byInterUp, byFirstPos, true, true},
	planeR2p: {byUnionUp, byUnionDown, false, true},
}

// sweepKey packs a cut component and an interval index into one word whose
// ascending order is descending key, ties by ascending index, so sorting
// packed words yields a walk order. Components are positions ≥ -1. Two
// packed words compare by key through their high halves alone: a column
// key ≥ a row threshold iff the column's high half ≤ the row's.
func sweepKey(key, idx int) uint64 {
	return uint64(^uint32(key+1))<<32 | uint64(uint32(idx))
}

// sweepIdx is the interval index of a packed word.
func sweepIdx(v uint64) int { return int(uint32(v)) }

// matrixSweep is the shared state of one sweep: the inputs, the node
// orders and merge results of the first phase, and the planes.
type matrixSweep struct {
	ivs  []*interval.Interval
	ics  []*core.IntervalCuts
	n, w int // intervals, plane words per row

	// ord holds numOrders segments of n words per node; members[p] is the
	// number of intervals with an event on node p (the length of its byLast
	// and byFirstPos orders), and memb holds one w-word bitset of those
	// intervals per node. adm holds len(sweeps) segments of n entries per
	// node: adm[t] is the number of column-order entries the row at walk
	// position t admits.
	ord     []uint64
	memb    []uint64
	members []int32
	adm     []int32

	// evBase[p] + pos indexes event (p, pos) in evStart; evStart[f] and
	// evStart[f+1] bound the entries of evIvs naming the intervals that
	// contain event f. shared reports whether any event lies in two.
	evBase  []int32
	evStart []int32
	evIvs   []int32
	shared  bool

	// planes holds numPlanes planes of n rows of w words; run holds one
	// w-word running column bitset per worker.
	planes []uint64
	run    []uint64
}

// order returns node p's order o, trimmed to its length.
func (s *matrixSweep) order(p, o int) []uint64 {
	seg := s.ord[(p*numOrders+o)*s.n:][:s.n]
	if o == byLast || o == byFirstPos {
		return seg[:s.members[p]]
	}
	return seg
}

// admits returns the merge results of walk k on node p.
func (s *matrixSweep) admits(p, k int) []int32 {
	return s.adm[(p*len(sweeps)+k)*s.n:][:s.n]
}

// row returns row i of plane k.
func (s *matrixSweep) row(k, i int) []uint64 {
	return s.planes[(k*s.n+i)*s.w:][:s.w]
}

// nodeMembers returns node p's membership bitset.
func (s *matrixSweep) nodeMembers(p int) []uint64 { return s.memb[p*s.w:][:s.w] }

// member reports whether interval i has an event on node p.
func (s *matrixSweep) member(i, p int) bool {
	return s.memb[p*s.w+i>>6]>>uint(i&63)&1 != 0
}

// sweepMatrix fills pm's rows for ivs by the per-node sweep (see the top of
// this file) and returns the batch's Stats: a query per off-diagonal cell,
// the canonical relations held outside overlap cells, the merge
// comparisons, and the plane words.
func (e *Engine) sweepMatrix(pm *hierarchy.PairMatrix, ivs []*interval.Interval) Stats {
	n := len(ivs)
	ics := make([]*core.IntervalCuts, n)
	// Not a batch: the pre-pass feeds no batch.* metric.
	e.runPool(n, func(_ core.Evaluator, i int, _ *Stats) { ics[i] = e.a.Cuts(ivs[i]) })
	return e.batch(func() Stats {
		if n == 0 {
			return Stats{}
		}
		ex := e.a.Execution()
		procs := ex.NumProcs()
		workers := min(e.workers, n)
		s := &matrixSweep{
			ivs:     ivs,
			ics:     ics,
			n:       n,
			w:       (n + 63) / 64,
			members: make([]int32, procs),
			adm:     make([]int32, procs*len(sweeps)*n),
		}
		s.ord = make([]uint64, procs*(numOrders*n+s.w))
		s.memb = s.ord[procs*numOrders*n:]
		s.planes = make([]uint64, (numPlanes*n+workers)*s.w)
		s.run = s.planes[numPlanes*n*s.w:]

		// Phase 1: one task per node, plus the event index, dealt round
		// robin.
		var cmp atomic.Int64
		e.spread(workers, func(w int) {
			for p := w; p <= procs; p += workers {
				if p == procs {
					s.indexEvents(ex)
				} else {
					cmp.Add(s.sortNode(p))
				}
			}
		})

		// Phase 2: planes and cells, one row range per worker.
		var total Stats
		e.spread(workers, func(w int) {
			lo, hi := w*n/workers, (w+1)*n/workers
			words := s.planeRows(lo, hi, s.run[w*s.w:][:s.w])
			total.add(Stats{Held: s.fillRows(pm, lo, hi), SweepWords: words})
		})
		total.Queries = int64(n) * int64(n-1)
		total.Comparisons = cmp.Load()
		return total
	})
}

// sortNode builds node p's orders and merges every walk's row order against
// its column order, recording each row's admitted prefix; it returns the
// threshold comparisons spent. Rows outside N_X take no part in the N_X
// walks of R3 and R4, so they admit nothing new and cost no comparison.
func (s *matrixSweep) sortNode(p int) int64 {
	seg := s.ord[p*numOrders*s.n:][:numOrders*s.n]
	o := func(k int) []uint64 { return seg[k*s.n:][:s.n] }
	memb := s.nodeMembers(p)
	m := 0
	for i, ic := range s.ics {
		o(byInterUp)[i] = sweepKey(ic.InterUp[p], i)
		o(byUnionUp)[i] = sweepKey(ic.UnionUp[p], i)
		o(byInterDown)[i] = sweepKey(ic.InterDown[p], i)
		o(byUnionDown)[i] = sweepKey(ic.UnionDown[p], i)
		if ic.LastPos[p] >= 0 {
			o(byLast)[m] = sweepKey(ic.LastPos[p], i)
			o(byFirstPos)[m] = sweepKey(ic.FirstPos[p], i)
			memb[i>>6] |= 1 << uint(i&63)
			m++
		}
	}
	s.members[p] = int32(m)
	if m == 0 {
		// No walk on p changes a plane: N_X walks have no rows, R3' holds
		// vacuously everywhere and R2' has no witness column.
		return 0
	}
	for k := 0; k < numOrders; k++ {
		slices.Sort(s.order(p, k))
	}
	var cmp int64
	for k, sw := range sweeps {
		rows, cols, adm := s.order(p, sw.rows), s.order(p, sw.cols), s.admits(p, k)
		c := 0
		for t, rv := range rows {
			if !sw.overY && !s.member(sweepIdx(rv), p) {
				adm[t] = int32(c)
				continue
			}
			for c < len(cols) {
				cmp++
				if cols[c]>>32 > rv>>32 {
					break
				}
				c++
			}
			adm[t] = int32(c)
		}
	}
	return cmp
}

// indexEvents builds the per-event index of the intervals containing each
// event of ex. Intervals of a prefix of ex index into the same positions.
func (s *matrixSweep) indexEvents(ex *poset.Execution) {
	s.evBase = make([]int32, ex.NumProcs())
	events, size := 0, 0
	for p := range s.evBase {
		s.evBase[p] = int32(events)
		events += ex.Len(p)
	}
	for _, iv := range s.ivs {
		size += iv.Size()
	}
	idx := make([]int32, events+1+size)
	start, entries := idx[:events+1], idx[events+1:]
	for _, iv := range s.ivs {
		for _, ev := range iv.Events() {
			f := s.evBase[ev.Proc] + int32(ev.Pos)
			start[f]++
			if start[f] > 1 {
				s.shared = true
			}
		}
	}
	if !s.shared {
		return
	}
	// Prefix sums make start[f] the end of event f's entries; filling
	// backwards then leaves it at their beginning, so event f's entries are
	// entries[start[f]:start[f+1]].
	var sum int32
	for f := range start[:events] {
		sum += start[f]
		start[f] = sum
	}
	start[events] = sum
	for i, iv := range s.ivs {
		for _, ev := range iv.Events() {
			f := s.evBase[ev.Proc] + int32(ev.Pos)
			start[f]--
			entries[start[f]] = int32(i)
		}
	}
	s.evStart, s.evIvs = start, entries
}

// planeRows builds rows [lo, hi) of every plane with run as the worker's
// running column bitset, and returns the words it ANDed or ORed in.
func (s *matrixSweep) planeRows(lo, hi int, run []uint64) int64 {
	full := ^uint64(0)
	tail := full >> uint((64-s.n%64)%64)
	for k, sw := range sweeps {
		if !sw.forall {
			continue
		}
		for i := lo; i < hi; i++ {
			r := s.row(k, i)
			for j := range r {
				r[j] = full
			}
			r[len(r)-1] = tail
		}
	}
	var words int64
	for p, m := range s.members {
		if m == 0 {
			continue
		}
		for k, sw := range sweeps {
			rows, cols, adm := s.order(p, sw.rows), s.order(p, sw.cols), s.admits(p, k)
			clear(run)
			held := 0 // columns in run
			if sw.overY && sw.forall {
				for j, x := range s.nodeMembers(p) {
					run[j] = ^x
				}
				run[len(run)-1] &= tail
				held = s.n - int(m)
			}
			c := 0
			for t, rv := range rows {
				for ; c < int(adm[t]); c++ {
					col := sweepIdx(cols[c])
					if sw.overY && !s.member(col, p) {
						continue
					}
					run[col>>6] |= 1 << uint(col&63)
					held++
				}
				i := sweepIdx(rv)
				if i < lo || i >= hi || !sw.overY && !s.member(i, p) {
					continue
				}
				dst := s.row(k, i)
				switch {
				case sw.forall && held < s.n:
					for j, x := range run {
						dst[j] &= x
					}
				case !sw.forall && held > 0:
					for j, x := range run {
						dst[j] |= x
					}
				default:
					continue // ANDing a full set or ORing an empty one
				}
				words += int64(s.w)
			}
		}
	}
	if s.shared {
		for i := lo; i < hi; i++ {
			r := s.row(planeOvl, i)
			for _, ev := range s.ivs[i].Events() {
				f := s.evBase[ev.Proc] + int32(ev.Pos)
				for _, j := range s.evIvs[s.evStart[f]:s.evStart[f+1]] {
					r[j>>6] |= 1 << uint(j&63)
				}
			}
		}
	}
	return words
}

// fillRows allocates and fills pm's rows [lo, hi) from the planes one word
// of 64 cells at a time, and returns the canonical relations held outside
// overlap and diagonal cells.
func (s *matrixSweep) fillRows(pm *hierarchy.PairMatrix, lo, hi int) int64 {
	var held int64
	for i := lo; i < hi; i++ {
		cells := make([]hierarchy.Cell, s.n)
		r1, r2, r3, r4 := s.row(planeR1, i), s.row(planeR2, i), s.row(planeR3, i), s.row(planeR4, i)
		r3p, r2p, ovl := s.row(planeR3p, i), s.row(planeR2p, i), s.row(planeOvl, i)
		for k := range ovl {
			var diag uint64
			if k == i>>6 {
				diag = 1 << uint(i&63)
			}
			o := ovl[k] &^ diag
			keep := ^(o | diag)
			w1, w2, w3, w4 := r1[k]&keep, r2[k]&keep, r3[k]&keep, r4[k]&keep
			w3p, w2p := r3p[k]&keep, r2p[k]&keep
			held += int64(bits.OnesCount64(w1) + bits.OnesCount64(w2) + bits.OnesCount64(w3) +
				bits.OnesCount64(w4) + bits.OnesCount64(w3p) + bits.OnesCount64(w2p))
			for m := w1 | w2 | w3 | w4 | w3p | w2p | o; m != 0; m &= m - 1 {
				b := uint(bits.TrailingZeros64(m))
				c := &cells[k<<6|int(b)]
				if o>>b&1 != 0 {
					c.Overlap = true
					continue
				}
				v := uint8(w1>>b&1)<<core.R1 | uint8(w2>>b&1)<<core.R2 |
					uint8(w3>>b&1)<<core.R3 | uint8(w4>>b&1)<<core.R4 |
					uint8(w3p>>b&1)<<core.R3Prime | uint8(w2p>>b&1)<<core.R2Prime
				c.Strongest = hierarchy.StrongestOf(v)
			}
		}
		pm.Cells[i] = cells
	}
	return held
}
