// Package vclock implements vector timestamps over poset executions:
// the forward timestamp T(e) of Definition 13 and the reverse timestamp
// T^R(e) of Definition 14 of Kshemkalyani (IPPS 1998), in the style of
// Fidge (1988) and Mattern (1989).
//
// Convention: this package counts only real events. T(e)[i] is the number of
// real events on node i with e' ⪯ e; equivalently, the position of the
// latest event on node i that causally precedes or equals e (0 when only
// ⊥_i does). The paper's Definition 13 additionally counts the dummy ⊥_i,
// so T_paper(e)[i] = T(e)[i] + 1 at every component; all identities used by
// the evaluation conditions are convention-independent. Symmetrically,
// T^R(e)[i] is the number of real events on node i with e' ⪰ e.
//
// The central property (the isomorphism (E,≺) ≅ (T,<) noted after
// Definition 13) holds for real events: e ≺ e' iff T(e) < T(e'), and the
// O(1) pairwise test e_j ≺ e'_k iff T(e_j)[j] ≤ T(e'_k)[j] (for e_j ≠ e'_k)
// is exposed as Clocks.Precedes.
package vclock

import (
	"fmt"

	"causet/internal/poset"
)

// VC is a vector timestamp with one component per process.
type VC []int

// Clone returns a copy of v.
func (v VC) Clone() VC {
	w := make(VC, len(v))
	copy(w, v)
	return w
}

// Equal reports componentwise equality. Vectors of different lengths are
// never equal.
func (v VC) Equal(w VC) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// LessEq reports v ≤ w componentwise.
func (v VC) LessEq(w VC) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] > w[i] {
			return false
		}
	}
	return true
}

// Less reports the strict vector order: v ≤ w componentwise and v ≠ w.
func (v VC) Less(w VC) bool {
	return v.LessEq(w) && !v.Equal(w)
}

// Concurrent reports that neither v < w nor w < v nor v = w.
func (v VC) Concurrent(w VC) bool {
	return !v.LessEq(w) && !w.LessEq(v)
}

// MaxInto sets v to the componentwise maximum of v and w.
func (v VC) MaxInto(w VC) {
	for i := range v {
		if w[i] > v[i] {
			v[i] = w[i]
		}
	}
}

// String renders the vector as e.g. "[0 2 1]".
func (v VC) String() string { return fmt.Sprint([]int(v)) }

// Ordering is the result of comparing two vector timestamps.
type Ordering int

const (
	OrderedEqual Ordering = iota
	OrderedBefore
	OrderedAfter
	OrderedConcurrent
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case OrderedEqual:
		return "equal"
	case OrderedBefore:
		return "before"
	case OrderedAfter:
		return "after"
	case OrderedConcurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// Compare classifies the relative order of v and w.
func Compare(v, w VC) Ordering {
	le, ge := v.LessEq(w), w.LessEq(v)
	switch {
	case le && ge:
		return OrderedEqual
	case le:
		return OrderedBefore
	case ge:
		return OrderedAfter
	default:
		return OrderedConcurrent
	}
}

// Clocks holds the forward and reverse vector timestamps of every real event
// of an execution. Construct with New (which computes both tables) or
// NewRebased (both tables computed by the caller); either way the structure
// is immutable afterwards and safe for concurrent readers.
type Clocks struct {
	ex  *poset.Execution
	fwd [][]VC // fwd[p][pos-1-base[p]] = T(e) for real event (p,pos)
	rev [][]VC // rev[p][pos-1-base[p]] = T^R(e)

	// base[p] is the number of leading events of process p whose rows are
	// absent from fwd[p] and rev[p] (dropped by stream compaction). nil means
	// zero everywhere: the plain pos-1 layout of New. Event positions stay
	// absolute; only the storage is rebased.
	base []int
}

// New computes forward and reverse timestamps for all real events of ex in
// a single forward and a single backward pass over a linear extension
// (O(|E|·|P|) time, O(|E|·|P|) space). Each direction's rows are cut from
// one flat array, one allocation per direction instead of one per event.
func New(ex *poset.Execution) *Clocks {
	n := ex.NumProcs()
	c := &Clocks{ex: ex, fwd: rowIndex(ex), rev: rowIndex(ex)}
	order := ex.LinearExtension()

	// A pass takes row k of its flat array for the k-th event of the order,
	// as the per-event allocations it replaces were laid out, so events
	// close in causal order (an interval's members, which cut builds read
	// together) keep their rows close in memory.
	fwd := make([]int, len(order)*n)

	// Forward pass: T(e) = max(T(program predecessor), T(message senders)),
	// then T(e)[proc(e)] = pos(e). Rows start zeroed, so the program
	// predecessor's row is copied rather than merged.
	for k, e := range order {
		t := VC(fwd[k*n : (k+1)*n : (k+1)*n])
		if e.Pos > 1 {
			copy(t, c.fwd[e.Proc][e.Pos-2])
		}
		for _, from := range ex.MsgPredecessors(e) {
			t.MaxInto(c.fwd[from.Proc][from.Pos-1])
		}
		t[e.Proc] = e.Pos
		c.fwd[e.Proc][e.Pos-1] = t
	}

	// Backward pass: T^R(e) = max(T^R(program successor), T^R(message
	// receivers)), then T^R(e)[proc(e)] = NumReal(proc(e)) - pos(e) + 1.
	rev := make([]int, len(order)*n)
	for k := len(order) - 1; k >= 0; k-- {
		e := order[k]
		t := VC(rev[k*n : (k+1)*n : (k+1)*n])
		if e.Pos < ex.NumReal(e.Proc) {
			copy(t, c.rev[e.Proc][e.Pos])
		}
		for _, to := range ex.MsgSuccessors(e) {
			t.MaxInto(c.rev[to.Proc][to.Pos-1])
		}
		t[e.Proc] = ex.NumReal(e.Proc) - e.Pos + 1
		c.rev[e.Proc][e.Pos-1] = t
	}
	return c
}

// rowIndex returns an empty row slot [p][pos-1] for every real event of ex,
// the slots of all processes cut from one array.
func rowIndex(ex *poset.Execution) [][]VC {
	slots := make([]VC, ex.NumEvents())
	idx := make([][]VC, ex.NumProcs())
	for p := range idx {
		k := ex.NumReal(p)
		idx[p], slots = slots[:k:k], slots[k:]
	}
	return idx
}

// NewRebased returns Clocks over ex whose forward and reverse tables the
// caller computed, for a stream whose compaction dropped the first base[p]
// rows of each process: fwd[p] and rev[p] hold rows only for positions
// base[p]+1 .. NumReal(p). Positions remain absolute — callers keep
// addressing events by their external EventIDs — and asking for the
// timestamp of a dropped (compacted) event panics rather than reading a
// wrong row. A nil base means nothing was dropped (the layout of New). The
// Clocks keep the tables and base; the caller must not mutate them
// afterwards.
//
// A Stream's cold Snapshot uses it: the stream maintains forward clocks
// incrementally and derives reverse timestamps from its first-follower
// index, so a snapshot does not pay the two linear-extension passes of New.
func NewRebased(ex *poset.Execution, fwd, rev [][]VC, base []int) *Clocks {
	return &Clocks{ex: ex, fwd: fwd, rev: rev, base: base}
}

// row returns the row of real event (p, pos) in the table tab (fwd or rev),
// applying the rebase offset when the clocks come from a compacted stream.
func (c *Clocks) row(tab [][]VC, p, pos int) VC {
	if c.base != nil {
		idx := pos - 1 - c.base[p]
		if idx < 0 {
			panic(fmt.Sprintf("vclock: timestamp of compacted event p%d:%d (rows retained from position %d)", p, pos, c.base[p]+1))
		}
		return tab[p][idx]
	}
	return tab[p][pos-1]
}

// Execution returns the execution the clocks were computed for.
func (c *Clocks) Execution() *poset.Execution { return c.ex }

// T returns the forward timestamp of e (Definition 13, real-event count
// convention). Dummy events are supported: T(⊥_i) is the zero vector and
// T(⊤_i)[j] = NumReal(j) for every j. The returned vector is shared for real
// events; callers must not modify it.
func (c *Clocks) T(e poset.EventID) VC {
	switch {
	case c.ex.IsReal(e):
		return c.row(c.fwd, e.Proc, e.Pos)
	case c.ex.IsBottom(e):
		return make(VC, c.ex.NumProcs())
	case c.ex.IsTop(e):
		t := make(VC, c.ex.NumProcs())
		for j := range t {
			t[j] = c.ex.NumReal(j)
		}
		return t
	}
	panic(fmt.Sprintf("vclock: T of invalid event %v", e))
}

// TR returns the reverse timestamp of e (Definition 14, real-event count
// convention). Dummy events are supported: T^R(⊤_i) is the zero vector and
// T^R(⊥_i)[j] = NumReal(j) for every j. The returned vector is shared for
// real events; callers must not modify it.
func (c *Clocks) TR(e poset.EventID) VC {
	if c.ex.IsReal(e) {
		return c.row(c.rev, e.Proc, e.Pos)
	}
	t := make(VC, c.ex.NumProcs())
	c.TRInto(e, t)
	return t
}

// TRInto writes the reverse timestamp of e into dst, which must have one
// component per process. It is TR without the allocation, for folds that
// consume one reverse timestamp at a time.
func (c *Clocks) TRInto(e poset.EventID, dst VC) {
	switch {
	case c.ex.IsReal(e):
		copy(dst, c.row(c.rev, e.Proc, e.Pos))
	case c.ex.IsTop(e):
		clear(dst)
	case c.ex.IsBottom(e):
		for j := range dst {
			dst[j] = c.ex.NumReal(j)
		}
	default:
		panic(fmt.Sprintf("vclock: TR of invalid event %v", e))
	}
}

// Precedes reports a ≺ b using timestamps: for distinct real events,
// a ≺ b iff T(a)[proc(a)] ≤ T(b)[proc(a)] (the O(1) test noted after
// Definition 14). Dummy events follow the poset package's axioms. The result
// always agrees with poset.Execution.Precedes but costs O(1) instead of a
// graph search.
func (c *Clocks) Precedes(a, b poset.EventID) bool {
	ex := c.ex
	if !ex.Valid(a) || !ex.Valid(b) || a == b {
		return false
	}
	switch {
	case ex.IsBottom(a):
		return !ex.IsBottom(b)
	case ex.IsTop(a):
		return false
	case ex.IsBottom(b):
		return false
	case ex.IsTop(b):
		return true
	}
	// Only b's row is read, so a ≺ b stays answerable even when a itself is
	// compacted — the retained row of b already absorbed a's contribution.
	return a.Pos <= c.row(c.fwd, b.Proc, b.Pos)[a.Proc]
}

// PrecedesEq reports a ⪯ b.
func (c *Clocks) PrecedesEq(a, b poset.EventID) bool {
	return a == b || c.Precedes(a, b)
}

// Concurrent reports that real or dummy events a and b are distinct and
// causally unrelated.
func (c *Clocks) Concurrent(a, b poset.EventID) bool {
	return a != b && !c.Precedes(a, b) && !c.Precedes(b, a)
}
