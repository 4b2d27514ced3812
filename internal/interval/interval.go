// Package interval implements nonatomic poset events ("intervals"): the
// higher-level application events of Kshemkalyani (IPPS 1998). An interval is
// a non-empty set of real atomic events of one execution, typically spanning
// several nodes. The package provides the node set N_X (Definition 1),
// per-node extrema, and the two proxy constructions L_X / U_X of
// Definitions 2 and 3 that represent an interval's beginning and end.
package interval

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"causet/internal/poset"
	"causet/internal/vclock"
)

// Validation errors returned by New.
var (
	ErrEmpty   = errors.New("interval: nonatomic event must be non-empty")
	ErrNotReal = errors.New("interval: nonatomic event may contain only real events")
)

// Interval is a nonatomic poset event: an immutable, deduplicated,
// (Proc, Pos)-sorted set of real events of a single execution.
type Interval struct {
	ex     *poset.Execution // nil for an interval built by InPlace
	events []poset.EventID
	// first[i]/last[i] index into events for node i's extrema; -1 when the
	// interval has no event on node i.
	first, last []int
	nodes       []int // sorted node set N_X
}

// New validates and constructs an interval over ex from the given events.
// Events are deduplicated; at least one event is required and all must be
// real events of ex (Definition 1's "an event of interest to an application
// will usually not contain any dummy events" is enforced). New copies its
// input.
func New(ex *poset.Execution, events []poset.EventID) (*Interval, error) {
	if len(events) == 0 {
		return nil, ErrEmpty
	}
	for _, e := range events {
		if !ex.IsReal(e) {
			return nil, fmt.Errorf("%w: %v", ErrNotReal, e)
		}
	}
	iv := order(ex.NumProcs(), events, make([]poset.EventID, len(events)))
	iv.ex = ex
	return iv, nil
}

// InPlace builds the interval of events without an execution: events must
// be non-empty real events on procs processes, which the caller has checked
// as New checks them. It orders and deduplicates events in place, so the
// interval's member list is a prefix of events and the caller gives events
// up; the sort stages them in scratch, which comes back grown for reuse.
// The interval's Execution is nil. It answers every query that reads only
// its members: membership, extremes, node set, Overlaps, its per-node
// proxies and String.
func InPlace(procs int, events, scratch []poset.EventID) (*Interval, []poset.EventID) {
	scratch = append(scratch[:0], events...)
	return order(procs, scratch, events), scratch
}

// order builds the interval of src, non-empty real events on procs
// processes, over dst, which has src's length and receives the members in
// (Proc, Pos) order, deduplicated.
func order(procs int, src, dst []poset.EventID) *Interval {
	extrema := make([]int, 2*procs)
	first, last := extrema[:procs:procs], extrema[procs:]
	for _, e := range src {
		last[e.Proc]++
	}
	// Order the events by (Proc, Pos) with a stable counting sort on Proc,
	// first[p] and last[p] bounding p's run. A trace lists, and a stream
	// observes, each process's events in program order, so a run is sorted
	// only when its input was not.
	at := 0
	for p, c := range last {
		first[p], last[p], at = at, at, at+c
	}
	for _, e := range src {
		dst[last[e.Proc]] = e
		last[e.Proc]++
	}
	nodes := 0
	for p := range first {
		run := dst[first[p]:last[p]]
		if len(run) > 0 {
			nodes++
		}
		if !slices.IsSortedFunc(run, byPos) {
			slices.SortFunc(run, byPos)
		}
	}
	dedup := dst[:1]
	for _, e := range dst[1:] {
		if e != dedup[len(dedup)-1] {
			dedup = append(dedup, e)
		}
	}
	// The node set is sized to the number of runs in one allocation, and
	// first and last share another.
	iv := &Interval{
		events: dedup,
		first:  first,
		last:   last,
		nodes:  make([]int, 0, nodes),
	}
	for i := range extrema {
		extrema[i] = -1
	}
	for idx, e := range dedup {
		if iv.first[e.Proc] == -1 {
			iv.first[e.Proc] = idx
			iv.nodes = append(iv.nodes, e.Proc)
		}
		iv.last[e.Proc] = idx
	}
	return iv
}

// sub returns the interval of events, non-empty members of iv, in iv's
// execution.
func (iv *Interval) sub(events []poset.EventID) *Interval {
	out := order(len(iv.first), events, make([]poset.EventID, len(events)))
	out.ex = iv.ex
	return out
}

// byPos orders the events of one process.
func byPos(a, b poset.EventID) int { return cmp.Compare(a.Pos, b.Pos) }

// MustNew is New that panics on error, for tests and fixed fixtures.
func MustNew(ex *poset.Execution, events []poset.EventID) *Interval {
	iv, err := New(ex, events)
	if err != nil {
		panic(err)
	}
	return iv
}

// Execution returns the execution the interval belongs to, nil for an
// interval built by InPlace.
func (iv *Interval) Execution() *poset.Execution { return iv.ex }

// Events returns the interval's members in (Proc, Pos) order. The slice is
// shared; callers must not modify it.
func (iv *Interval) Events() []poset.EventID { return iv.events }

// Size reports |X|, the number of atomic events in the interval.
func (iv *Interval) Size() int { return len(iv.events) }

// Contains reports whether e is a member of the interval.
func (iv *Interval) Contains(e poset.EventID) bool {
	if e.Proc < 0 || e.Proc >= len(iv.first) || iv.first[e.Proc] == -1 {
		return false
	}
	lo, hi := iv.first[e.Proc], iv.last[e.Proc]
	idx := sort.Search(hi-lo+1, func(k int) bool { return iv.events[lo+k].Pos >= e.Pos })
	return idx <= hi-lo && iv.events[lo+idx] == e
}

// NodeSet returns N_X (Definition 1): the sorted set of nodes on which the
// interval has events. The slice is shared; callers must not modify it.
func (iv *Interval) NodeSet() []int { return iv.nodes }

// NodeCount reports |N_X|.
func (iv *Interval) NodeCount() int { return len(iv.nodes) }

// LeastOn returns the earliest member of the interval on node i in program
// order, with ok=false when the interval has no event there.
func (iv *Interval) LeastOn(i int) (poset.EventID, bool) {
	if i < 0 || i >= len(iv.first) || iv.first[i] == -1 {
		return poset.EventID{}, false
	}
	return iv.events[iv.first[i]], true
}

// GreatestOn returns the latest member of the interval on node i in program
// order, with ok=false when the interval has no event there.
func (iv *Interval) GreatestOn(i int) (poset.EventID, bool) {
	if i < 0 || i >= len(iv.last) || iv.last[i] == -1 {
		return poset.EventID{}, false
	}
	return iv.events[iv.last[i]], true
}

// PerNodeLeast returns the earliest member on each node of N_X, in node
// order. Under Definition 2 this is exactly the proxy L_X.
func (iv *Interval) PerNodeLeast() []poset.EventID {
	out := make([]poset.EventID, 0, len(iv.nodes))
	for _, i := range iv.nodes {
		out = append(out, iv.events[iv.first[i]])
	}
	return out
}

// PerNodeGreatest returns the latest member on each node of N_X, in node
// order. Under Definition 2 this is exactly the proxy U_X.
func (iv *Interval) PerNodeGreatest() []poset.EventID {
	out := make([]poset.EventID, 0, len(iv.nodes))
	for _, i := range iv.nodes {
		out = append(out, iv.events[iv.last[i]])
	}
	return out
}

// Overlaps reports whether the two intervals share any atomic event. The
// relation evaluators require disjoint pairs (see DESIGN.md on strictness).
//
// Only nodes in both node sets can hold a shared event. On each such node
// the two intervals' position ranges are compared first, and only when they
// intersect are the two Pos-sorted runs merged, so the cost is linear in
// the operands' sizes and O(min(|N_X|, |N_Y|)) when every shared node
// separates them.
func (iv *Interval) Overlaps(other *Interval) bool {
	a, b := iv, other
	if len(a.nodes) > len(b.nodes) {
		a, b = b, a
	}
	for _, p := range a.nodes {
		if p >= len(b.first) || b.first[p] == -1 {
			continue
		}
		ra := a.events[a.first[p] : a.last[p]+1]
		rb := b.events[b.first[p] : b.last[p]+1]
		if ra[len(ra)-1].Pos < rb[0].Pos || rb[len(rb)-1].Pos < ra[0].Pos {
			continue
		}
		for i, j := 0, 0; i < len(ra) && j < len(rb); {
			switch {
			case ra[i].Pos < rb[j].Pos:
				i++
			case ra[i].Pos > rb[j].Pos:
				j++
			default:
				return true
			}
		}
	}
	return false
}

// String renders the interval's members, e.g. "{p0:1 p2:3}".
func (iv *Interval) String() string {
	s := "{"
	for k, e := range iv.events {
		if k > 0 {
			s += " "
		}
		s += e.String()
	}
	return s + "}"
}

// ProxyKind selects an interval's beginning (L) or end (U) proxy.
type ProxyKind int

const (
	// ProxyL is L_X, the proxy for the interval's beginning.
	ProxyL ProxyKind = iota
	// ProxyU is U_X, the proxy for the interval's end.
	ProxyU
)

// String implements fmt.Stringer ("L" or "U").
func (k ProxyKind) String() string {
	switch k {
	case ProxyL:
		return "L"
	case ProxyU:
		return "U"
	}
	return fmt.Sprintf("ProxyKind(%d)", int(k))
}

// ProxyDef selects which proxy definition to apply.
type ProxyDef int

const (
	// DefPerNode is Definition 2: L_X (resp. U_X) holds, per node, the
	// member that precedes (resp. follows) every other member on the same
	// node — the per-node earliest (latest) events. Always non-empty.
	DefPerNode ProxyDef = iota
	// DefGlobal is Definition 3: L_X (resp. U_X) holds the members that
	// precede (resp. follow) *every* member of X in the causality order.
	// May be empty when X has no global minimum (maximum).
	DefGlobal
)

// String implements fmt.Stringer.
func (d ProxyDef) String() string {
	switch d {
	case DefPerNode:
		return "per-node (Definition 2)"
	case DefGlobal:
		return "global (Definition 3)"
	}
	return fmt.Sprintf("ProxyDef(%d)", int(d))
}

// Proxy computes the requested proxy of the interval as an event list.
//
// Under DefPerNode (Definition 2) the result is PerNodeLeast/PerNodeGreatest
// and clk may be nil. Under DefGlobal (Definition 3) causality tests are
// required, so clk must be non-nil; the result may be empty (the interval
// then has no Definition-3 proxy, which callers must handle — ProxyInterval
// reports it as an error).
func (iv *Interval) Proxy(kind ProxyKind, def ProxyDef, clk *vclock.Clocks) []poset.EventID {
	switch def {
	case DefPerNode:
		if kind == ProxyL {
			return iv.PerNodeLeast()
		}
		return iv.PerNodeGreatest()
	case DefGlobal:
		if clk == nil {
			panic("interval: DefGlobal proxy requires clocks")
		}
		var out []poset.EventID
		// Only per-node extrema can be global extrema, so scan those.
		candidates := iv.PerNodeLeast()
		if kind == ProxyU {
			candidates = iv.PerNodeGreatest()
		}
		for _, e := range candidates {
			ok := true
			for _, f := range iv.events {
				if kind == ProxyL && !clk.PrecedesEq(e, f) {
					ok = false
					break
				}
				if kind == ProxyU && !clk.PrecedesEq(f, e) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, e)
			}
		}
		return out
	default:
		panic(fmt.Sprintf("interval: unknown ProxyDef %d", int(def)))
	}
}

// ProxyInterval returns the proxy as an Interval, for feeding back into the
// relation evaluators (the proxies "are themselves nonatomic poset events",
// §1). Under DefGlobal it returns an error when the proxy is empty.
func (iv *Interval) ProxyInterval(kind ProxyKind, def ProxyDef, clk *vclock.Clocks) (*Interval, error) {
	events := iv.Proxy(kind, def, clk)
	if len(events) == 0 {
		return nil, fmt.Errorf("interval: %v proxy (%v) of %v is empty", kind, def, iv)
	}
	return iv.sub(events), nil
}

// RestrictTo returns the sub-interval of iv on the given nodes, or an error
// when nothing remains. Useful for projecting a system-wide activity onto a
// subsystem before evaluating relations.
func (iv *Interval) RestrictTo(nodes []int) (*Interval, error) {
	keep := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
	}
	var events []poset.EventID
	for _, e := range iv.events {
		if keep[e.Proc] {
			events = append(events, e)
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("interval: %v has no events on nodes %v", iv, nodes)
	}
	return iv.sub(events), nil
}

// Union returns the interval containing the events of both operands, which
// must belong to the same execution.
func (iv *Interval) Union(other *Interval) (*Interval, error) {
	if iv.ex != other.ex {
		return nil, fmt.Errorf("interval: Union across executions")
	}
	return New(iv.ex, append(append([]poset.EventID(nil), iv.events...), other.events...))
}

// Between returns the interval of real events that lie inside the cut hi
// but outside the cut lo — the activity of the execution window (lo, hi].
// Cuts are frontier vectors with one component per process (see
// internal/cuts); an error is returned when the window is empty or the
// frontiers are malformed.
func Between(ex *poset.Execution, lo, hi []int) (*Interval, error) {
	if len(lo) != ex.NumProcs() || len(hi) != ex.NumProcs() {
		return nil, fmt.Errorf("interval: window frontiers have %d/%d components for %d processes",
			len(lo), len(hi), ex.NumProcs())
	}
	var events []poset.EventID
	for p := 0; p < ex.NumProcs(); p++ {
		from := max(lo[p], 0)
		to := min(hi[p], ex.NumReal(p))
		for pos := from + 1; pos <= to; pos++ {
			events = append(events, poset.EventID{Proc: p, Pos: pos})
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("interval: window (%v, %v] contains no real events", lo, hi)
	}
	return New(ex, events)
}
