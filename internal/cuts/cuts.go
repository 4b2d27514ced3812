// Package cuts implements execution prefixes ("cuts", Definition 5 of
// Kshemkalyani IPPS 1998), their surfaces, the special past/future cuts ↓e
// and e↑ of an atomic event (Definitions 8–9), the four condensed cuts
// C1(X)–C4(X) of a nonatomic event (Definition 10 / Table 2), cut timestamps
// (Definition 15, Lemma 16), and the ≪ relation between cuts (Definition 7)
// together with its restricted linear-time violation test (Key Idea 2,
// Theorem 19).
//
// A cut is the union of one downward-closed subset of each local execution
// E_i, i.e. a per-node prefix. It therefore has an exact lossless
// representation as a frontier vector: Cut[i] is the position of the latest
// event of the cut on node i (0 = only ⊥_i, NumReal(i)+1 = up to and
// including ⊤_i). In this representation the frontier vector *is* the cut's
// timestamp in the position convention (Definition 15: T(C)[i] is the
// timestamp component of the latest event of C at node i), so Lemma 16's
// min/max composition rules act componentwise on Cut values, and the ≪ test
// is a componentwise comparison.
package cuts

import (
	"errors"
	"fmt"

	"causet/internal/poset"
	"causet/internal/vclock"
)

// Cut is an execution prefix represented by its frontier: Cut[i] is the
// position of the latest event included on node i. Every cut includes all
// dummy initial events E^⊥ (Definition 5), so components are ≥ 0.
type Cut []int

// Counter accumulates the number of integer comparisons spent in ≪ tests,
// for validating the complexity claims of Theorems 19 and 20. A nil *Counter
// is valid and counts nothing.
type Counter struct{ n int64 }

// Add records k comparisons.
func (c *Counter) Add(k int) {
	if c != nil {
		c.n += int64(k)
	}
}

// Count reports the comparisons recorded so far.
func (c *Counter) Count() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.n = 0
	}
}

// ErrNotDownwardClosed is returned by FromSet for sets that are not per-node
// prefixes once E^⊥ is added.
var ErrNotDownwardClosed = errors.New("cuts: event set is not downward-closed within some node")

// Bottom returns the cut E^⊥ containing exactly the dummy initial events.
func Bottom(ex *poset.Execution) Cut {
	return make(Cut, ex.NumProcs())
}

// Full returns the cut containing every event including all ⊤_i.
func Full(ex *poset.Execution) Cut {
	c := make(Cut, ex.NumProcs())
	for i := range c {
		c[i] = ex.TopPos(i)
	}
	return c
}

// FromEvents returns the smallest cut containing the given events (and E^⊥).
func FromEvents(ex *poset.Execution, events []poset.EventID) Cut {
	c := make(Cut, ex.NumProcs())
	for _, e := range events {
		if !ex.Valid(e) {
			panic(fmt.Sprintf("cuts: FromEvents with invalid event %v", e))
		}
		if e.Pos > c[e.Proc] {
			c[e.Proc] = e.Pos
		}
	}
	return c
}

// FromSet converts an explicit event set into a Cut, verifying that the set
// (plus E^⊥, which Definition 5 mandates) is downward-closed within every
// node. It is primarily used by tests that build cuts set-theoretically.
func FromSet(ex *poset.Execution, set map[poset.EventID]bool) (Cut, error) {
	c := make(Cut, ex.NumProcs())
	for e, in := range set {
		if !in {
			continue
		}
		if !ex.Valid(e) {
			return nil, fmt.Errorf("cuts: invalid event %v in set", e)
		}
		if e.Pos > c[e.Proc] {
			c[e.Proc] = e.Pos
		}
	}
	for i := 0; i < ex.NumProcs(); i++ {
		for pos := 1; pos <= c[i]; pos++ {
			if !set[poset.EventID{Proc: i, Pos: pos}] {
				return nil, fmt.Errorf("%w: node %d misses position %d below frontier %d",
					ErrNotDownwardClosed, i, pos, c[i])
			}
		}
	}
	return c, nil
}

// Clone returns a copy of c.
func (c Cut) Clone() Cut {
	d := make(Cut, len(c))
	copy(d, c)
	return d
}

// Equal reports componentwise equality.
func (c Cut) Equal(d Cut) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Contains reports whether event e belongs to the cut.
func (c Cut) Contains(e poset.EventID) bool {
	return e.Proc >= 0 && e.Proc < len(c) && e.Pos >= 0 && e.Pos <= c[e.Proc]
}

// IsBottom reports whether the cut is exactly E^⊥.
func (c Cut) IsBottom() bool {
	for _, f := range c {
		if f != 0 {
			return false
		}
	}
	return true
}

// Subset reports c ⊆ d.
func (c Cut) Subset(d Cut) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] > d[i] {
			return false
		}
	}
	return true
}

// Union returns c ∪ d (componentwise max; Lemma 16).
func (c Cut) Union(d Cut) Cut {
	u := make(Cut, len(c))
	for i := range c {
		u[i] = max(c[i], d[i])
	}
	return u
}

// Intersect returns c ∩ d (componentwise min; Lemma 16).
func (c Cut) Intersect(d Cut) Cut {
	u := make(Cut, len(c))
	for i := range c {
		u[i] = min(c[i], d[i])
	}
	return u
}

// Surface returns S(C), the latest event of the cut on each node
// (Definition 6), including ⊥_i for nodes whose prefix is empty. The events
// are ordered by node index.
func (c Cut) Surface() []poset.EventID {
	s := make([]poset.EventID, len(c))
	for i, f := range c {
		s[i] = poset.EventID{Proc: i, Pos: f}
	}
	return s
}

// SurfaceAt returns [S(C)]_i, the latest event of the cut at node i.
func (c Cut) SurfaceAt(i int) poset.EventID {
	return poset.EventID{Proc: i, Pos: c[i]}
}

// Events expands the cut into its explicit member set, including dummies.
// Intended for tests and small diagnostics, not hot paths.
func (c Cut) Events(ex *poset.Execution) []poset.EventID {
	var out []poset.EventID
	for i, f := range c {
		for pos := 0; pos <= f; pos++ {
			out = append(out, poset.EventID{Proc: i, Pos: pos})
		}
	}
	_ = ex
	return out
}

// NodeSet returns N_C = {i | C_i ⊄ {⊥_i, ⊤_i}}: the nodes where the cut
// contains at least one real event.
func (c Cut) NodeSet(ex *poset.Execution) []int {
	var out []int
	for i, f := range c {
		if f >= 1 && ex.NumReal(i) >= 1 {
			out = append(out, i)
		}
	}
	return out
}

// String renders the frontier, e.g. "cut[2 0 5]".
func (c Cut) String() string { return "cut" + fmt.Sprint([]int(c)) }

// Down returns ↓e, the causal past cut of a real event e (Definition 8):
// the maximal set of events that happen before or equal e. Its frontier at
// node i is T(e)[i]. Panics when e is not a real event of the execution;
// dummy events are not meaningful members of application-level intervals.
func Down(c *vclock.Clocks, e poset.EventID) Cut {
	if !c.Execution().IsReal(e) {
		panic(fmt.Sprintf("cuts: Down of non-real event %v", e))
	}
	t := c.T(e)
	d := make(Cut, len(t))
	copy(d, t)
	return d
}

// Up returns e↑, the complement of the causal future of a real event e
// (Definition 9): the prefix up to and including, on every node, the
// earliest event that happens after or equals e. Its frontier at node i is
// NumReal(i) + 1 − T^R(e)[i] (the ⊤_i fallback when no real event on i
// follows e; cf. the paper's |E_i| − T^R(x)[i] − 1, which differs only by
// the dummy-counting convention). Panics when e is not a real event.
func Up(c *vclock.Clocks, e poset.EventID) Cut {
	ex := c.Execution()
	if !ex.IsReal(e) {
		panic(fmt.Sprintf("cuts: Up of non-real event %v", e))
	}
	tr := c.TR(e)
	d := make(Cut, len(tr))
	for i := range d {
		d[i] = ex.NumReal(i) + 1 - tr[i]
	}
	return d
}

// IntersectDown returns C1(X) = ∩⇓X = ⋂_{x∈X} ↓x (Table 2): the maximal
// execution prefix every event of X knows about. X must be non-empty and
// consist of real events.
func IntersectDown(c *vclock.Clocks, x []poset.EventID) Cut {
	return foldDown(c, x, false)
}

// UnionDown returns C2(X) = ∪⇓X = ⋃_{x∈X} ↓x (Table 2): the maximal prefix
// the events of X collectively know about.
func UnionDown(c *vclock.Clocks, x []poset.EventID) Cut {
	return foldDown(c, x, true)
}

// IntersectUp returns C3(X) = ∩⇑X = ⋂_{x∈X} x↑ (Table 2): the minimal prefix
// whose surface events are each preceded by some event of X.
func IntersectUp(c *vclock.Clocks, x []poset.EventID) Cut {
	return foldUp(c, x, false)
}

// UnionUp returns C4(X) = ∪⇑X = ⋃_{x∈X} x↑ (Table 2): the minimal prefix
// whose surface events are each preceded by every event of X.
//
// Note: ∪⇑X is a componentwise max of the x↑ cuts; as a set it is the union,
// and Lemma 11 shows the result is again a cut.
func UnionUp(c *vclock.Clocks, x []poset.EventID) Cut {
	return foldUp(c, x, true)
}

// The folds apply Lemma 16's componentwise min/max in place: the result cut
// is the only allocation of a down fold, which reads the shared forward rows
// T(x) directly, and an up fold adds one reverse-timestamp scratch row that
// Clocks.TRInto refills per event. A fold over X therefore allocates the
// same amount whatever |X|.

func foldDown(c *vclock.Clocks, x []poset.EventID, union bool) Cut {
	checkFold(c, x, "Down")
	acc := Cut(c.T(x[0])).Clone()
	for _, e := range x[1:] {
		merge(acc, c.T(e), union)
	}
	return acc
}

func foldUp(c *vclock.Clocks, x []poset.EventID, union bool) Cut {
	checkFold(c, x, "Up")
	ex := c.Execution()
	acc := make(Cut, ex.NumProcs())
	up := make(vclock.VC, len(acc))
	for k, e := range x {
		c.TRInto(e, up)
		for i := range up {
			up[i] = ex.NumReal(i) + 1 - up[i] // e↑ at node i (see Up)
		}
		if k == 0 {
			copy(acc, up)
		} else {
			merge(acc, up, union)
		}
	}
	return acc
}

// merge folds row into acc componentwise: max for a union, min for an
// intersection (Lemma 16).
func merge(acc Cut, row []int, union bool) {
	if union {
		for i := range acc {
			acc[i] = max(acc[i], row[i])
		}
		return
	}
	for i := range acc {
		acc[i] = min(acc[i], row[i])
	}
}

// checkFold enforces the fold precondition: a non-empty set of real events,
// panicking with the message of the single-event cut it stands in for.
func checkFold(c *vclock.Clocks, x []poset.EventID, base string) {
	if len(x) == 0 {
		panic("cuts: fold over empty nonatomic event")
	}
	ex := c.Execution()
	for _, e := range x {
		if !ex.IsReal(e) {
			panic(fmt.Sprintf("cuts: %s of non-real event %v", base, e))
		}
	}
}

// Less reports the ≪ relation of Definition 7 between cuts of the same
// execution, using the frontier characterization: ≪(C,C') iff C' ≠ E^⊥ and,
// for every node i where C contains more than ⊥_i, the frontier of C at i
// lies strictly below the frontier of C' at i. This is the general |P|-
// comparison evaluation; the restricted linear test of Key Idea 2 is
// NotLessOn.
func Less(c, d Cut) bool {
	if d.IsBottom() {
		return false
	}
	for i := range c {
		if c[i] >= 1 && c[i] >= d[i] {
			return false
		}
	}
	return true
}

// NotLess reports ⊀⊀(C,C'), the violation of ≪(C,C').
func NotLess(c, d Cut) bool { return !Less(c, d) }

// LessForm evaluates ≪(C,C') literally by one of the four equivalent forms
// of Definition 7 (form ∈ 1..4), operating on explicit event sets and the
// execution's causality oracle. Forms 2 and 4 define ⊀⊀ and are negated
// here so all four return ≪. This exists to validate Less and the paper's
// claim that the four forms coincide; it is O(|E|) and not meant for use on
// hot paths.
func LessForm(ex *poset.Execution, c, d Cut, form int) bool {
	surfC := c.Surface()
	surfD := d.Surface()
	inD := func(e poset.EventID) bool { return d.Contains(e) }
	inC := func(e poset.EventID) bool { return c.Contains(e) }
	inSurfD := func(e poset.EventID) bool { return d[e.Proc] == e.Pos }
	dIsBottom := d.IsBottom()

	switch form {
	case 1:
		// ∀z ∈ S(C)∖E^⊥: z ∉ S(C') ∧ z ∈ C', and C' ≠ E^⊥.
		if dIsBottom {
			return false
		}
		for _, z := range surfC {
			if ex.IsBottom(z) {
				continue
			}
			if inSurfD(z) || !inD(z) {
				return false
			}
		}
		return true
	case 2:
		// ⊀⊀ iff ∃z ∈ S(C)∖E^⊥: z ∈ S(C') ∨ z ∉ C', or C' = E^⊥; ≪ is the
		// literal negation.
		notLess := dIsBottom
		if !notLess {
			for _, z := range surfC {
				if ex.IsBottom(z) {
					continue
				}
				if inSurfD(z) || !inD(z) {
					notLess = true
					break
				}
			}
		}
		return !notLess
	case 3:
		// ∀z ∈ S(C')∖E^⊥: z ∉ C, and C' ≠ E^⊥ and N_C ⊆ N_C'.
		if dIsBottom {
			return false
		}
		for _, z := range surfD {
			if ex.IsBottom(z) {
				continue
			}
			if inC(z) {
				return false
			}
		}
		return subsetInts(c.NodeSet(ex), d.NodeSet(ex)) && noOrphanSurface(ex, c, d)
	case 4:
		// ⊀⊀ iff ∃z ∈ S(C')∖E^⊥: z ∈ C, or C' = E^⊥, or N_C ⊄ N_C'; ≪ is
		// the literal negation.
		notLess := dIsBottom || !subsetInts(c.NodeSet(ex), d.NodeSet(ex)) || !noOrphanSurface(ex, c, d)
		if !notLess {
			for _, z := range surfD {
				if ex.IsBottom(z) {
					continue
				}
				if inC(z) {
					notLess = true
					break
				}
			}
		}
		return !notLess
	default:
		panic(fmt.Sprintf("cuts: LessForm with form=%d", form))
	}
}

// noOrphanSurface covers the dummy-⊤ corner that the paper's N_C ⊆ N_C'
// side condition covers implicitly under its "events of interest contain no
// dummy events" assumption: a surface event of C that is some ⊤_i (or a real
// surface event on a node where C' has nothing real) can never satisfy
// Definition 7.1's "z ∈ C' ∧ z ∉ S(C')". Forms 3/4 phrased purely over
// S(C') would otherwise miss it when node i has no real events at all, since
// such a node never enters either node set.
func noOrphanSurface(ex *poset.Execution, c, d Cut) bool {
	for i := range c {
		if ex.NumReal(i) == 0 && c[i] >= 1 && c[i] >= d[i] {
			return false
		}
	}
	return true
}

func subsetInts(a, b []int) bool {
	set := make(map[int]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	for _, v := range a {
		if !set[v] {
			return false
		}
	}
	return true
}

// NotLessOn is the restricted violation test of Key Idea 2 / Theorem 19:
// it detects ⊀⊀(C, C') by comparing frontiers only at the given nodes,
// spending exactly one integer comparison per node inspected (early exit on
// the first violation). For the structured cuts of the paper — C = ↓Y
// (one of ∩⇓Y, ∪⇓Y, or ↓y) and C' = X↑ (one of ∩⇑X, ∪⇑X, or x↑) — checking
// nodes = N_X or nodes = N_Y is sound and complete, so the caller passes
// whichever is smaller to achieve min(|N_X|, |N_Y|) comparisons.
//
// Each comparison performed is recorded on ctr (which may be nil).
func NotLessOn(c, d Cut, nodes []int, ctr *Counter) bool {
	for _, i := range nodes {
		ctr.Add(1)
		if d[i] <= c[i] {
			return true
		}
	}
	return false
}
