// Package hierarchy implements the algebra of the causality relations: the
// implication lattice the paper describes ("the relations ... fill in the
// partial hierarchy of causality relations between nonatomic poset events")
// and the composition (relative-transitivity) table in the direction of the
// paper's reference [13] (Kshemkalyani, "Causality between nonatomic poset
// events in distributed computations", FTDCS 1997) — given r(X, Y) and
// s(Y, Z), the strongest relation guaranteed between X and Z.
//
// All entries are derived from the quantifier definitions and are verified
// two independent ways by the package tests: randomized soundness checks
// against the evaluators, and the time-reversal duality
// Compose(r, s) = Converse(Compose(Converse(s), Converse(r))).
package hierarchy

import "causet/internal/core"

// canon collapses the logically equivalent pairs R1'≡R1 and R4'≡R4 so the
// tables need only six distinct predicates.
func canon(r core.Relation) core.Relation {
	switch r {
	case core.R1Prime:
		return core.R1
	case core.R4Prime:
		return core.R4
	default:
		return r
	}
}

// directImplications are the covering edges of the hierarchy (on canonical
// relations): R1 ⇒ {R2', R3}; R2' ⇒ R2; R3 ⇒ R3'; {R2, R3'} ⇒ R4. All hold
// because intervals are non-empty.
var directImplications = map[core.Relation][]core.Relation{
	core.R1:      {core.R2Prime, core.R3},
	core.R2Prime: {core.R2},
	core.R3:      {core.R3Prime},
	core.R2:      {core.R4},
	core.R3Prime: {core.R4},
}

// Implies reports whether r(X, Y) ⇒ s(X, Y) for all executions and all
// non-empty X, Y (the hierarchy's partial order, reflexively closed).
func Implies(r, s core.Relation) bool {
	r, s = canon(r), canon(s)
	if r == s {
		return true
	}
	// The lattice is tiny; a DFS over the covering edges suffices.
	for _, next := range directImplications[r] {
		if Implies(next, s) {
			return true
		}
	}
	return false
}

// HasseEdges returns the covering edges of the implication lattice over the
// six canonical relations, strongest first.
func HasseEdges() [][2]core.Relation {
	return [][2]core.Relation{
		{core.R1, core.R2Prime},
		{core.R1, core.R3},
		{core.R2Prime, core.R2},
		{core.R3, core.R3Prime},
		{core.R2, core.R4},
		{core.R3Prime, core.R4},
	}
}

// Converse returns the relation s with r(X, Y) ⟺ s(Y, X) under time
// reversal of the execution: R1 and R4 are self-converse, while R2 ↔ R3'
// and R2' ↔ R3 swap (reversing ≺ swaps "precedes some/every" with
// "follows some/every").
func Converse(r core.Relation) core.Relation {
	switch canon(r) {
	case core.R1:
		return core.R1
	case core.R2:
		return core.R3Prime
	case core.R2Prime:
		return core.R3
	case core.R3:
		return core.R2Prime
	case core.R3Prime:
		return core.R2
	default:
		return core.R4
	}
}

// composeTable[r][s] is the strongest t with r(X,Y) ∧ s(Y,Z) ⇒ t(X,Z); the
// zero entry (absent) means nothing is guaranteed, not even R4. Derivations
// (chains through a shared middle event) are spelled out in the tests.
var composeTable = map[core.Relation]map[core.Relation]core.Relation{
	core.R1: {
		core.R1:      core.R1,
		core.R2:      core.R2Prime,
		core.R2Prime: core.R2Prime,
		core.R3:      core.R1,
		core.R3Prime: core.R1,
		core.R4:      core.R2Prime,
	},
	core.R2: {
		core.R1:      core.R1,
		core.R2:      core.R2,
		core.R2Prime: core.R2Prime,
	},
	core.R2Prime: {
		core.R1:      core.R1,
		core.R2:      core.R2Prime,
		core.R2Prime: core.R2Prime,
	},
	core.R3: {
		core.R1:      core.R3,
		core.R2:      core.R4,
		core.R2Prime: core.R4,
		core.R3:      core.R3,
		core.R3Prime: core.R3,
		core.R4:      core.R4,
	},
	core.R3Prime: {
		core.R1:      core.R3,
		core.R2:      core.R4,
		core.R2Prime: core.R4,
		core.R3:      core.R3,
		core.R3Prime: core.R3Prime,
		core.R4:      core.R4,
	},
	core.R4: {
		core.R1:      core.R3,
		core.R2:      core.R4,
		core.R2Prime: core.R4,
	},
}

// Compose returns the strongest relation guaranteed between X and Z given
// r(X, Y) and s(Y, Z), with ok=false when nothing at all is guaranteed
// (e.g. R2 ∘ R3: each x precedes *some* y, and *some* y precedes all z, but
// the two ys need not be related).
func Compose(r, s core.Relation) (core.Relation, bool) {
	t, ok := composeTable[canon(r)][canon(s)]
	return t, ok
}

// Strongest filters held down to its maximal elements under Implies: the
// most informative summary of which relations hold between a pair (answering
// the paper's Problem 4(ii) compactly).
func Strongest(held []core.Relation) []core.Relation {
	var out []core.Relation
	for _, r := range held {
		r = canon(r)
		dominated := false
		for _, s := range held {
			s = canon(s)
			if s != r && Implies(s, r) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		dup := false
		for _, o := range out {
			if o == r {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

// Canonical returns the six canonical relations in hierarchy order
// (strongest first).
func Canonical() []core.Relation {
	return []core.Relation{core.R1, core.R2Prime, core.R3, core.R2, core.R3Prime, core.R4}
}

// strongestOf[m] is Strongest of the canonical relations whose bits are set
// in m, taken in Canonical() order, with capacity capped at length.
var strongestOf = func() (t [256][]core.Relation) {
	for m := range t {
		var held []core.Relation
		for _, r := range Canonical() {
			if m&(1<<uint(r)) != 0 {
				held = append(held, r)
			}
		}
		if s := Strongest(held); s != nil {
			t[m] = s[:len(s):len(s)]
		}
	}
	return t
}()

// StrongestOf is Strongest for a verdict mask in the layout of
// core.Analysis.EvalTable1 (bit int(r) set iff relation r holds). Only the
// canonical relations' bits are read, and the result equals Strongest of
// those relations listed in Canonical() order, the order Summarize
// evaluates them in. It is a table lookup and allocates nothing: the
// returned slice is shared by every caller, so callers must not modify its
// elements. Its capacity equals its length, so appending to it copies.
func StrongestOf(verdicts uint8) []core.Relation { return strongestOf[verdicts] }
