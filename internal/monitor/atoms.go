package monitor

import (
	"fmt"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/poset"
)

// Atom is one relation application r(x, y) of a parsed condition, exposed
// for the explanation engine (internal/explain): walking a condition's
// atoms lets a caller re-derive each leaf verdict with witness capture and
// attribute the condition's outcome to specific causal evidence.
type Atom struct {
	Rel  core.Relation
	X, Y AtomOperand
}

// String renders the atom in condition syntax, e.g. "R2'(L(track), launch)".
func (a Atom) String() string {
	return fmt.Sprintf("%v(%v, %v)", a.Rel, a.X, a.Y)
}

// AtomOperand is an interval reference, optionally behind a proxy
// application (L/U under the per-node definition, matching evaluation).
type AtomOperand struct {
	Name     string
	UseProxy bool
	Proxy    interval.ProxyKind
}

// String renders the operand in condition syntax.
func (o AtomOperand) String() string {
	if o.UseProxy {
		return fmt.Sprintf("%v(%s)", o.Proxy, o.Name)
	}
	return o.Name
}

// Resolve looks the operand's interval up through lookup. A proxy operand
// resolves to the analysis's cached per-node proxy (core.Analysis.ProxyCuts),
// so every evaluation of the atom against a shares one proxy interval and
// its cuts. It returns an *UndefinedError when lookup misses the name, and
// core.ErrForeignInterval for a proxied interval outside a's execution.
func (o AtomOperand) Resolve(a *core.Analysis, lookup func(name string) (*interval.Interval, bool)) (*interval.Interval, error) {
	iv, ok := lookup(o.Name)
	if !ok {
		return nil, &UndefinedError{Name: o.Name}
	}
	if !o.UseProxy {
		return iv, nil
	}
	if !poset.Prefix(iv.Execution(), a.Execution()) {
		return nil, core.ErrForeignInterval
	}
	return a.ProxyCuts(iv, o.Proxy).IV, nil
}

// operandsOverlap reports whether two resolved operands share an event, the
// disjointness every relation condition assumes. A plain operand's members
// are its interval's; a proxy L(X) or U(X) (Definition 2) has one member per
// node of N_X, at the position its cuts record as FirstPos.
func operandsOverlap(ox AtomOperand, x *interval.Interval, cx *core.IntervalCuts, oy AtomOperand, y *interval.Interval, cy *core.IntervalCuts) bool {
	yProxy := oy.UseProxy
	if !ox.UseProxy {
		if !yProxy {
			return x.Overlaps(y)
		}
		x, cx, y, cy, yProxy = y, cy, x, cx, false
	}
	for _, i := range x.NodeSet() {
		pos := cx.FirstPos[i]
		if yProxy {
			if cy.FirstPos[i] == pos {
				return true
			}
		} else if y.Contains(poset.EventID{Proc: i, Pos: pos}) {
			return true
		}
	}
	return false
}

// members returns the members of a resolved operand as an interval: iv
// itself, or the per-node proxy of iv that o names. Only the overlap error
// report needs a proxy as an interval.
func members(o AtomOperand, iv *interval.Interval) *interval.Interval {
	if !o.UseProxy {
		return iv
	}
	p, err := iv.ProxyInterval(o.Proxy, interval.DefPerNode, nil)
	if err != nil {
		// Per-node proxies of valid intervals are never empty.
		panic(err)
	}
	return p
}

// Atoms returns the relation atoms of e in left-to-right syntactic order.
func Atoms(e Expr) []Atom {
	var out []Atom
	collectAtoms(e, &out)
	return out
}

func collectAtoms(e Expr, out *[]Atom) {
	switch v := e.(type) {
	case *atomExpr:
		*out = append(*out, v.Atom)
	case *notExpr:
		collectAtoms(v.e, out)
	case *binExpr:
		collectAtoms(v.l, out)
		collectAtoms(v.r, out)
	default:
		panic(fmt.Sprintf("monitor: unknown expression node %T", e))
	}
}
