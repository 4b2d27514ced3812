package core

import (
	"fmt"

	"causet/internal/interval"
	"causet/internal/poset"
)

// ProxyEvaluator is the prior-work baseline (Kshemkalyani JCSS'96 /
// WPDRTS'97, as summarized in the paper's introduction): each relation is
// decided by quantifying over the per-node extremal representatives of X
// and Y, spending up to |N_X|·|N_Y| pairwise causality checks.
//
// The reduction, per relation, replaces each universally quantified operand
// by the representative hardest to satisfy and each existentially
// quantified operand by the easiest:
//
//	R1  ∀∀:  every latest-x-per-node precedes every earliest-y-per-node
//	R2  ∀∃:  every latest-x-per-node precedes some latest-y-per-node
//	R2' ∃∀:  some latest-y-per-node follows every latest-x-per-node
//	R3  ∃∀:  some earliest-x-per-node precedes every earliest-y-per-node
//	R3' ∀∃:  every earliest-y-per-node follows some earliest-x-per-node
//	R4  ∃∃:  some earliest-x-per-node precedes some latest-y-per-node
//
// (Monotonicity along program order makes each replacement exact; the unit
// tests verify equivalence with NaiveEvaluator on random executions.)
type ProxyEvaluator struct {
	a *Analysis
}

// NewProxy returns the |N_X|·|N_Y| baseline evaluator over a's execution.
func NewProxy(a *Analysis) *ProxyEvaluator { return &ProxyEvaluator{a: a} }

// Name implements Evaluator.
func (p *ProxyEvaluator) Name() string { return "proxy" }

// Eval implements Evaluator.
func (p *ProxyEvaluator) Eval(rel Relation, x, y *interval.Interval) bool {
	held, _ := p.EvalCount(rel, x, y)
	return held
}

// repSelector picks one extremal representative of an interval per node.
type repSelector func(iv *interval.Interval, node int) poset.EventID

func firstRep(iv *interval.Interval, node int) poset.EventID {
	e, _ := iv.LeastOn(node)
	return e
}

func lastRep(iv *interval.Interval, node int) poset.EventID {
	e, _ := iv.GreatestOn(node)
	return e
}

// EvalCount implements Evaluator. It iterates node sets directly (no
// per-call allocation) so benchmark timings reflect the comparison counts.
func (p *ProxyEvaluator) EvalCount(rel Relation, x, y *interval.Interval) (bool, int64) {
	var checks int64
	clk := p.a.clk
	nx, ny := x.NodeSet(), y.NodeSet()

	// forallForall: ∀i∈N_X ∀j∈N_Y: fx(x,i) ≺ fy(y,j); the exists variants
	// negate the predicate per De Morgan as needed.
	prec := func(a, b poset.EventID) bool {
		checks++
		return clk.Precedes(a, b)
	}

	var held bool
	switch rel {
	case R1, R1Prime:
		held = true
	outerR1:
		for _, i := range nx {
			for _, j := range ny {
				if !prec(lastRep(x, i), firstRep(y, j)) {
					held = false
					break outerR1
				}
			}
		}
	case R2:
		held = true
	outerR2:
		for _, i := range nx {
			found := false
			for _, j := range ny {
				if prec(lastRep(x, i), lastRep(y, j)) {
					found = true
					break
				}
			}
			if !found {
				held = false
				break outerR2
			}
		}
	case R2Prime:
		held = false
	outerR2p:
		for _, j := range ny {
			all := true
			for _, i := range nx {
				if !prec(lastRep(x, i), lastRep(y, j)) {
					all = false
					break
				}
			}
			if all {
				held = true
				break outerR2p
			}
		}
	case R3:
		held = false
	outerR3:
		for _, i := range nx {
			all := true
			for _, j := range ny {
				if !prec(firstRep(x, i), firstRep(y, j)) {
					all = false
					break
				}
			}
			if all {
				held = true
				break outerR3
			}
		}
	case R3Prime:
		held = true
	outerR3p:
		for _, j := range ny {
			found := false
			for _, i := range nx {
				if prec(firstRep(x, i), firstRep(y, j)) {
					found = true
					break
				}
			}
			if !found {
				held = false
				break outerR3p
			}
		}
	case R4, R4Prime:
		held = false
	outerR4:
		for _, i := range nx {
			for _, j := range ny {
				if prec(firstRep(x, i), lastRep(y, j)) {
					held = true
					break outerR4
				}
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown relation %d", int(rel)))
	}
	p.a.met.evals[evalProxy].Record(rel, checks)
	return held, checks
}
