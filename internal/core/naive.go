package core

import (
	"fmt"

	"causet/internal/interval"
	"causet/internal/poset"
)

// Evaluator evaluates a Table 1 relation between two nonatomic events of one
// execution. EvalCount additionally reports the number of integer
// comparisons (pairwise causality checks count as one comparison each, per
// the paper's cost model: e_j ≺ e'_k iff T(e_j)[j] < T(e'_k)[j]).
type Evaluator interface {
	// Name identifies the evaluator ("naive", "proxy", "fast").
	Name() string
	// Eval reports whether rel(x, y) holds. x and y must be disjoint
	// intervals of the evaluator's execution (see Analysis.EvalChecked).
	Eval(rel Relation, x, y *interval.Interval) bool
	// EvalCount is Eval plus the number of integer comparisons spent.
	EvalCount(rel Relation, x, y *interval.Interval) (bool, int64)
}

// NaiveEvaluator evaluates the quantifier definitions of Table 1 directly
// over every pair of atomic events, spending up to |X|·|Y| causality checks.
// It is the ground truth the other evaluators are validated against.
type NaiveEvaluator struct {
	a *Analysis
}

// NewNaive returns the definition-based evaluator over a's execution.
func NewNaive(a *Analysis) *NaiveEvaluator { return &NaiveEvaluator{a: a} }

// Name implements Evaluator.
func (n *NaiveEvaluator) Name() string { return "naive" }

// Eval implements Evaluator.
func (n *NaiveEvaluator) Eval(rel Relation, x, y *interval.Interval) bool {
	held, _ := n.EvalCount(rel, x, y)
	return held
}

// EvalCount implements Evaluator.
func (n *NaiveEvaluator) EvalCount(rel Relation, x, y *interval.Interval) (bool, int64) {
	var checks int64
	prec := func(a, b poset.EventID) bool {
		checks++
		return n.a.clk.Precedes(a, b)
	}
	xe, ye := x.Events(), y.Events()

	forallX := func(p func(poset.EventID) bool) bool {
		for _, e := range xe {
			if !p(e) {
				return false
			}
		}
		return true
	}
	existsX := func(p func(poset.EventID) bool) bool {
		for _, e := range xe {
			if p(e) {
				return true
			}
		}
		return false
	}
	forallY := func(p func(poset.EventID) bool) bool {
		for _, e := range ye {
			if !p(e) {
				return false
			}
		}
		return true
	}
	existsY := func(p func(poset.EventID) bool) bool {
		for _, e := range ye {
			if p(e) {
				return true
			}
		}
		return false
	}

	var held bool
	switch rel {
	case R1:
		held = forallX(func(xv poset.EventID) bool {
			return forallY(func(yv poset.EventID) bool { return prec(xv, yv) })
		})
	case R1Prime:
		held = forallY(func(yv poset.EventID) bool {
			return forallX(func(xv poset.EventID) bool { return prec(xv, yv) })
		})
	case R2:
		held = forallX(func(xv poset.EventID) bool {
			return existsY(func(yv poset.EventID) bool { return prec(xv, yv) })
		})
	case R2Prime:
		held = existsY(func(yv poset.EventID) bool {
			return forallX(func(xv poset.EventID) bool { return prec(xv, yv) })
		})
	case R3:
		held = existsX(func(xv poset.EventID) bool {
			return forallY(func(yv poset.EventID) bool { return prec(xv, yv) })
		})
	case R3Prime:
		held = forallY(func(yv poset.EventID) bool {
			return existsX(func(xv poset.EventID) bool { return prec(xv, yv) })
		})
	case R4:
		held = existsX(func(xv poset.EventID) bool {
			return existsY(func(yv poset.EventID) bool { return prec(xv, yv) })
		})
	case R4Prime:
		held = existsY(func(yv poset.EventID) bool {
			return existsX(func(xv poset.EventID) bool { return prec(xv, yv) })
		})
	default:
		panic(fmt.Sprintf("core: unknown relation %d", int(rel)))
	}
	n.a.met.evals[evalNaive].Record(rel, checks)
	return held, checks
}
