package core

import (
	"fmt"

	"causet/internal/interval"
)

// FastEvaluator implements the paper's linear-time evaluation conditions
// (Table 1, third column; Theorems 19 and 20). Each relation is decided by
// comparing components of the condensed cut timestamps of X and Y, spending
//
//	R1, R1', R4, R4':  min(|N_X|, |N_Y|)  integer comparisons
//	R2,  R3:           |N_X|              integer comparisons
//	R2', R3':          |N_Y|              integer comparisons
//
// in the worst case (early exit may use fewer). For R3 and R2' the paper's
// Theorem 20 states min(|N_X|,|N_Y|); this reproduction found the other side
// of the restricted ≪ test to be incomplete for their cut pairings (see
// cuts.TestTheorem19NYSideCounterexample and EXPERIMENTS.md), so the sound
// one-sided bound is used.
//
// The per-interval cuts are obtained from the Analysis cache, so after the
// first query involving an interval its cuts are reused for free against
// any number of other intervals (Key Idea 1).
type FastEvaluator struct {
	a *Analysis
}

// NewFast returns the linear-time evaluator over a's execution.
func NewFast(a *Analysis) *FastEvaluator { return &FastEvaluator{a: a} }

// Name implements Evaluator.
func (f *FastEvaluator) Name() string { return "fast" }

// Eval implements Evaluator.
func (f *FastEvaluator) Eval(rel Relation, x, y *interval.Interval) bool {
	held, _ := f.EvalCount(rel, x, y)
	return held
}

// EvalCount implements Evaluator: it runs EvalCuts on the cached cuts of x
// and y and records the outcome on the analysis's core.fast.* counters.
func (f *FastEvaluator) EvalCount(rel Relation, x, y *interval.Interval) (bool, int64) {
	held, checks := EvalCuts(rel, f.a.Cuts(x), f.a.Cuts(y), x.NodeSet(), y.NodeSet())
	f.a.met.evals[evalFast].Record(rel, checks)
	return held, checks
}

// EvalCuts decides rel(X, Y) by Theorem 20 from the condensed cuts cx and cy
// of X and Y and their node sets nx and ny, returning the verdict and the
// integer comparisons spent. It is the kernel of EvalCount, which reads the
// cuts from the Analysis cache, and of the online monitor, which assembles
// them from per-interval summaries; it records nothing.
//
// The per-relation conditions, in frontier (position) convention, with
// cx = Cuts(X), cy = Cuts(Y):
//
//	R1  via N_X: ∀i∈N_X:  cy.InterDown[i] ≥ cx.LastPos[i]
//	R1  via N_Y: ∀j∈N_Y:  cx.UnionUp[j]   ≤ cy.FirstPos[j]
//	R2:          ∀i∈N_X:  cy.UnionDown[i] ≥ cx.LastPos[i]
//	R2':         ∃j∈N_Y:  cx.UnionUp[j]   ≤ cy.UnionDown[j]
//	R3:          ∃i∈N_X:  cx.InterUp[i]   ≤ cy.InterDown[i]
//	R3':         ∀j∈N_Y:  cx.InterUp[j]   ≤ cy.FirstPos[j]
//	R4:          ∃i∈N_X:  cx.InterUp[i]   ≤ cy.UnionDown[i]   (or the
//	             symmetric ∃j∈N_Y test — whichever node set is smaller)
//
// Each line is the restricted ⊀⊀(↓Y, X↑) violation test of Key Idea 2
// instantiated for the cut pair in Table 1's third column; the per-event
// products ∏_x / ∏_y collapse to one comparison per node using only the
// latest X event (earliest Y event) on each node, as in the proof of
// Theorem 20.
//
// The body is deliberately straight-line — one counted loop per relation,
// no closures or indirect calls — so an evaluation performs zero heap
// allocations (asserted by TestFastEvalCountZeroAllocs) and the comparison
// loop is eligible for inlining and bounds-check elimination.
func EvalCuts(rel Relation, cx, cy *IntervalCuts, nx, ny []int) (bool, int64) {
	var checks int64

	var held bool
	switch rel {
	case R1, R1Prime:
		held = true
		if len(nx) <= len(ny) {
			for _, i := range nx {
				checks++
				if cy.InterDown[i] < cx.LastPos[i] {
					held = false
					break
				}
			}
		} else {
			for _, j := range ny {
				checks++
				if cx.UnionUp[j] > cy.FirstPos[j] {
					held = false
					break
				}
			}
		}
	case R2:
		held = true
		for _, i := range nx {
			checks++
			if cy.UnionDown[i] < cx.LastPos[i] {
				held = false
				break
			}
		}
	case R2Prime:
		for _, j := range ny {
			checks++
			if cx.UnionUp[j] <= cy.UnionDown[j] {
				held = true
				break
			}
		}
	case R3:
		for _, i := range nx {
			checks++
			if cx.InterUp[i] <= cy.InterDown[i] {
				held = true
				break
			}
		}
	case R3Prime:
		held = true
		for _, j := range ny {
			checks++
			if cx.InterUp[j] > cy.FirstPos[j] {
				held = false
				break
			}
		}
	case R4, R4Prime:
		nodes := nx
		if len(ny) < len(nx) {
			nodes = ny
		}
		for _, i := range nodes {
			checks++
			if cx.InterUp[i] <= cy.UnionDown[i] {
				held = true
				break
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown relation %d", int(rel)))
	}
	return held, checks
}
