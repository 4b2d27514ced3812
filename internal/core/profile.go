package core

import (
	"math/bits"

	"causet/internal/interval"
)

// This file implements the fused profile kernel: all 32 relations of ℛ
// (AllRel32) decided in four passes — one per proxy pairing — instead of 32
// independent scans. The fusion rests on three observations:
//
//  1. Every r ∈ ℛ is R(X̂, Ŷ) for proxies X̂ ∈ {L_X, U_X}, Ŷ ∈ {L_Y, U_Y},
//     so the 32 relations group into 4 pairings of 8 Table 1 relations each,
//     and all 8 of a pairing read the SAME four condensed cuts of X̂ and Ŷ.
//  2. Within one pairing the eight Theorem 20 conditions quantify over only
//     two index sets (N_X̂ on one side, N_Ŷ on the other), so a single loop
//     over each node set can advance every still-undecided relation at once,
//     with per-relation early-exit masking: a decided relation stops paying
//     comparisons, and the loop exits when nothing is pending.
//  3. The cuts are componentwise ordered — ∩⇓Ŷ ⊆ ∪⇓Ŷ and ∩⇑X̂ ⊆ ∪⇑X̂ — so
//     several verdicts are free: an R1 node-check passing implies R2's, an
//     R3 witness is an R4 witness, an R1' node-check passing witnesses R2'
//     and passes R3', and an R2' witness is an R4 witness. R1 ≡ R1' and
//     R4 ≡ R4' as predicates, so each is computed once and reported twice.
//
// Together the kernel spends at most 2·|N_X| + 2·|N_Y| + 2·min comparisons
// per pairing, strictly below the 4·min + 2·|N_X| + 2·|N_Y| sum of the
// per-relation Theorem 19/20 bounds (TestProfileKernelWithinBoundSum), and
// allocates nothing once the proxy cuts are cached (Analysis.ProxyCuts).

// Rel32Bit returns the bit position of r in the profile masks returned by
// EvalProfile and stored in batch.Profile.Bits: bit i corresponds to
// AllRel32()[i], i.e. Table 1 order, then proxy of X (L before U), then
// proxy of Y.
func Rel32Bit(r Rel32) int {
	return int(r.R)*4 + int(r.PX)*2 + int(r.PY)
}

// MaskHolding expands a 32-relation profile mask into the holding relations
// in AllRel32 order. It returns nil for an empty mask.
func MaskHolding(mask uint32) []Rel32 {
	if mask == 0 {
		return nil
	}
	out := make([]Rel32, 0, bits.OnesCount32(mask))
	for _, r := range AllRel32() {
		if mask&(1<<uint(Rel32Bit(r))) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// table1Bits is the verdict set of one fused 8-relation evaluation: bit
// int(rel) is set iff rel holds, for rel in Relations() order.
type table1Bits uint8

// fuseTable1 decides all eight Table 1 relations between the nonatomic
// events condensed as cx and cy, whose node sets are nx and ny, in a single
// pass over each node set. It is the shared kernel of EvalProfile (where
// cx/cy are proxy cuts) and Table1Cuts (where they are the intervals' own
// cuts). The conditions per relation are exactly those of
// FastEvaluator.EvalCount; see that method's comment for the cut pairings.
func fuseTable1(cx, cy *IntervalCuts, nx, ny []int) (table1Bits, int64) {
	var checks int64
	nxSide := len(nx) <= len(ny) // R1 and R4 run on the smaller node set

	// Pass 1 over N_X: R1 (smaller side), R2, R3, R4 (smaller side).
	// ∀-relations (r1, r2) start true and are decided false on the first
	// violating node; ∃-relations (r3, r4) start false and are decided true
	// on the first witness. "Active" means still paying comparisons.
	r1, r2, r3, r4 := true, true, false, false
	r1Act, r2Act, r3Act, r4Act := nxSide, true, true, nxSide
	for _, i := range nx {
		if !(r1Act || r2Act || r3Act || r4Act) {
			break
		}
		last := cx.LastPos[i]
		if r1Act {
			checks++
			if cy.InterDown[i] >= last {
				// R2's node-check passes free: ∪⇓Y ⊇ ∩⇓Y componentwise.
			} else {
				r1, r1Act = false, false
				if r2Act {
					checks++
					if cy.UnionDown[i] < last {
						r2, r2Act = false, false
					}
				}
			}
		} else if r2Act {
			checks++
			if cy.UnionDown[i] < last {
				r2, r2Act = false, false
			}
		}
		if r3Act {
			checks++
			if cx.InterUp[i] <= cy.InterDown[i] {
				r3, r3Act = true, false
				if r4Act {
					r4, r4Act = true, false // free witness: ∪⇓Y ⊇ ∩⇓Y
				}
			} else if r4Act {
				checks++
				if cx.InterUp[i] <= cy.UnionDown[i] {
					r4, r4Act = true, false
				}
			}
		} else if r4Act {
			checks++
			if cx.InterUp[i] <= cy.UnionDown[i] {
				r4, r4Act = true, false
			}
		}
	}

	// Pass 2 over N_Y: R1 via N_Y (when it is the smaller side), R2', R3',
	// R4 via N_Y (same side rule).
	r1b, r2p, r3p, r4b := true, false, true, false
	r1bAct, r2pAct, r3pAct, r4bAct := !nxSide, true, true, !nxSide
	for _, j := range ny {
		if !(r1bAct || r2pAct || r3pAct || r4bAct) {
			break
		}
		first := cy.FirstPos[j]
		unionUp := cx.UnionUp[j]
		r1Pass := false
		if r1bAct {
			checks++
			if unionUp <= first {
				// ∪⇑X ≤ ↓first ≤ ∪⇓Y at j, and ∩⇑X ⊆ ∪⇑X, so this node
				// also witnesses R2' and R4 and passes R3' — all free.
				r1Pass = true
				if r2pAct {
					r2p, r2pAct = true, false
				}
				if r4bAct {
					r4b, r4bAct = true, false
				}
			} else {
				r1b, r1bAct = false, false
			}
		}
		if !r1Pass {
			if r2pAct {
				checks++
				if unionUp <= cy.UnionDown[j] {
					r2p, r2pAct = true, false
					if r4bAct {
						r4b, r4bAct = true, false // free witness: ∩⇑X ⊆ ∪⇑X
					}
				}
			}
			if r3pAct {
				checks++
				if cx.InterUp[j] > first {
					r3p, r3pAct = false, false
				}
			}
			if r4bAct {
				checks++
				if cx.InterUp[j] <= cy.UnionDown[j] {
					r4b, r4bAct = true, false
				}
			}
		}
	}

	heldR1 := r1
	heldR4 := r4
	if !nxSide {
		heldR1 = r1b
		heldR4 = r4b
	}
	var bits table1Bits
	if heldR1 {
		bits |= 1<<R1 | 1<<R1Prime
	}
	if r2 {
		bits |= 1 << R2
	}
	if r2p {
		bits |= 1 << R2Prime
	}
	if r3 {
		bits |= 1 << R3
	}
	if r3p {
		bits |= 1 << R3Prime
	}
	if heldR4 {
		bits |= 1<<R4 | 1<<R4Prime
	}
	return bits, checks
}

// EvalProfile evaluates the full 32-relation set ℛ between x and y (per-node
// proxies, Definition 2) with the fused kernel: one fuseTable1 pass per
// proxy pairing over cuts cached by ProxyCuts. Bit Rel32Bit(r) of the
// returned mask is set iff r(X, Y) holds; checks is the total number of
// integer comparisons spent. The verdicts are identical to 32 independent
// EvalCount calls (TestProfileKernelMatchesLegacy,
// FuzzProfileKernelAgreement) at a fraction of the comparisons and with
// zero allocations on a warm cache.
//
// The caller is responsible for the standing disjointness assumption, as
// with Evaluator.Eval; batch.Engine.Profiles rejects overlapping pairs
// before calling this.
func (a *Analysis) EvalProfile(x, y *interval.Interval) (mask uint32, checks int64) {
	px := [2]*ProxyCuts{a.ProxyCuts(x, interval.ProxyL), a.ProxyCuts(x, interval.ProxyU)}
	py := [2]*ProxyCuts{a.ProxyCuts(y, interval.ProxyL), a.ProxyCuts(y, interval.ProxyU)}
	for xi := 0; xi < 2; xi++ {
		cx := px[xi].Cuts
		nx := px[xi].IV.NodeSet()
		for yi := 0; yi < 2; yi++ {
			verdicts, c := fuseTable1(cx, py[yi].Cuts, nx, py[yi].IV.NodeSet())
			checks += c
			// Scatter the pairing's 8 verdict bits into AllRel32 positions.
			for r := 0; r < int(numRelations); r++ {
				if verdicts&(1<<uint(r)) != 0 {
					mask |= 1 << uint(r*4+xi*2+yi)
				}
			}
		}
	}
	a.met.fusedProfiles.Add(1)
	a.met.fusedComparisons.Add(checks)
	return mask, checks
}

// EvalTable1 evaluates the eight Table 1 relations between x and y directly
// (no proxies) in one fused pass per node set, over the cached cuts of x
// and y. Bit int(rel) of the returned verdicts is set iff rel(X, Y) holds.
// It decides the same verdicts as eight FastEvaluator.EvalCount calls while
// sharing comparisons and the early-exit mask across relations.
// batch.Engine.Matrix decides whole families by its per-node sweep instead
// and is tested against it.
func (a *Analysis) EvalTable1(x, y *interval.Interval) (verdicts uint8, checks int64) {
	verdicts, checks = Table1Cuts(a.Cuts(x), a.Cuts(y), x.NodeSet(), y.NodeSet())
	a.met.fusedTable1.Add(1)
	a.met.fusedComparisons.Add(checks)
	return verdicts, checks
}

// Table1Cuts is the fused Table 1 kernel on caller-supplied cuts: it decides
// the eight relations between the nonatomic events condensed as cx and cy,
// whose node sets are nx and ny, and records nothing. EvalTable1 runs it on
// the Analysis cache; the online monitor's StrongestBetween runs it on
// cuts assembled from per-interval summaries.
func Table1Cuts(cx, cy *IntervalCuts, nx, ny []int) (verdicts uint8, checks int64) {
	bits, checks := fuseTable1(cx, cy, nx, ny)
	return uint8(bits), checks
}
