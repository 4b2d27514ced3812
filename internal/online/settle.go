package online

import (
	"fmt"
	"math"

	"causet/internal/core"
	"causet/internal/cuts"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/poset"
)

// This file is settlement from per-interval summaries (DESIGN.md S25).
// Theorem 20 reads only the per-node extremes of each operand and its four
// Table 2 cuts, and by Lemma 16 every cut is a componentwise fold over the
// extremes: the down cuts over their forward rows, final once the interval
// completes, and the up cuts over their first-follower cells, read at
// settlement. An atom reads the up cuts of its left operand only
// (core.EvalCuts), so a settling Poll fills them only for the intervals that
// are a left operand in the pass. A completed interval keeps 6·|P| integers,
// and a settling Poll fills 4·|P| more per left operand into scratch the
// monitor reuses.

// The four folds of a summary's down rows and of a settleCuts' up rows: the
// componentwise min and max of the extremes' rows, over the least extremes
// and over the greatest (Lemma 16). The Table 2 cuts of X and of its
// per-node proxies read them as
//
//	        ∩⇓, ∩⇑         ∪⇓, ∪⇑
//	X       min least      max greatest
//	L(X)    min least      max least
//	U(X)    min greatest   max greatest
const (
	foldMinLeast = iota
	foldMaxLeast
	foldMinGreatest
	foldMaxGreatest
	numFolds
)

// summary is what settlement keeps of a completed interval, built at its
// first evaluation.
type summary struct {
	// members is the validated member list, built over a stream view: the
	// overlap check and its error report read it.
	members *interval.Interval
	// rows is six |P| rows: FirstPos and LastPos (the per-node extremes, -1
	// off N_X), then the numFolds folds of the extremes' forward rows.
	rows []int
}

// settleCuts is one interval's entry in the settlement scratch: the up rows
// of its extremes at the current prefix and the cuts of X, L(X) and U(X)
// assembled over them and over its summary. An interval that is no left
// operand in the pass gets no up rows, and its cuts' up fields are nil.
type settleCuts struct {
	rec  *ivState
	up   []int                // numFolds |P| rows of first-follower folds
	cuts [3]core.IntervalCuts // X, L(X), U(X), indexed by cutsIndex
}

// cutsIndex is the settleCuts.cuts index of an operand.
func cutsIndex(o monitor.AtomOperand) int {
	if !o.UseProxy {
		return 0
	}
	return 1 + int(o.Proxy)
}

// fold merges the rows of one node's least and greatest extremes into the
// numFolds rows of acc; the first node copies them instead.
func fold(acc []int, n int, first bool, least, greatest []int) {
	minL, maxL := acc[foldMinLeast*n:][:n], acc[foldMaxLeast*n:][:n]
	minG, maxG := acc[foldMinGreatest*n:][:n], acc[foldMaxGreatest*n:][:n]
	if first {
		copy(minL, least)
		copy(maxL, least)
		copy(minG, greatest)
		copy(maxG, greatest)
		return
	}
	for j := range minL {
		minL[j] = min(minL[j], least[j])
		maxL[j] = max(maxL[j], least[j])
		minG[j] = min(minG[j], greatest[j])
		maxG[j] = max(maxG[j], greatest[j])
	}
}

// summarizeLocked validates an interval's events against the view ex and
// builds its summary. Caller holds s.mu.
func (s *Stream) summarizeLocked(ex *poset.Execution, events []poset.EventID) (summary, error) {
	members, err := interval.New(ex, events)
	if err != nil {
		return summary{}, err
	}
	n := s.procs
	rows := make([]int, (2+numFolds)*n)
	first, last := rows[:n], rows[n:2*n]
	for i := range first {
		first[i], last[i] = -1, -1
	}
	for k, i := range members.NodeSet() {
		l, _ := members.LeastOn(i)
		g, _ := members.GreatestOn(i)
		if l.Pos <= s.base[i] {
			return summary{}, fmt.Errorf("%w: %v", ErrCompacted, l)
		}
		first[i], last[i] = l.Pos, g.Pos
		fold(rows[2*n:], n, k == 0, s.row(s.fwd, l), s.row(s.fwd, g))
	}
	return summary{members: members, rows: rows}, nil
}

// fillUpLocked folds the first-follower cells of the summary's extremes
// into up, numFolds |P| rows, reading each cell once. A cell no follower
// has set yet reads as ⊤ on its node, NumReal(j)+1, exactly as a snapshot
// taken now reads it; by verdict stability a verdict decided on it is
// final. Caller holds s.mu.
func (s *Stream) fillUpLocked(sum *summary, up []int) error {
	n := s.procs
	first, last := sum.rows[:n], sum.rows[n:2*n]
	minL, maxL := up[foldMinLeast*n:][:n], up[foldMaxLeast*n:][:n]
	minG, maxG := up[foldMinGreatest*n:][:n], up[foldMaxGreatest*n:][:n]
	for j := range minL {
		minL[j], maxL[j], minG[j], maxG[j] = math.MaxInt, 0, math.MaxInt, 0
	}
	counts := s.counts[:n]
	for _, i := range sum.members.NodeSet() {
		l := poset.EventID{Proc: i, Pos: first[i]}
		if l.Pos <= s.base[i] {
			return fmt.Errorf("%w: %v", ErrCompacted, l)
		}
		least := s.row(s.ff, l)[:n]
		greatest := s.row(s.ff, poset.EventID{Proc: i, Pos: last[i]})[:n]
		for j, c := range counts {
			// Both values computed, then selected: set and unset cells mix
			// unpredictably, and a branch on each would mispredict.
			lv, gv := least[j], greatest[j]
			if lv == 0 {
				lv = c + 1
			}
			if gv == 0 {
				gv = c + 1
			}
			minL[j], maxL[j] = min(minL[j], lv), max(maxL[j], lv)
			minG[j], maxG[j] = min(minG[j], gv), max(maxG[j], gv)
		}
	}
	return nil
}

// assemble points the entry's cuts at the up rows up, nil when none were
// filled, and the summary's rows.
func (sc *settleCuts) assemble(sum *summary, up []int, n int) {
	row := func(rows []int, k int) cuts.Cut {
		if rows == nil {
			return nil
		}
		return rows[k*n:][:n]
	}
	first, last := sum.rows[:n], sum.rows[n:2*n]
	down := sum.rows[2*n:]
	sc.cuts[0] = core.IntervalCuts{
		InterDown: row(down, foldMinLeast), UnionDown: row(down, foldMaxGreatest),
		InterUp: row(up, foldMinLeast), UnionUp: row(up, foldMaxGreatest),
		FirstPos: first, LastPos: last,
	}
	sc.cuts[1] = core.IntervalCuts{ // L(X): the least extremes alone
		InterDown: row(down, foldMinLeast), UnionDown: row(down, foldMaxLeast),
		InterUp: row(up, foldMinLeast), UnionUp: row(up, foldMaxLeast),
		FirstPos: first, LastPos: first,
	}
	sc.cuts[2] = core.IntervalCuts{ // U(X): the greatest extremes alone
		InterDown: row(down, foldMinGreatest), UnionDown: row(down, foldMaxGreatest),
		InterUp: row(up, foldMinGreatest), UnionUp: row(up, foldMaxGreatest),
		FirstPos: last, LastPos: last,
	}
}

// prepareLocked makes the named completed interval evaluable at the current
// prefix. Its summary is built on first use, over the view *ex (taken on
// demand); a failure poisons the name, so every condition touching it
// settles Failed with the same error. Its cuts are assembled into the
// scratch once per settling pass, with up rows filled when up is set: a
// pass prepares every left operand, with up, before any other operand.
// Caller holds m.mu and stream.mu.
func (m *Monitor) prepareLocked(ex **poset.Execution, name string, up bool) error {
	iv := m.ivs[name]
	if iv.defErr != nil || iv.slot > 0 {
		return iv.defErr
	}
	s := m.stream
	if iv.sum.members == nil {
		if *ex == nil {
			*ex = s.viewLocked()
		}
		sum, err := s.summarizeLocked(*ex, iv.events)
		if err != nil {
			iv.defErr = fmt.Errorf("online: interval %q: %w", name, err)
			return iv.defErr
		}
		iv.sum = sum
		iv.events = nil // the member list holds them, sorted
	}
	if m.used == len(m.scratch) {
		m.scratch = append(m.scratch, settleCuts{})
	}
	sc := &m.scratch[m.used]
	n := s.procs
	var rows []int
	if up {
		if cap(sc.up) < numFolds*n {
			sc.up = make([]int, numFolds*n)
		}
		rows = sc.up[:numFolds*n]
		if err := s.fillUpLocked(&iv.sum, rows); err != nil {
			iv.defErr = fmt.Errorf("online: interval %q: %w", name, err)
			return iv.defErr
		}
	}
	sc.assemble(&iv.sum, rows, n)
	sc.rec = iv
	m.used++
	iv.slot = int32(m.used)
	return nil
}

// releaseScratchLocked ends a settling pass: the entries drop their records
// and rows, so the scratch pins no released interval. Caller holds m.mu.
func (m *Monitor) releaseScratchLocked() {
	for k := range m.scratch[:m.used] {
		sc := &m.scratch[k]
		sc.rec.slot = 0
		sc.rec = nil
		sc.cuts = [3]core.IntervalCuts{}
	}
	m.used = 0
}

// operands is the monitor.Operands of a settling pass: it resolves names
// that prepareLocked made evaluable, and nothing else. Caller holds m.mu.
type operands struct{ m *Monitor }

func (o operands) Interval(name string) (*interval.Interval, bool) {
	iv := o.m.ivs[name]
	if iv == nil || iv.slot == 0 {
		return nil, false
	}
	return iv.sum.members, true
}

func (o operands) Cuts(op monitor.AtomOperand, _ *interval.Interval) (*core.IntervalCuts, error) {
	return &o.m.scratch[o.m.ivs[op.Name].slot-1].cuts[cutsIndex(op)], nil
}
