package hierarchy

import (
	"fmt"
	"strings"

	"causet/internal/core"
	"causet/internal/interval"
)

// Cell is one entry of a PairMatrix: the hierarchy-maximal relations that
// hold from the row interval to the column interval.
type Cell struct {
	// Strongest holds the maximal relations under Implies; empty when no
	// relation (not even R4) holds. The slice may be shared with other
	// cells (batch.Engine.Matrix fills cells from StrongestOf's table), so
	// callers must not modify it.
	Strongest []core.Relation
	// Overlap marks pairs that share atomic events, for which the
	// evaluation conditions are not defined (see DESIGN.md); Strongest is
	// empty in that case.
	Overlap bool
}

// String renders the cell compactly: "R2'+R3'", "–" (nothing), or "ovl".
func (c Cell) String() string {
	if c.Overlap {
		return "ovl"
	}
	if len(c.Strongest) == 0 {
		return "–"
	}
	parts := make([]string, len(c.Strongest))
	for i, r := range c.Strongest {
		parts[i] = r.String()
	}
	return strings.Join(parts, "+")
}

// PairMatrix answers the paper's Problem 4(ii) for a whole family of
// nonatomic events at once: for every ordered pair it reports the maximal
// relations that hold, computed with a shared Analysis so each interval's
// condensed cuts are built once (Key Idea 1). Summarize spends the
// Theorem 20 comparison counts per pair; batch.Engine.Matrix, on the fast
// evaluator, decides the whole family by a per-node threshold sweep over
// those cuts, 64 pairs per word operation, and fills the same cells.
type PairMatrix struct {
	Names []string
	Cells [][]Cell // Cells[i][j] relates interval i to interval j; i==j is zero
}

// Summarize builds the pair matrix for the named intervals. names and ivs
// run in parallel; all intervals must belong to a's execution.
func Summarize(a *core.Analysis, eval core.Evaluator, names []string, ivs []*interval.Interval) (*PairMatrix, error) {
	if len(names) != len(ivs) {
		return nil, fmt.Errorf("hierarchy: %d names for %d intervals", len(names), len(ivs))
	}
	pm := &PairMatrix{
		Names: append([]string(nil), names...),
		Cells: make([][]Cell, len(ivs)),
	}
	for i := range pm.Cells {
		pm.Cells[i] = make([]Cell, len(ivs))
	}
	for i, x := range ivs {
		for j, y := range ivs {
			if i == j {
				continue
			}
			if x.Overlaps(y) {
				pm.Cells[i][j] = Cell{Overlap: true}
				continue
			}
			var held []core.Relation
			for _, rel := range Canonical() {
				ok, err := a.EvalChecked(eval, rel, x, y)
				if err != nil {
					return nil, err
				}
				if ok {
					held = append(held, rel)
				}
			}
			pm.Cells[i][j] = Cell{Strongest: Strongest(held)}
		}
	}
	return pm, nil
}

// String renders the matrix as an aligned table with row/column labels.
func (pm *PairMatrix) String() string {
	n := len(pm.Names)
	width := make([]int, n+1)
	width[0] = len("X\\Y")
	for _, name := range pm.Names {
		if len(name) > width[0] {
			width[0] = len(name)
		}
	}
	cells := make([][]string, n)
	for i := range cells {
		cells[i] = make([]string, n)
		for j := range cells[i] {
			s := ""
			if i != j {
				s = pm.Cells[i][j].String()
			} else {
				s = "·"
			}
			cells[i][j] = s
			if w := len([]rune(s)); w > width[j+1] {
				width[j+1] = w
			}
		}
	}
	for j, name := range pm.Names {
		if len(name) > width[j+1] {
			width[j+1] = len(name)
		}
	}
	var b strings.Builder
	pad := func(s string, w int) {
		b.WriteString(s)
		if p := w - len([]rune(s)); p > 0 {
			b.WriteString(strings.Repeat(" ", p))
		}
	}
	pad("X\\Y", width[0])
	for j, name := range pm.Names {
		b.WriteString("  ")
		pad(name, width[j+1])
	}
	b.WriteByte('\n')
	for i, name := range pm.Names {
		pad(name, width[0])
		for j := range pm.Names {
			b.WriteString("  ")
			pad(cells[i][j], width[j+1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
