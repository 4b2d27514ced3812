package monitor

import (
	"strings"
	"testing"
	"testing/quick"

	"causet/internal/core"
	"causet/internal/sim"
)

// FuzzParse exercises the DSL parser with arbitrary inputs: it must never
// panic, and any expression it accepts must render to a string that parses
// back to the same rendering (print/parse stability).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"R1(a, b)",
		"R2'(L(a), U(b)) && !R3(c, d)",
		"((R4(a,b)))",
		"R1(a,b) || R2(b,c) && R3(c,d)",
		"!!!R4(x, y)",
		"R9(a, b)",
		"R1(L(, b)",
		"&& || ! ( ) ,",
		"r2p(l, u)",
		"R1(a'b, c)",
		"\x00\xff",
		strings.Repeat("(", 1000),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		expr, err := Parse(src)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		rendered := expr.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", src, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("rendering not stable: %q -> %q", rendered, again.String())
		}
	})
}

// FuzzConditionParser fuzzes the full condition path — AddCondition on a
// live monitor with defined intervals, then Check — where FuzzParse stops at
// the parser. Nothing here may panic, whatever the input: an accepted
// condition must evaluate to a settled state (or a structured error), its
// rendering must be a parse→print→parse fixpoint, and Referenced must return
// only names that actually occur in the source.
func FuzzConditionParser(f *testing.F) {
	for _, seed := range []string{
		"R1(r0, r1)",
		"!R4(r2, r0) && R2'(r0, r2)",
		"R3(ghost, r1)", // undefined interval -> Pending, not panic
		"R1(r0, r0)",    // overlapping operands -> Failed, not panic
		"R2(L(r0), U(r1)) || R3'(r1, r2)",
		"R1(r0, r1) -> R2(r1, r2)",
		"R1(r0,r1) <-> !R1(r1,r0)",
		"(((R4(r0, r2))))",
		"R1(\xffbad, r1)",
		"!",
		"R1(r0, r1) && ",
		strings.Repeat("!", 500) + "R1(r0, r1)",
	} {
		f.Add(seed)
	}
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 3, Seed: 2})
	names := []string{"r0", "r1", "r2"}
	f.Fuzz(func(t *testing.T, src string) {
		// Fresh monitor per input: conditions are memoized after Check, and a
		// shared instance would also hit the duplicate-name error path only.
		m := New(res.Exec)
		for i, ph := range res.Phases {
			if err := m.Define(names[i], ph.Events); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AddCondition("fuzzed", src); err != nil {
			return // rejection is fine; panicking is not
		}
		// Accepted conditions must survive the whole pipeline.
		for _, res := range m.Check() {
			switch res.State {
			case Holds, Violated, Pending:
			case Failed:
				if res.Err == nil {
					t.Fatalf("Failed state without an error for %q", src)
				}
			default:
				t.Fatalf("unknown state %v for %q", res.State, src)
			}
		}
		expr, err := Parse(src)
		if err != nil {
			t.Fatalf("AddCondition accepted %q but Parse rejected it: %v", src, err)
		}
		rendered := expr.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", src, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("rendering not stable: %q -> %q", rendered, again.String())
		}
		for _, name := range Referenced(expr) {
			if !strings.Contains(src, name) {
				t.Fatalf("Referenced reports %q, which does not occur in %q", name, src)
			}
		}
	})
}

// TestQuickRandomExprRoundTrip generates random ASTs and checks the
// print/parse round trip — structured coverage complementing FuzzParse.
func TestQuickRandomExprRoundTrip(t *testing.T) {
	// Encode a random expression tree from a byte budget.
	var build func(budget []byte) (Expr, []byte)
	build = func(budget []byte) (Expr, []byte) {
		if len(budget) == 0 {
			return &atomExpr{Atom{X: AtomOperand{Name: "a"}, Y: AtomOperand{Name: "b"}}}, nil
		}
		op := budget[0] % 5
		budget = budget[1:]
		switch op {
		case 0, 1: // atom
			rel := int(op)
			if len(budget) > 0 {
				rel = int(budget[0]) % 8
				budget = budget[1:]
			}
			x := AtomOperand{Name: "iv" + string(rune('a'+rel))}
			y := AtomOperand{Name: "other"}
			if rel%2 == 0 {
				x = AtomOperand{Name: "p", UseProxy: true, Proxy: 0}
			}
			return &atomExpr{Atom{Rel: core.Relation(rel % 8), X: x, Y: y}}, budget
		case 2: // not
			inner, rest := build(budget)
			return &notExpr{e: inner}, rest
		case 3: // and
			l, rest := build(budget)
			r, rest2 := build(rest)
			return &binExpr{op: "&&", l: l, r: r}, rest2
		default: // or
			l, rest := build(budget)
			r, rest2 := build(rest)
			return &binExpr{op: "||", l: l, r: r}, rest2
		}
	}
	f := func(budget []byte) bool {
		if len(budget) > 40 {
			budget = budget[:40]
		}
		expr, _ := build(budget)
		rendered := expr.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Logf("render: %q", rendered)
			return false
		}
		return again.String() == rendered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
