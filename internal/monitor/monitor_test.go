package monitor

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/sim"
)

// fixture: a 3-round ring; rounds are causally stacked, so R2/R3'/R4 hold
// between consecutive rounds and R1 does not (first send of a round has no
// predecessor in the previous round's... actually R1(r0,r1) fails because
// round-0 events on late nodes are concurrent with round-1's first send).
func fixture(t *testing.T) *Monitor {
	t.Helper()
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 3, Seed: 2})
	m := New(res.Exec)
	for i, ph := range res.Phases {
		name := []string{"r0", "r1", "r2"}[i]
		if err := m.Define(name, ph.Events); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestParseValid(t *testing.T) {
	for _, src := range []string{
		"R1(a, b)",
		"R2'(a,b)",
		"r3prime(a, b)",
		"R1(L(a), U(b))",
		"!R4(a, b)",
		"R1(a,b) && R2(b,c)",
		"R1(a,b) || R2(b,c) && !R3(c,d)",
		"(R1(a,b) || R2(b,c)) && R3(c,d)",
		"R4(x-1, phase_2)",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ src, wantMsg string }{
		{"", "unexpected end"},
		{"R1(a, b) extra", "after expression"},
		{"R9(a, b)", "relation name"},
		{"foo(a, b)", "relation name"},
		{"R1 a, b)", "expected '('"},
		{"R1(, b)", "interval name"},
		{"R1(a b)", "expected ','"},
		{"R1(a, b", "expected ')'"},
		{"R1(a, b) &&", "unexpected end"},
		{"R1(a, b) & R2(a,b)", "unexpected"},
		{"(R1(a,b)", "expected ')'"},
		{"R1(L(, b)", "interval name inside"},
		{"R1(L(a, b)", "closing"},
		{"#", "unexpected"},
	} {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", tc.src)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q): error type %T", tc.src, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.src, err, tc.wantMsg)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// || binds looser than &&: a || b && c parses as a || (b && c).
	e := MustParse("R1(a,b) || R2(a,b) && R3(a,b)")
	want := "R1(a, b) || (R2(a, b) && R3(a, b))"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	// ! binds tightest.
	e2 := MustParse("!R1(a,b) && R2(a,b)")
	if got := e2.String(); got != "!R1(a, b) && R2(a, b)" {
		t.Errorf("String = %q", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, src := range []string{
		"R1(a, b)",
		"!(R1(a, b) && R2'(b, c))",
		"R3(L(a), U(b)) || R4(c, d)",
	} {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Errorf("round trip changed: %q -> %q", e1.String(), e2.String())
		}
	}
}

func TestReferenced(t *testing.T) {
	e := MustParse("R1(a, b) && !R2(L(c), a) || R3(d, d)")
	got := Referenced(e)
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("Referenced = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Referenced = %v, want %v", got, want)
		}
	}
}

func TestConditionRefs(t *testing.T) {
	e := MustParse("R1(b, a) && R2(U(a), c)")
	want := strings.Join(Referenced(e), ",")
	for _, c := range []*Condition{NewCondition("n", "", e), {Name: "lit", Expr: e}} {
		if got := strings.Join(c.Refs(), ","); got != want {
			t.Errorf("%s: Refs = %s, want %s", c.Name, got, want)
		}
	}
}

// TestNewConditionAllocs pins what compiling a condition's name lists costs:
// for a two-interval condition, the Condition and one slice per list.
// Collecting the names through a map took two more.
func TestNewConditionAllocs(t *testing.T) {
	e := MustParse("R1(round-1, round-2)")
	if n := testing.AllocsPerRun(100, func() { NewCondition("c", "", e) }); n > 3 {
		t.Errorf("NewCondition allocates %.0f objects, want <= 3", n)
	}
}

func TestConditionLeftRefs(t *testing.T) {
	e := MustParse("R1(b, a) && !R2(U(d), c) || R3(b, d) -> R4(L(a), c)")
	for _, c := range []*Condition{NewCondition("n", "", e), {Name: "lit", Expr: e}} {
		if got := strings.Join(c.LeftRefs(), ","); got != "a,b,d" {
			t.Errorf("%s: LeftRefs = %s, want a,b,d", c.Name, got)
		}
	}
}

func TestMonitorEval(t *testing.T) {
	m := fixture(t)
	// Consecutive ring rounds: R2, R3', R4 hold; R1 backwards must not.
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"R2(r0, r1)", true},
		{"R3'(r0, r1)", true},
		{"R4(r0, r2)", true},
		{"R4(r2, r0)", false},
		{"R2(r0, r1) && R2(r1, r2)", true},
		{"R2(r0, r1) && R4(r2, r0)", false},
		{"R4(r2, r0) || R4(r0, r2)", true},
		{"!R4(r2, r0)", true},
		{"R4(L(r0), U(r1))", true},
		{"R1(U(r2), L(r0))", false},
	} {
		got, err := m.Eval(tc.src)
		if err != nil {
			t.Errorf("Eval(%q): %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Eval(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
	// Eval agrees with direct core evaluation.
	x, _ := m.Interval("r0")
	y, _ := m.Interval("r1")
	want := core.NewNaive(m.Analysis()).Eval(core.R2, x, y)
	got, err := m.Eval("R2(r0, r1)")
	if err != nil || got != want {
		t.Errorf("Eval disagrees with core: %v, %v", got, err)
	}
	// Undefined interval in one-shot Eval is an error.
	if _, err := m.Eval("R1(r0, nope)"); err == nil {
		t.Errorf("Eval with undefined interval succeeded")
	} else {
		var ue *UndefinedError
		if !errors.As(err, &ue) || ue.Name != "nope" {
			t.Errorf("err = %v, want UndefinedError{nope}", err)
		}
	}
}

func TestMonitorLifecycle(t *testing.T) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 2, Seed: 5})
	m := New(res.Exec)
	if err := m.AddCondition("ordered", "R2(first, second)"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCondition("never-backwards", "!R4(second, first)"); err != nil {
		t.Fatal(err)
	}
	// Nothing defined yet: both pending.
	for _, r := range m.Check() {
		if r.State != Pending {
			t.Errorf("%s: state = %v, want pending", r.Name, r.State)
		}
	}
	if err := m.Define("first", res.Phases[0].Events); err != nil {
		t.Fatal(err)
	}
	// Still pending: "second" missing.
	for _, r := range m.Check() {
		if r.State != Pending {
			t.Errorf("%s: state = %v, want pending", r.Name, r.State)
		}
	}
	if err := m.Define("second", res.Phases[1].Events); err != nil {
		t.Fatal(err)
	}
	results := m.Check()
	if len(results) != 2 {
		t.Fatalf("Check returned %d results", len(results))
	}
	for _, r := range results {
		if r.State != Holds {
			t.Errorf("%s: state = %v (err=%v), want holds", r.Name, r.State, r.Err)
		}
	}
	// A condition that is false reports Violated.
	if err := m.AddCondition("backwards", "R1(second, first)"); err != nil {
		t.Fatal(err)
	}
	last := m.Check()[2]
	if last.State != Violated {
		t.Errorf("backwards: state = %v, want violated", last.State)
	}
}

func TestMonitorFailedOnOverlap(t *testing.T) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 1, Seed: 5})
	m := New(res.Exec)
	if err := m.Define("whole", res.Phases[0].Events); err != nil {
		t.Fatal(err)
	}
	if err := m.Define("alias", res.Phases[0].Events); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCondition("self", "R4(whole, alias)"); err != nil {
		t.Fatal(err)
	}
	r := m.Check()[0]
	if r.State != Failed || r.Err == nil {
		t.Fatalf("overlapping operands: state = %v err = %v, want failed", r.State, r.Err)
	}
	var ov *core.ErrOverlap
	if !errors.As(r.Err, &ov) {
		t.Errorf("err = %v, want ErrOverlap", r.Err)
	}
}

func TestMonitorDefineErrors(t *testing.T) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 1, Seed: 5})
	other := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 1, Seed: 6})
	m := New(res.Exec)
	if err := m.Define("", res.Phases[0].Events); err == nil {
		t.Errorf("empty name accepted")
	}
	if err := m.Define("x", nil); err == nil {
		t.Errorf("empty interval accepted")
	}
	if err := m.Define("x", res.Phases[0].Events); err != nil {
		t.Fatal(err)
	}
	if err := m.Define("x", res.Phases[0].Events); err == nil {
		t.Errorf("duplicate name accepted")
	}
	// Interval from another execution.
	ivOther, err := interval.New(other.Exec, other.Phases[0].Events)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DefineInterval("y", ivOther); err == nil {
		t.Errorf("foreign interval accepted")
	}
	// Duplicate condition name.
	if err := m.AddCondition("c", "R1(x, x)"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCondition("c", "R2(x, x)"); err == nil {
		t.Errorf("duplicate condition accepted")
	}
	// Syntax error surfaces from AddCondition.
	if err := m.AddCondition("bad", "R1(x"); err == nil {
		t.Errorf("syntax error accepted")
	}
	if got := len(m.Conditions()); got != 1 {
		t.Errorf("conditions = %d, want 1", got)
	}
	names := m.IntervalNames()
	if len(names) != 1 || names[0] != "x" {
		t.Errorf("IntervalNames = %v", names)
	}
}

func TestHoldingRelations(t *testing.T) {
	m := fixture(t)
	rels, err := m.HoldingRelations("r0", "r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatalf("no relations hold between stacked ring rounds")
	}
	// R4 with any proxy combination must be among them.
	found := false
	for _, r := range rels {
		if r.R == core.R4 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("R4 missing from holding set %v", rels)
	}
	if _, err := m.HoldingRelations("r0", "nope"); err == nil {
		t.Errorf("undefined interval accepted")
	}
	if _, err := m.HoldingRelations("nope", "r0"); err == nil {
		t.Errorf("undefined interval accepted")
	}
}

func TestMonitorConcurrent(t *testing.T) {
	m := fixture(t)
	if err := m.AddCondition("c1", "R2(r0, r1)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				m.Check()
				if _, err := m.Eval("R4(r0, r2) && !R1(r2, r0)"); err != nil {
					t.Errorf("Eval: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Pending, Holds, Violated, Failed, State(9)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
}

func TestImplicationOperators(t *testing.T) {
	m := fixture(t)
	// Ring rounds: R4(r0, r1) true, R4(r1, r0) false.
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"R4(r0, r1) -> R2(r0, r1)", true},   // true -> true
		{"R4(r0, r1) -> R4(r1, r0)", false},  // true -> false
		{"R4(r1, r0) -> R1(r0, r1)", true},   // false -> anything
		{"R4(r0, r1) <-> !R4(r1, r0)", true}, // both true
		{"R4(r0, r1) <-> R4(r1, r0)", false},
		// Right associativity: a -> b -> c ≡ a -> (b -> c).
		{"R4(r0, r1) -> R4(r1, r0) -> R4(r0, r2)", true},
		// -> binds looser than ||.
		{"R4(r1, r0) || R4(r0, r1) -> R2(r0, r1)", true},
		// No-space form with hyphenated interval names.
		{"R4(r0, r1)->R2(r0, r1)", true},
		// Parenthesized implication inside a conjunction.
		{"(R4(r0, r1) -> R2(r0, r1)) && !R4(r2, r0)", true},
	} {
		got, err := m.Eval(tc.src)
		if err != nil {
			t.Errorf("Eval(%q): %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Eval(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
	// Malformed operators are rejected.
	for _, bad := range []string{"R4(r0, r1) - R2(r0, r1)", "R4(r0, r1) < R2(r0, r1)", "R4(r0,r1) <- R2(r0,r1)"} {
		if _, err := m.Eval(bad); err == nil {
			t.Errorf("Eval(%q) accepted", bad)
		}
	}
}

func TestImplicationRoundTrip(t *testing.T) {
	for _, src := range []string{
		"R1(a, b) -> R2(b, c)",
		"R1(a, b) <-> (R2(b, c) || R3(c, d))",
		"R1(a, b) -> R2(b, c) -> R3(c, d)",
	} {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Errorf("round trip changed: %q -> %q", e1.String(), e2.String())
		}
	}
	// Hyphen-name boundary: interval names keep interior hyphens while a
	// trailing -> is recognized.
	e := MustParse("R4(ring-round-0, ring-round-1)->R1(a, b)")
	refs := Referenced(e)
	if len(refs) != 4 || refs[2] != "ring-round-0" || refs[3] != "ring-round-1" {
		t.Errorf("Referenced = %v", refs)
	}
}
