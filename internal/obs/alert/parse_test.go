package alert

import (
	"strings"
	"testing"
	"time"
)

func TestParseExprShapes(t *testing.T) {
	for _, tc := range []struct {
		src     string
		want    string // round-tripped String()
		wantFor time.Duration
	}{
		{"rate(violations) > 0", "rate(violations) > 0", 0},
		{"rate(violations) > 0 for 5s", "rate(violations) > 0", 5 * time.Second},
		{"x >= 3", "x >= 3", 0},
		{"value(x) != 0", "x != 0", 0}, // value() is the implicit default; String canonicalizes
		{"increase(a.b, 30s) >= 1", "increase(a.b, 30s) >= 1", 0},
		{"p99(lat) > 5ms", "p99(lat) > 5e+06", 0},
		{"lat.p99 > 5000000", "lat.p99 > 5e+06", 0},
		{"a > 1 && b < 2", "a > 1 && b < 2", 0},
		{"a > 1 || b < 2 && c == 3", "a > 1 || (b < 2 && c == 3)", 0},
		{"!(a > 1)", "!(a > 1)", 0},
		{"min(g, 10s) <= -2.5", "min(g, 10s) <= -2.5", 0},
		{"avg(g) == 0 for 1m30s", "avg(g) == 0", 90 * time.Second},
	} {
		e, hold, err := ParseExpr(tc.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tc.src, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("ParseExpr(%q).String() = %q, want %q", tc.src, got, tc.want)
		}
		if hold != tc.wantFor {
			t.Errorf("ParseExpr(%q) for = %v, want %v", tc.src, hold, tc.wantFor)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"rate(violations)",     // no comparison
		"rate(violations) > ",  // no threshold
		"bogus(x) > 1",         // unknown function
		"rate(x, potato) > 1",  // bad window
		"rate(x) > 1 for",      // for without duration
		"rate(x) > 1 for -5s",  // negative hold
		"rate(x) > 1 trailing", // junk after expr
		"x > 1 &&",             // dangling operator
		"(x > 1",               // unclosed paren
		"x = 1",                // single '='
		"rate(x 5s) > 1",       // missing comma
		"x > 1 for 5s extra",   // junk after for
		"value() > 1",          // empty call
	} {
		if _, _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) unexpectedly succeeded", src)
		}
	}
	// ParseError carries the offset.
	_, _, err := ParseExpr("x > 1 &&")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Offset != len("x > 1 &&") || pe.Src != "x > 1 &&" {
		t.Fatalf("ParseError = %+v", pe)
	}
}

func TestSeries(t *testing.T) {
	e := MustParseExpr("rate(b) > 0 && a.x > 1 || p99(c, 5s) < 3")
	got := Series(e)
	want := []string{"a.x", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Series = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
}

func TestParseRules(t *testing.T) {
	src := `
# operational rules
violations[critical]: rate(monitor.checks.violation) > 0 for 5s
slow[warn]: p99(online.detect_latency_ns) > 5ms

plain: x > 0
informative[info]: y == 1
`
	rules, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("got %d rules, want 4", len(rules))
	}
	r := rules[0]
	if r.Name != "violations" || r.Severity != SevCritical || r.For != 5*time.Second {
		t.Fatalf("rule 0 = %+v", r)
	}
	if rules[2].Name != "plain" || rules[2].Severity != SevWarn {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	if rules[3].Severity != SevInfo {
		t.Fatalf("rule 3 severity = %v", rules[3].Severity)
	}
}

func TestParseRulesErrors(t *testing.T) {
	for _, tc := range []struct {
		src  string
		frag string // expected substring of the error
	}{
		{"no colon here", "missing ':'"},
		{"a[bogus]: x > 1", "unknown severity"},
		{"a[warn: x > 1", "unclosed severity"},
		{": x > 1", "empty rule name"},
		{"a: x > 1\na: y > 2", "already defined on line 1"},
		{"a: x >", "parse error"},
	} {
		_, err := ParseRules(tc.src)
		if err == nil {
			t.Errorf("ParseRules(%q) unexpectedly succeeded", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("ParseRules(%q) error %q, want substring %q", tc.src, err, tc.frag)
		}
	}
}

func TestParseSeverity(t *testing.T) {
	for s, want := range map[string]Severity{
		"info": SevInfo, "warn": SevWarn, "warning": SevWarn,
		"critical": SevCritical, "crit": SevCritical, " Critical ": SevCritical,
	} {
		got, err := ParseSeverity(s)
		if err != nil || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity(fatal) unexpectedly succeeded")
	}
	if SevCritical.String() != "critical" || SevInfo.String() != "info" || SevWarn.String() != "warn" {
		t.Error("Severity.String mismatch")
	}
}
