// Package alert evaluates threshold rules over the tsdb store and drives a
// firing/resolved state machine with pluggable sinks — the operable half of
// the telemetry layer: the tsdb remembers what happened, this package says
// when somebody should care.
//
// Rule expression syntax (loosest to tightest binding):
//
//	rule   := or ( "for" DUR )?
//	or     := and ( "||" and )*
//	and    := unary ( "&&" unary )*
//	unary  := "!" unary | "(" or ")" | cmp
//	cmp    := source OP NUMBER
//	source := FUNC "(" SERIES ( "," DUR )? ")" | SERIES
//	FUNC   := value | rate | increase | min | max | avg | p50 | p90 | p99
//	OP     := > | >= | < | <= | == | !=
//
// A bare SERIES means value(SERIES) — the latest sample. Aggregating
// functions take an optional lookback window (default 60s). The trailing
// "for DUR" is the classic alerting damper: the condition must hold
// continuously for DUR before the rule fires. A comparison over a series
// with no (or not enough) data is false — absent telemetry never pages.
//
// Examples:
//
//	rate(monitor.checks.violation) > 0 for 5s
//	online.detect_latency_ns.p99 > 1000000
//	increase(runtime.msgs_dropped, 30s) >= 1 && value(runtime.nodes) > 0
//
// Rule files hold one rule per line, "name[severity]: expr" with severity
// info|warn|critical (default warn when the bracket is omitted); blank
// lines and #-comments are skipped:
//
//	violations[critical]: rate(monitor.checks.violation) > 0 for 5s
//	slow-detect[warn]:    online.detect_latency_ns.p99 > 5000000
//
// The lexer and recursive-descent parser deliberately mirror
// internal/monitor's condition DSL (token kinds, byte-offset ParseError),
// so operators read the same across both languages.
package alert

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// defaultWindow is the lookback used when an aggregation names none.
const defaultWindow = 60 * time.Second

// aggFuncs are the source functions and whether each needs ≥2 samples.
var aggFuncs = map[string]bool{
	"value": true, "rate": true, "increase": true,
	"min": true, "max": true, "avg": true,
	"p50": true, "p90": true, "p99": true,
}

// Expr is a parsed rule condition. Exprs are immutable and safe for
// concurrent evaluation.
type Expr interface {
	fmt.Stringer
	// Eval evaluates against a querier at the given instant. Missing series
	// data makes the enclosing comparison false.
	Eval(q Querier, now time.Time) bool
	// series appends the series names the expression mentions.
	series(set map[string]bool)
}

// source is one telemetry lookup: FUNC(series, window).
type source struct {
	fn     string
	name   string
	window time.Duration
	// explicit marks a window the rule spelled out (String fidelity).
	explicit bool
}

func (s source) String() string {
	if s.fn == "value" && !s.explicit {
		return s.name
	}
	if s.explicit {
		return fmt.Sprintf("%s(%s, %s)", s.fn, s.name, s.window)
	}
	return fmt.Sprintf("%s(%s)", s.fn, s.name)
}

// lookup resolves the source against the querier; ok is false when the
// series is missing or too thin for the aggregation.
func (s source) lookup(q Querier, now time.Time) (float64, bool) {
	switch s.fn {
	case "value":
		p, ok := q.Latest(s.name)
		return float64(p.V), ok
	case "rate":
		return q.Rate(s.name, s.window, now)
	case "increase":
		v, ok := q.Increase(s.name, s.window, now)
		return float64(v), ok
	case "min":
		lo, _, ok := q.MinMax(s.name, s.window, now)
		return float64(lo), ok
	case "max":
		_, hi, ok := q.MinMax(s.name, s.window, now)
		return float64(hi), ok
	case "avg":
		return q.Avg(s.name, s.window, now)
	case "p50", "p90", "p99":
		qv := map[string]float64{"p50": 0.50, "p90": 0.90, "p99": 0.99}[s.fn]
		v, ok := q.Quantile(s.name, qv, s.window, now)
		return float64(v), ok
	}
	return 0, false
}

// cmpExpr is source OP threshold.
type cmpExpr struct {
	src source
	op  string
	thr float64
}

func (c *cmpExpr) String() string {
	return fmt.Sprintf("%v %s %s", c.src, c.op, strconv.FormatFloat(c.thr, 'g', -1, 64))
}

func (c *cmpExpr) series(set map[string]bool) { set[c.src.name] = true }

func (c *cmpExpr) Eval(q Querier, now time.Time) bool {
	v, ok := c.src.lookup(q, now)
	if !ok {
		return false
	}
	switch c.op {
	case ">":
		return v > c.thr
	case ">=":
		return v >= c.thr
	case "<":
		return v < c.thr
	case "<=":
		return v <= c.thr
	case "==":
		return v == c.thr
	default: // "!="
		return v != c.thr
	}
}

type notExpr struct{ e Expr }

func (n *notExpr) String() string             { return "!(" + n.e.String() + ")" }
func (n *notExpr) series(set map[string]bool) { n.e.series(set) }
func (n *notExpr) Eval(q Querier, now time.Time) bool {
	return !n.e.Eval(q, now)
}

type binExpr struct {
	op   string // "&&" or "||"
	l, r Expr
}

func (b *binExpr) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(b.l), b.op, parenthesize(b.r))
}

func (b *binExpr) series(set map[string]bool) {
	b.l.series(set)
	b.r.series(set)
}

func (b *binExpr) Eval(q Querier, now time.Time) bool {
	if b.op == "&&" {
		return b.l.Eval(q, now) && b.r.Eval(q, now)
	}
	return b.l.Eval(q, now) || b.r.Eval(q, now)
}

func parenthesize(e Expr) string {
	if _, ok := e.(*binExpr); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// Series returns the sorted series names a rule expression reads.
func Series(e Expr) []string {
	set := make(map[string]bool)
	e.series(set)
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ParseError reports a syntax error with its byte offset in the source.
type ParseError struct {
	Src    string
	Offset int
	Msg    string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("alert: parse error at offset %d in %q: %s", e.Offset, e.Src, e.Msg)
}

// ParseExpr parses a rule condition with its optional "for" damper.
func ParseExpr(src string) (Expr, time.Duration, error) {
	p := &parser{lex: lexer{src: src}}
	p.next()
	e, err := p.parseOr()
	if err != nil {
		return nil, 0, err
	}
	var hold time.Duration
	if p.tok.kind == tokIdent && p.tok.text == "for" {
		p.next()
		if p.tok.kind != tokNumber {
			return nil, 0, p.errf("expected a duration after 'for', got %q", p.tok.text)
		}
		d, derr := time.ParseDuration(p.tok.text)
		if derr != nil || d <= 0 {
			return nil, 0, p.errf("bad 'for' duration %q", p.tok.text)
		}
		hold = d
		p.next()
	}
	if p.tok.kind != tokEOF {
		return nil, 0, p.errf("unexpected %q after expression", p.tok.text)
	}
	return e, hold, nil
}

// MustParseExpr is ParseExpr that panics on error, for fixed rule tables.
func MustParseExpr(src string) Expr {
	e, _, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ---- lexer ----

type tokKind int

const (
	tokEOF    tokKind = iota
	tokIdent          // series names, function names, "for"
	tokNumber         // thresholds and durations (5, 0.5, 5s, 100ms)
	tokLParen
	tokRParen
	tokComma
	tokAnd
	tokOr
	tokNot
	tokOp // > >= < <= == !=
	tokErr
)

type token struct {
	kind tokKind
	text string
	off  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) lex() token {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, off: l.pos}
	}
	start := l.pos
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{kind: tokLParen, text: "(", off: start}
	case ')':
		l.pos++
		return token{kind: tokRParen, text: ")", off: start}
	case ',':
		l.pos++
		return token{kind: tokComma, text: ",", off: start}
	case '&', '|':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == c {
			l.pos += 2
			if c == '&' {
				return token{kind: tokAnd, text: "&&", off: start}
			}
			return token{kind: tokOr, text: "||", off: start}
		}
		l.pos++
		return token{kind: tokErr, text: string(c), off: start}
	case '>', '<':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: string(c) + "=", off: start}
		}
		l.pos++
		return token{kind: tokOp, text: string(c), off: start}
	case '=':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: "==", off: start}
		}
		l.pos++
		return token{kind: tokErr, text: "=", off: start}
	case '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: "!=", off: start}
		}
		l.pos++
		return token{kind: tokNot, text: "!", off: start}
	}
	if isDigit(c) || c == '-' || c == '+' || c == '.' {
		// Numbers and durations share one token: 5, -0.25, 5s, 1m30s, 100ms.
		for l.pos < len(l.src) && isNumberPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], off: start}
	}
	if isIdentStart(c) {
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], off: start}
	}
	l.pos++
	return token{kind: tokErr, text: string(c), off: start}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isNumberPart(c byte) bool {
	// Digits, decimal point, sign, exponent markers, and duration unit
	// letters (ns us µ m s h). 'e' serves both exponents and... nothing
	// else; time.ParseDuration rejects stray letters later.
	return isDigit(c) || c == '.' || c == '-' || c == '+' ||
		c == 'e' || c == 'E' || c == 'n' || c == 'u' || c == 's' || c == 'm' || c == 'h' ||
		c == 0xc2 || c == 0xb5 // µ in UTF-8
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	// Series names are dotted obs instrument names plus Prometheus-style
	// underscore names: online.detect_latency_ns.p99, causet_violations_total.
	return isIdentStart(c) || isDigit(c) || c == '.'
}

// ---- parser ----

type parser struct {
	lex lexer
	tok token
}

func (p *parser) next() { p.tok = p.lex.lex() }

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Src: p.lex.src, Offset: p.tok.off, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOr {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "||", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAnd {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "&&", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.tok.kind {
	case tokNot:
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &notExpr{e: e}, nil
	case tokLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ')', got %q", p.tok.text)
		}
		p.next()
		return e, nil
	case tokIdent:
		return p.parseCmp()
	case tokEOF:
		return nil, p.errf("unexpected end of expression")
	default:
		return nil, p.errf("unexpected %q", p.tok.text)
	}
}

func (p *parser) parseCmp() (Expr, error) {
	src, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokOp {
		return nil, p.errf("expected a comparison operator (> >= < <= == !=), got %q", p.tok.text)
	}
	op := p.tok.text
	p.next()
	if p.tok.kind != tokNumber {
		return nil, p.errf("expected a number threshold, got %q", p.tok.text)
	}
	thr, perr := strconv.ParseFloat(p.tok.text, 64)
	if perr != nil {
		// A duration threshold (e.g. "> 5ms") compares in nanoseconds, the
		// native unit of the latency instruments.
		d, derr := time.ParseDuration(p.tok.text)
		if derr != nil {
			return nil, p.errf("bad number %q", p.tok.text)
		}
		thr = float64(d.Nanoseconds())
	}
	p.next()
	return &cmpExpr{src: src, op: op, thr: thr}, nil
}

func (p *parser) parseSource() (source, error) {
	name := p.tok.text
	off := p.tok.off
	p.next()
	if p.tok.kind != tokLParen {
		// Bare series name: the latest-value lookup.
		return source{fn: "value", name: name, window: defaultWindow}, nil
	}
	if !aggFuncs[name] {
		return source{}, &ParseError{Src: p.lex.src, Offset: off,
			Msg: fmt.Sprintf("unknown function %q (want value|rate|increase|min|max|avg|p50|p90|p99)", name)}
	}
	p.next()
	if p.tok.kind != tokIdent {
		return source{}, p.errf("expected a series name inside %s(...), got %q", name, p.tok.text)
	}
	s := source{fn: name, name: p.tok.text, window: defaultWindow}
	p.next()
	if p.tok.kind == tokComma {
		p.next()
		if p.tok.kind != tokNumber {
			return source{}, p.errf("expected a window duration, got %q", p.tok.text)
		}
		d, derr := time.ParseDuration(p.tok.text)
		if derr != nil || d <= 0 {
			return source{}, p.errf("bad window duration %q", p.tok.text)
		}
		s.window, s.explicit = d, true
		p.next()
	}
	if p.tok.kind != tokRParen {
		return source{}, p.errf("expected ')' closing %s(...), got %q", name, p.tok.text)
	}
	p.next()
	return s, nil
}

// ---- rule files ----

// Severity orders alert importance.
type Severity int

// The severities, least to most important.
const (
	SevInfo Severity = iota
	SevWarn
	SevCritical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevCritical:
		return "critical"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// ParseSeverity maps a rule-file severity tag to a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "info":
		return SevInfo, nil
	case "warn", "warning":
		return SevWarn, nil
	case "critical", "crit":
		return SevCritical, nil
	}
	return SevWarn, fmt.Errorf("alert: unknown severity %q (want info|warn|critical)", s)
}

// Rule is one named, parsed alert rule.
type Rule struct {
	Name     string
	Severity Severity
	Expr     Expr
	For      time.Duration // continuous-hold damper; 0 fires immediately
	Src      string        // the expression text as written
}

// ParseRules parses a rule file: one "name[severity]: expr" per line, with
// blank lines and #-comments skipped. Errors carry the 1-based line number.
func ParseRules(src string) ([]*Rule, error) {
	var rules []*Rule
	seen := make(map[string]int)
	for i, line := range strings.Split(src, "\n") {
		lineNo := i + 1
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		colon := strings.Index(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("alert: line %d: missing ':' (want \"name[severity]: expr\")", lineNo)
		}
		head, exprSrc := strings.TrimSpace(line[:colon]), strings.TrimSpace(line[colon+1:])
		name, sev := head, SevWarn
		if open := strings.Index(head, "["); open >= 0 {
			if !strings.HasSuffix(head, "]") {
				return nil, fmt.Errorf("alert: line %d: unclosed severity bracket in %q", lineNo, head)
			}
			var err error
			sev, err = ParseSeverity(head[open+1 : len(head)-1])
			if err != nil {
				return nil, fmt.Errorf("alert: line %d: %v", lineNo, err)
			}
			name = strings.TrimSpace(head[:open])
		}
		if name == "" {
			return nil, fmt.Errorf("alert: line %d: empty rule name", lineNo)
		}
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("alert: line %d: rule %q already defined on line %d", lineNo, name, prev)
		}
		seen[name] = lineNo
		expr, hold, err := ParseExpr(exprSrc)
		if err != nil {
			return nil, fmt.Errorf("alert: line %d: %v", lineNo, err)
		}
		rules = append(rules, &Rule{Name: name, Severity: sev, Expr: expr, For: hold, Src: exprSrc})
	}
	return rules, nil
}
