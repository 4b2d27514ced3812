// Package monitor provides the application-facing layer of the library: a
// small boolean DSL over the causality relations, and a monitor that
// evaluates named synchronization conditions against the nonatomic events of
// a recorded execution. This is the paper's Problem 4 — "for every pair of
// nonatomic poset events X and Y, efficiently determine if a specific
// relation r(X, Y) holds, and all the relations that hold" — packaged the
// way a real-time application would consume it (the paper's §1 names
// distributed predicate specification in an air-defence control system).
//
// Condition syntax (loosest to tightest binding):
//
//	expr    := or ( ("->" | "<->") expr )?     right-associative
//	or      := and ( "||" and )*
//	and     := unary ( "&&" unary )*
//	unary   := "!" unary | "(" expr ")" | atom
//	atom    := REL "(" operand "," operand ")"
//	operand := IDENT | ("L"|"U") "(" IDENT ")"
//	REL     := R1 | R1' | R2 | R2' | R3 | R3' | R4 | R4'   (or r1, R2p, ...)
//
// Examples:
//
//	R1(detect, engage)
//	R2'(L(track), U(launch)) && !R3(track, abort)
//	R4(a, b) || R4(b, a)
//	R4(req, grant) -> R1(req, grant)      (conditional contract)
//	R4(a, b) <-> !R4(b, a)                (exactly one direction)
package monitor

import (
	"fmt"
	"slices"
	"strings"

	"causet/internal/core"
	"causet/internal/interval"
)

// Expr is a parsed condition. Exprs are immutable and safe for concurrent
// evaluation.
type Expr interface {
	fmt.Stringer
	// eval evaluates against an environment.
	eval(env *evalEnv) (bool, error)
}

// evalEnv carries what atom evaluation needs.
type evalEnv struct {
	ops  Operands
	fast *core.EvalCounters
}

// UndefinedError reports an atom referencing an interval the monitor does
// not (yet) know. The monitor uses it to classify conditions as pending.
type UndefinedError struct{ Name string }

// Error implements error.
func (e *UndefinedError) Error() string {
	return fmt.Sprintf("monitor: interval %q is not defined", e.Name)
}

// atomExpr is REL(operand, operand).
type atomExpr struct{ Atom }

func (a *atomExpr) eval(env *evalEnv) (bool, error) {
	x, cx, err := env.operand(a.X)
	if err != nil {
		return false, err
	}
	y, cy, err := env.operand(a.Y)
	if err != nil {
		return false, err
	}
	if operandsOverlap(a.X, x, cx, a.Y, y, cy) {
		return false, &core.ErrOverlap{X: members(a.X, x), Y: members(a.Y, y)}
	}
	held, checks := core.EvalCuts(a.Rel, cx, cy, x.NodeSet(), y.NodeSet())
	env.fast.Record(a.Rel, checks)
	return held, nil
}

// operand resolves o to its named interval and its cuts.
func (env *evalEnv) operand(o AtomOperand) (*interval.Interval, *core.IntervalCuts, error) {
	iv, ok := env.ops.Interval(o.Name)
	if !ok {
		return nil, nil, &UndefinedError{Name: o.Name}
	}
	c, err := env.ops.Cuts(o, iv)
	return iv, c, err
}

type notExpr struct{ e Expr }

func (n *notExpr) String() string { return "!" + parenthesize(n.e) }
func (n *notExpr) eval(env *evalEnv) (bool, error) {
	v, err := n.e.eval(env)
	return !v, err
}

type binExpr struct {
	op   string // "&&", "||", "->", or "<->"
	l, r Expr
}

func (b *binExpr) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(b.l), b.op, parenthesize(b.r))
}

func (b *binExpr) eval(env *evalEnv) (bool, error) {
	// No short-circuiting: evaluate both sides so undefined intervals are
	// reported deterministically regardless of operand truth values.
	lv, lerr := b.l.eval(env)
	rv, rerr := b.r.eval(env)
	if lerr != nil {
		return false, lerr
	}
	if rerr != nil {
		return false, rerr
	}
	switch b.op {
	case "&&":
		return lv && rv, nil
	case "||":
		return lv || rv, nil
	case "->":
		return !lv || rv, nil
	default: // "<->"
		return lv == rv, nil
	}
}

func parenthesize(e Expr) string {
	if _, ok := e.(*binExpr); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// Referenced returns the sorted interval names mentioned by the expression.
func Referenced(e Expr) []string {
	out := appendOperands(make([]string, 0, 2), e, false) // most conditions name two
	sortStrings(out)
	return out
}

// leftOperands returns the sorted, distinct names of the intervals that are
// the left operand of some atom of e, proxied or not.
func leftOperands(e Expr) []string {
	out := appendOperands(nil, e, true)
	sortStrings(out)
	return out
}

// appendOperands appends to out the operand names of e's atoms that out
// does not hold yet: both operands of every atom, or the left one alone
// when leftOnly is set. A condition names a handful of intervals, so a
// linear scan beats a set.
func appendOperands(out []string, e Expr, leftOnly bool) []string {
	switch v := e.(type) {
	case *atomExpr:
		for _, name := range [2]string{v.X.Name, v.Y.Name} {
			if !slices.Contains(out, name) {
				out = append(out, name)
			}
			if leftOnly {
				break
			}
		}
	case *notExpr:
		out = appendOperands(out, v.e, leftOnly)
	case *binExpr:
		out = appendOperands(appendOperands(out, v.l, leftOnly), v.r, leftOnly)
	default:
		panic(fmt.Sprintf("monitor: unknown expression node %T", e))
	}
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
	return fmt.Sprintf("monitor: parse error at offset %d in %q: %s", e.Offset, e.Src, e.Msg)
}

// Parse parses a condition expression.
func Parse(src string) (Expr, error) {
	p := &parser{lex: lexer{src: src}}
	p.next()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %q after expression", p.tok.text)
	}
	return e, nil
}

// MustParse is Parse that panics on error, for fixed condition tables.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ---- lexer ----

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokAnd
	tokOr
	tokNot
	tokImplies
	tokIff
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
	case '!':
		l.pos++
		return token{kind: tokNot, text: "!", off: start}
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
	case '-':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.pos += 2
			return token{kind: tokImplies, text: "->", off: start}
		}
		l.pos++
		return token{kind: tokErr, text: "-", off: start}
	case '<':
		if l.pos+2 < len(l.src) && l.src[l.pos+1] == '-' && l.src[l.pos+2] == '>' {
			l.pos += 3
			return token{kind: tokIff, text: "<->", off: start}
		}
		l.pos++
		return token{kind: tokErr, text: "<", off: start}
	}
	if isIdentStart(c) {
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		// Identifiers may contain '-' (e.g. "ring-round-0"), which collides
		// with a trailing "->" operator written without a space: in "a->b"
		// the '-' belongs to the operator, not the name.
		if l.pos < len(l.src) && l.src[l.pos] == '>' && l.src[l.pos-1] == '-' {
			l.pos--
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], off: start}
	}
	l.pos++
	return token{kind: tokErr, text: string(c), off: start}
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || ('0' <= c && c <= '9') || c == '\'' || c == '-'
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

// parseExpr handles the loosest level: right-associative "->" and "<->".
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokImplies || p.tok.kind == tokIff {
		op := p.tok.text
		p.next()
		r, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &binExpr{op: op, l: l, r: r}, nil
	}
	return l, nil
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
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ')', got %q", p.tok.text)
		}
		p.next()
		return e, nil
	case tokIdent:
		return p.parseAtom()
	case tokEOF:
		return nil, p.errf("unexpected end of expression")
	default:
		return nil, p.errf("unexpected %q", p.tok.text)
	}
}

func (p *parser) parseAtom() (Expr, error) {
	rel, err := core.ParseRelation(p.tok.text)
	if err != nil {
		return nil, p.errf("expected a relation name (R1..R4'), got %q", p.tok.text)
	}
	p.next()
	if p.tok.kind != tokLParen {
		return nil, p.errf("expected '(' after relation, got %q", p.tok.text)
	}
	p.next()
	x, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokComma {
		return nil, p.errf("expected ',', got %q", p.tok.text)
	}
	p.next()
	y, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokRParen {
		return nil, p.errf("expected ')', got %q", p.tok.text)
	}
	p.next()
	return &atomExpr{Atom{Rel: rel, X: x, Y: y}}, nil
}

func (p *parser) parseOperand() (AtomOperand, error) {
	if p.tok.kind != tokIdent {
		return AtomOperand{}, p.errf("expected interval name, got %q", p.tok.text)
	}
	name := p.tok.text
	p.next()
	// L(name) / U(name) proxy application.
	if (name == "L" || name == "U") && p.tok.kind == tokLParen {
		p.next()
		if p.tok.kind != tokIdent {
			return AtomOperand{}, p.errf("expected interval name inside %s(...), got %q", name, p.tok.text)
		}
		inner := p.tok.text
		p.next()
		if p.tok.kind != tokRParen {
			return AtomOperand{}, p.errf("expected ')' closing %s(...), got %q", name, p.tok.text)
		}
		p.next()
		kind := interval.ProxyL
		if name == "U" {
			kind = interval.ProxyU
		}
		return AtomOperand{Name: inner, UseProxy: true, Proxy: kind}, nil
	}
	if strings.ContainsAny(name, "'") {
		return AtomOperand{}, &ParseError{Src: p.lex.src, Offset: p.tok.off, Msg: fmt.Sprintf("interval name %q may not contain apostrophes", name)}
	}
	return AtomOperand{Name: name}, nil
}
