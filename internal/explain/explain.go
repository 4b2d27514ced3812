// Package explain is the causal explanation engine: it turns a relation
// verdict r(X, Y) — or a whole monitor condition settlement — into evidence
// an operator can act on. For each verdict it extracts (a) the witness: the
// cut components / proxy representatives whose ≪ test decided the verdict
// (Defns 13–15, Lemma 16; the evaluation conditions of Theorems 19/20),
// realized as concrete events; (b) the critical path through (E, ≺) from
// the earliest contributing event to the settling event, with per-hop
// latency attribution when the trace is timed; and (c) for violations, the
// knowledge gap — how far the deciding event's vector clock actually
// reached on the node that needed covering. Explanations serialize to JSON
// and render as Chrome trace_event flow arrows over the per-process
// timelines (see EmitFlows), so a verdict appears as an arrow in the same
// viewer that shows the evaluator spans.
//
// The package sits above internal/core (witness capture) and below the
// CLIs and monitors; it never touches the evaluators' hot paths — all
// capture goes through the cold core.WitnessEvaluator methods.
package explain

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/rt"
)

// FormatVersion identifies the Explanation JSON schema.
const FormatVersion = 1

// EventRef is a serialized event reference, optionally carrying the event's
// runtime label and physical timestamp.
type EventRef struct {
	Proc   int    `json:"proc"`
	Pos    int    `json:"pos"`
	Label  string `json:"label,omitempty"`
	TimeNS int64  `json:"time_ns,omitempty"`
}

// String renders the reference in p<proc>:<pos> form, with the label when
// one is known.
func (r EventRef) String() string {
	if r.Label != "" {
		return fmt.Sprintf("p%d:%d(%s)", r.Proc, r.Pos, r.Label)
	}
	return fmt.Sprintf("p%d:%d", r.Proc, r.Pos)
}

// ID returns the poset identity of the reference.
func (r EventRef) ID() poset.EventID { return poset.EventID{Proc: r.Proc, Pos: r.Pos} }

// Check is one recorded ≪-test comparison (normalized to XVal ≤ YVal ⇔
// Pass; see core.NodeCheck).
type Check struct {
	Node   int      `json:"node"`
	YNode  int      `json:"y_node"`
	XVal   int      `json:"x_val"`
	YVal   int      `json:"y_val"`
	Pass   bool     `json:"pass"`
	XEvent EventRef `json:"x_event"`
	YEvent EventRef `json:"y_event"`
}

// Witness is the serialized form of a core.Witness.
type Witness struct {
	XCut         string   `json:"x_cut"`
	YCut         string   `json:"y_cut"`
	Universal    bool     `json:"universal"`
	Checks       []Check  `json:"checks"`
	Decisive     int      `json:"decisive"` // index into Checks; -1 = exhaustive scan
	XEvent       EventRef `json:"x_event"`
	YEvent       EventRef `json:"y_event"`
	PairPrecedes bool     `json:"pair_precedes"`
}

// Hop is one edge of a critical path: a program-order step or a message.
type Hop struct {
	From      EventRef `json:"from"`
	To        EventRef `json:"to"`
	Kind      string   `json:"kind"` // "local" or "message"
	LatencyNS int64    `json:"latency_ns,omitempty"`
}

// CriticalPath is a causal chain a = e₀ ≺ e₁ ≺ … ≺ eₖ = b through immediate
// predecessors, built backwards from b by always following the latest
// (timed traces) or message-bearing (untimed) dependency — the chain that
// actually gated b on a.
type CriticalPath struct {
	From     EventRef `json:"from"`
	To       EventRef `json:"to"`
	Hops     []Hop    `json:"hops"`
	Messages int      `json:"messages"`
	TotalNS  int64    `json:"total_ns,omitempty"`
}

// Gap is the violation diagnostic: the deciding Y event's knowledge of the
// node that needed covering fell short.
type Gap struct {
	// Node is the node whose X event went unseen.
	Node int `json:"node"`
	// KnownPos is how far YEvent's vector clock reached on Node.
	KnownPos int `json:"known_pos"`
	// NeededPos is the position the verdict needed covered (XEvent.Pos).
	NeededPos int `json:"needed_pos"`
}

// Explanation is the machine-readable evidence behind one relation verdict.
type Explanation struct {
	Version   int     `json:"version"`
	Expr      string  `json:"expr,omitempty"` // atom syntax when from a condition
	Rel       string  `json:"rel"`
	XName     string  `json:"x,omitempty"`
	YName     string  `json:"y,omitempty"`
	Held      bool    `json:"held"`
	Evaluator string  `json:"evaluator"`
	Timed     bool    `json:"timed,omitempty"` // EventRef.TimeNS fields are meaningful
	Witness   Witness `json:"witness"`
	// CriticalPath connects the witness pair (held verdicts) or the
	// knowledge frontier to the deciding event (violations with a partial
	// view); nil when no causal chain exists.
	CriticalPath *CriticalPath `json:"critical_path,omitempty"`
	Gap          *Gap          `json:"gap,omitempty"`
}

// ConditionExplanation explains a settled monitor condition atom by atom.
type ConditionExplanation struct {
	Version int            `json:"version"`
	Name    string         `json:"name"`
	Src     string         `json:"src"`
	State   string         `json:"state,omitempty"`
	Atoms   []*Explanation `json:"atoms"`
}

// Explainer derives explanations over one execution's analysis. Configure
// with the With* builders; safe for concurrent use afterwards.
type Explainer struct {
	a      *core.Analysis
	ev     core.WitnessEvaluator
	tm     *rt.Timing
	labels map[poset.EventID]string

	metExplanations *obs.Counter
}

// New returns an explainer using the paper's linear-time evaluator for
// witness capture.
func New(a *core.Analysis) *Explainer {
	return &Explainer{a: a, ev: core.NewFast(a)}
}

// WithEvaluator selects the witness-capturing evaluator (fast or proxy).
func (e *Explainer) WithEvaluator(ev core.WitnessEvaluator) *Explainer {
	e.ev = ev
	return e
}

// WithTiming attaches physical timestamps: event references gain TimeNS and
// critical-path hops gain latency attribution.
func (e *Explainer) WithTiming(tm *rt.Timing) *Explainer {
	e.tm = tm
	return e
}

// WithLabels attaches runtime event labels (e.g. "send→2") to references.
func (e *Explainer) WithLabels(labels map[poset.EventID]string) *Explainer {
	e.labels = labels
	return e
}

// Instrument attaches a metrics registry; the explainer counts each derived
// explanation under explain.explanations.
func (e *Explainer) Instrument(reg *obs.Registry) {
	if reg != nil {
		e.metExplanations = reg.Counter("explain.explanations")
	}
}

// ref converts an event to its serialized reference.
func (e *Explainer) ref(id poset.EventID) EventRef {
	r := EventRef{Proc: id.Proc, Pos: id.Pos}
	if e.labels != nil {
		r.Label = e.labels[id]
	}
	if e.tm != nil {
		r.TimeNS = e.tm.Of(id).Nanoseconds()
	}
	return r
}

// Relation explains the verdict of rel(x, y). xName/yName annotate the
// output (pass "" when unnamed). Overlapping pairs are rejected, matching
// EvalChecked semantics.
func (e *Explainer) Relation(rel core.Relation, x, y *interval.Interval, xName, yName string) (*Explanation, error) {
	if x.Overlaps(y) {
		return nil, &core.ErrOverlap{X: x, Y: y}
	}
	w := e.ev.EvalWitness(rel, x, y)
	return e.fromWitness(w, rel.String(), xName, yName), nil
}

// Rel32 explains the verdict of one member of ℛ — r.R over the L/U per-node
// proxies of x and y — reusing the analysis's proxy-cut cache.
func (e *Explainer) Rel32(r core.Rel32, x, y *interval.Interval, xName, yName string) (*Explanation, error) {
	px := e.a.ProxyCuts(x, r.PX).IV
	py := e.a.ProxyCuts(y, r.PY).IV
	if px.Overlaps(py) {
		return nil, &core.ErrOverlap{X: px, Y: py}
	}
	w := e.ev.EvalWitness(r.R, px, py)
	return e.fromWitness(w, r.String(), xName, yName), nil
}

// Condition explains every atom of a settled condition against the named
// intervals (all must be defined — explain settled conditions only). The
// caller fills State.
func (e *Explainer) Condition(c *monitor.Condition, intervals map[string]*interval.Interval) (*ConditionExplanation, error) {
	ce := &ConditionExplanation{Version: FormatVersion, Name: c.Name, Src: c.Src}
	lookup := func(name string) (*interval.Interval, bool) { iv, ok := intervals[name]; return iv, ok }
	for _, at := range monitor.Atoms(c.Expr) {
		x, err := at.X.Resolve(e.a, lookup)
		if err != nil {
			return nil, fmt.Errorf("explain: condition %q: %w", c.Name, err)
		}
		y, err := at.Y.Resolve(e.a, lookup)
		if err != nil {
			return nil, fmt.Errorf("explain: condition %q: %w", c.Name, err)
		}
		exp, err := e.Relation(at.Rel, x, y, at.X.String(), at.Y.String())
		if err != nil {
			return nil, fmt.Errorf("explain: condition %q atom %v: %w", c.Name, at, err)
		}
		exp.Expr = at.String()
		ce.Atoms = append(ce.Atoms, exp)
	}
	return ce, nil
}

// fromWitness serializes the witness and derives the causal annotations.
func (e *Explainer) fromWitness(w *core.Witness, relName, xName, yName string) *Explanation {
	exp := &Explanation{
		Version:   FormatVersion,
		Rel:       relName,
		XName:     xName,
		YName:     yName,
		Held:      w.Held,
		Evaluator: w.Evaluator,
		Timed:     e.tm != nil,
		Witness: Witness{
			XCut:         w.XCut,
			YCut:         w.YCut,
			Universal:    w.Universal,
			Decisive:     w.Decisive,
			XEvent:       e.ref(w.XEvent),
			YEvent:       e.ref(w.YEvent),
			PairPrecedes: w.PairPrecedes,
		},
	}
	for _, c := range w.Checks {
		exp.Witness.Checks = append(exp.Witness.Checks, Check{
			Node: c.Node, YNode: c.YNode, XVal: c.XVal, YVal: c.YVal, Pass: c.Pass,
			XEvent: e.ref(c.XEvent), YEvent: e.ref(c.YEvent),
		})
	}
	if w.PairPrecedes {
		exp.CriticalPath = e.criticalPath(w.XEvent, w.YEvent)
	} else {
		// Violation: report how far the deciding Y event's knowledge of
		// XEvent's node actually reached, and the chain that carried it.
		known := e.a.Clocks().T(w.YEvent)[w.XEvent.Proc]
		exp.Gap = &Gap{Node: w.XEvent.Proc, KnownPos: known, NeededPos: w.XEvent.Pos}
		if known >= 1 {
			exp.CriticalPath = e.criticalPath(poset.EventID{Proc: w.XEvent.Proc, Pos: known}, w.YEvent)
		}
	}
	e.metExplanations.Add(1)
	return exp
}

// criticalPath walks backwards from b to a through immediate predecessors
// (program-order step or incoming message), at each step following the
// predecessor that still dominates a — preferring the latest one on timed
// traces (the binding dependency) and the message edge otherwise. Returns
// nil unless a ⪯ b.
func (e *Explainer) criticalPath(a, b poset.EventID) *CriticalPath {
	clk := e.a.Clocks()
	ex := e.a.Execution()
	// A path from an event to itself carries no hops, hence no information.
	if a == b || !clk.PrecedesEq(a, b) {
		return nil
	}
	var hops []Hop
	cur := b
	for cur != a {
		var best poset.EventID
		var bestKind string
		have := false
		consider := func(p poset.EventID, kind string) {
			if !ex.IsReal(p) || !clk.PrecedesEq(a, p) {
				return
			}
			if !have {
				best, bestKind, have = p, kind, true
				return
			}
			if e.tm != nil && e.tm.Of(p) > e.tm.Of(best) {
				best, bestKind = p, kind
			}
		}
		// Message predecessors first: on untimed traces the message edge is
		// the informative hop, so it wins when both dominate a.
		for _, p := range ex.MsgPredecessors(cur) {
			consider(p, "message")
		}
		if cur.Pos > 1 {
			consider(poset.EventID{Proc: cur.Proc, Pos: cur.Pos - 1}, "local")
		}
		if !have {
			return nil // unreachable for a ≺ cur; defensive against corrupt posets
		}
		h := Hop{From: e.ref(best), To: e.ref(cur), Kind: bestKind}
		if e.tm != nil {
			h.LatencyNS = (e.tm.Of(cur) - e.tm.Of(best)).Nanoseconds()
		}
		hops = append(hops, h)
		cur = best
	}
	// Reverse into causal order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	cp := &CriticalPath{From: e.ref(a), To: e.ref(b), Hops: hops}
	for _, h := range hops {
		if h.Kind == "message" {
			cp.Messages++
		}
	}
	if e.tm != nil {
		cp.TotalNS = (e.tm.Of(b) - e.tm.Of(a)).Nanoseconds()
	}
	return cp
}

// WriteJSON writes the explanation as indented JSON.
func (x *Explanation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(x)
}

// ReadJSON decodes one explanation.
func ReadJSON(r io.Reader) (*Explanation, error) {
	var x Explanation
	if err := json.NewDecoder(r).Decode(&x); err != nil {
		return nil, fmt.Errorf("explain: decoding JSON: %w", err)
	}
	return &x, nil
}

// WriteJSON writes the condition explanation as indented JSON.
func (c *ConditionExplanation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadConditionJSON decodes one condition explanation.
func ReadConditionJSON(r io.Reader) (*ConditionExplanation, error) {
	var c ConditionExplanation
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("explain: decoding JSON: %w", err)
	}
	return &c, nil
}

// WriteText renders the operator-facing form, every line prefixed with
// indent:
//
//	witness: last(X) ≤ ∩⇓Y (fast, ∀-scan); decisive node 2: 5 ≤ 7 [p2:5 ≺ p1:4]
//	critical path: p2:5 ⤳ p1:4 — 3 hops, 1 message, 2.1ms
//	  p2:5 —local→ p2:6
//	  p2:6 —message→ p1:4
func (x *Explanation) WriteText(w io.Writer, indent string) {
	wt := &x.Witness
	scan := "∃-scan"
	if wt.Universal {
		scan = "∀-scan"
	}
	rel := "≺"
	if !wt.PairPrecedes {
		rel = "⊀"
	}
	decided := fmt.Sprintf("exhaustive over %d checks", len(wt.Checks))
	if wt.Decisive >= 0 && wt.Decisive < len(wt.Checks) {
		c := wt.Checks[wt.Decisive]
		op := "≤"
		if !c.Pass {
			op = ">"
		}
		decided = fmt.Sprintf("decisive node %d: %d %s %d", c.Node, c.XVal, op, c.YVal)
	}
	fmt.Fprintf(w, "%switness: %s ≤ %s (%s, %s); %s  [%v %s %v]\n",
		indent, wt.XCut, wt.YCut, x.Evaluator, scan, decided, wt.XEvent, rel, wt.YEvent)
	if x.Gap != nil {
		fmt.Fprintf(w, "%sgap: %v knows node %d only through position %d (needed %d)\n",
			indent, wt.YEvent, x.Gap.Node, x.Gap.KnownPos, x.Gap.NeededPos)
	}
	if cp := x.CriticalPath; cp != nil {
		total := ""
		if x.Timed {
			total = ", " + time.Duration(cp.TotalNS).String()
		}
		fmt.Fprintf(w, "%scritical path: %v ⤳ %v — %d hops, %d messages%s\n",
			indent, cp.From, cp.To, len(cp.Hops), cp.Messages, total)
		for _, h := range cp.Hops {
			lat := ""
			if x.Timed {
				lat = " (" + time.Duration(h.LatencyNS).String() + ")"
			}
			fmt.Fprintf(w, "%s  %v —%s→ %v%s\n", indent, h.From, h.Kind, h.To, lat)
		}
	}
}

// WriteText renders every atom of the condition explanation.
func (c *ConditionExplanation) WriteText(w io.Writer, indent string) {
	for _, at := range c.Atoms {
		verdict := "false"
		if at.Held {
			verdict = "true"
		}
		fmt.Fprintf(w, "%satom %s = %s\n", indent, at.Expr, verdict)
		at.WriteText(w, indent+"  ")
	}
}

// flowTS places an event reference on the trace timeline: physical
// microseconds on timed explanations, position × 1000 µs otherwise (1 ms
// per event slot renders readably in the viewer).
func flowTS(x *Explanation, r EventRef) float64 {
	if x.Timed {
		return float64(r.TimeNS) / 1e3
	}
	return float64(r.Pos) * 1000
}

// EmitFlows renders the explanation onto tr as Chrome trace_event flow
// arrows: one arrow per critical-path hop (category "explain.path"), a
// verdict arrow over the witness pair (category "explain.verdict"), and a
// thread-scoped instant at each witness event. Timelines (tid) are process
// IDs, matching the runtime's per-node lanes.
func EmitFlows(tr *obs.Tracer, x *Explanation) {
	if tr == nil || x == nil {
		return
	}
	verdict := "violated"
	if x.Held {
		verdict = "holds"
	}
	name := fmt.Sprintf("%s(%s, %s) %s", x.Rel, orUnnamed(x.XName, "X"), orUnnamed(x.YName, "Y"), verdict)
	// Positions on different processes are not comparable, so an untimed
	// arrow can come out backwards on the position timeline; the viewer
	// drops such arrows, so nudge the destination forward instead.
	flow := func(cat, name string, from, to EventRef) {
		fts, tts := flowTS(x, from), flowTS(x, to)
		if tts <= fts {
			tts = fts + 1
		}
		tr.Flow(cat, name, fts, int64(from.Proc), tts, int64(to.Proc))
	}
	wt := &x.Witness
	tr.InstantAt("explain.witness", wt.XCut+" @ "+wt.XEvent.String(), flowTS(x, wt.XEvent), int64(wt.XEvent.Proc))
	tr.InstantAt("explain.witness", wt.YCut+" @ "+wt.YEvent.String(), flowTS(x, wt.YEvent), int64(wt.YEvent.Proc))
	if cp := x.CriticalPath; cp != nil {
		for _, h := range cp.Hops {
			flow("explain.path", name+" ["+h.Kind+"]", h.From, h.To)
		}
	}
	if wt.PairPrecedes {
		flow("explain.verdict", name, wt.XEvent, wt.YEvent)
	}
}

// EmitConditionFlows renders every atom explanation.
func EmitConditionFlows(tr *obs.Tracer, c *ConditionExplanation) {
	if c == nil {
		return
	}
	for _, at := range c.Atoms {
		EmitFlows(tr, at)
	}
}

func orUnnamed(name, fallback string) string {
	if name == "" {
		return fallback
	}
	return name
}
