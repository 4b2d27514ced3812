// Package causet is a library for specifying and efficiently testing
// synchronization conditions between nonatomic events of distributed
// real-time applications. It implements, from scratch, the system of
//
//	A. D. Kshemkalyani, "Testing of Synchronization Conditions for
//	Distributed Real-Time Applications", IPPS/SPDP 1998,
//
// including the poset execution model, forward and reverse vector
// timestamps, execution cuts and the ≪ relation, the condensed cuts
// ∩⇓/∪⇓/∩⇑/∪⇑ of a nonatomic event, and the paper's linear-time evaluation
// conditions for the 8 causality relations of its Table 1 (and the derived
// 32-relation set ℛ over interval proxies), alongside the |X|·|Y| and
// |N_X|·|N_Y| baselines it improves on.
//
// # Typical use
//
//	b := causet.NewBuilder(3)          // 3 processes
//	x1 := b.Append(0)                  // events and message edges
//	y1 := b.Append(1)
//	_ = b.Message(x1, y1)
//	ex, _ := b.Build()
//
//	a := causet.NewAnalysis(ex)        // one-time timestamp structure
//	fast := causet.NewFast(a)          // Theorem 20 evaluator
//	x, _ := causet.NewInterval(ex, []causet.EventID{x1})
//	y, _ := causet.NewInterval(ex, []causet.EventID{y1})
//	held, _ := a.EvalChecked(fast, causet.R1, x, y)
//
// or, at the application level, the condition monitor:
//
//	m := causet.NewMonitor(ex)
//	_ = m.Define("detect", []causet.EventID{x1})
//	_ = m.Define("engage", []causet.EventID{y1})
//	_ = m.AddCondition("safe", "R1(detect, engage)")
//	results := m.Check()
//
// The facade re-exports the implementation packages; see the doc comments on
// the individual types for the underlying definitions and theorems.
package causet

import (
	"time"

	"causet/internal/batch"
	"causet/internal/core"
	"causet/internal/cuts"
	"causet/internal/detect"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/knowledge"
	"causet/internal/monitor"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/render"
	"causet/internal/rt"
	"causet/internal/runtime"
	"causet/internal/sim"
	"causet/internal/trace"
	"causet/internal/vclock"
)

// Event-structure model (internal/poset): the poset (E, ≺) of a distributed
// computation, built from per-process event sequences and message edges.
type (
	// EventID identifies an event by (process, position); position 0 is ⊥.
	EventID = poset.EventID
	// Message is a causal send→receive edge.
	Message = poset.Message
	// Execution is an immutable distributed computation (E, ≺).
	Execution = poset.Execution
	// Builder incrementally constructs an Execution.
	Builder = poset.Builder
)

// NewBuilder returns a Builder for an execution with procs processes.
func NewBuilder(procs int) *Builder { return poset.NewBuilder(procs) }

// Timestamps (internal/vclock): Definitions 13–14 of the paper.
type (
	// VC is a vector timestamp.
	VC = vclock.VC
	// Clocks holds the forward timestamps T(e) and reverse timestamps
	// T^R(e) of every event of an execution.
	Clocks = vclock.Clocks
)

// NewClocks computes forward and reverse vector timestamps for ex.
func NewClocks(ex *Execution) *Clocks { return vclock.New(ex) }

// Cuts (internal/cuts): execution prefixes, their surfaces, and the ≪
// relation (Definitions 5–9 and Theorem 19 of the paper).
type (
	// Cut is an execution prefix as a per-node frontier vector.
	Cut = cuts.Cut
)

// Nonatomic events (internal/interval).
type (
	// Interval is a nonatomic poset event: a set of real atomic events.
	Interval = interval.Interval
	// ProxyKind selects the beginning (L) or end (U) proxy of an interval.
	ProxyKind = interval.ProxyKind
	// ProxyDef selects the proxy definition (per-node or global).
	ProxyDef = interval.ProxyDef
)

// Proxy selectors and definitions (Definitions 2–3 of the paper).
const (
	ProxyL     = interval.ProxyL
	ProxyU     = interval.ProxyU
	DefPerNode = interval.DefPerNode
	DefGlobal  = interval.DefGlobal
)

// NewInterval validates and constructs a nonatomic event over ex.
func NewInterval(ex *Execution, events []EventID) (*Interval, error) {
	return interval.New(ex, events)
}

// Relations and evaluators (internal/core): the paper's contribution.
type (
	// Relation enumerates the 8 causality relations of Table 1.
	Relation = core.Relation
	// Rel32 is a member of the full 32-relation set ℛ (a Table 1 relation
	// over a choice of proxies).
	Rel32 = core.Rel32
	// Analysis is the per-execution timestamp structure and cut cache.
	Analysis = core.Analysis
	// Evaluator decides relations between nonatomic events; implementations
	// are NewNaive (definitions), NewProxy (|N_X|·|N_Y| baseline), and
	// NewFast (the paper's linear-time conditions).
	Evaluator = core.Evaluator
	// ErrOverlap is returned for overlapping interval pairs.
	ErrOverlap = core.ErrOverlap
)

// The 8 relations of Table 1. R1/R1' and R4/R4' are equivalent predicates;
// R2/R2' and R3/R3' differ on posets.
const (
	R1      = core.R1
	R1Prime = core.R1Prime
	R2      = core.R2
	R2Prime = core.R2Prime
	R3      = core.R3
	R3Prime = core.R3Prime
	R4      = core.R4
	R4Prime = core.R4Prime
)

// Relations returns all eight relations in Table 1 order.
func Relations() []Relation { return core.Relations() }

// ParseRelation parses a relation name such as "R2'", "r3prime", or "R4p".
func ParseRelation(s string) (Relation, error) { return core.ParseRelation(s) }

// AllRel32 returns the 32 relations of ℛ.
func AllRel32() []Rel32 { return core.AllRel32() }

// ParseRel32 parses e.g. "R2'(L,U)".
func ParseRel32(s string) (Rel32, error) { return core.ParseRel32(s) }

// NewAnalysis computes the one-time timestamp structure for ex (Key Idea 1:
// the per-interval cuts it caches are reused across evaluations).
func NewAnalysis(ex *Execution) *Analysis { return core.NewAnalysis(ex) }

// NewNaive returns the definition-based evaluator (up to |X|·|Y| checks).
func NewNaive(a *Analysis) Evaluator { return core.NewNaive(a) }

// NewProxy returns the prior-work baseline (up to |N_X|·|N_Y| checks).
func NewProxy(a *Analysis) Evaluator { return core.NewProxy(a) }

// NewFast returns the paper's linear-time evaluator (Theorem 20: at most
// min(|N_X|,|N_Y|), |N_X|, or |N_Y| comparisons depending on the relation).
func NewFast(a *Analysis) Evaluator { return core.NewFast(a) }

// Condition monitoring (internal/monitor): the application-facing DSL and
// monitor for the paper's Problem 4.
type (
	// Monitor evaluates named synchronization conditions over intervals.
	Monitor = monitor.Monitor
	// Expr is a parsed condition expression.
	Expr = monitor.Expr
	// MonitorResult is the outcome of checking one condition.
	MonitorResult = monitor.Result
	// MonitorState classifies a condition check outcome.
	MonitorState = monitor.State
)

// Monitor condition states.
const (
	StatePending  = monitor.Pending
	StateHolds    = monitor.Holds
	StateViolated = monitor.Violated
	StateFailed   = monitor.Failed
)

// NewMonitor creates a condition monitor over ex using the fast evaluator.
func NewMonitor(ex *Execution) *Monitor { return monitor.New(ex) }

// ParseCondition parses a condition expression in the monitor DSL, e.g.
// "R2'(track, engage) && !R4(engage, detect)".
func ParseCondition(src string) (Expr, error) { return monitor.Parse(src) }

// Workload generation (internal/sim) and trace persistence (internal/trace).
type (
	// WorkloadConfig parameterizes a synthetic workload.
	WorkloadConfig = sim.Config
	// WorkloadPattern selects a workload shape.
	WorkloadPattern = sim.Pattern
	// Workload is a generated execution plus its pattern-level phases.
	Workload = sim.Result
	// TraceFile is the serializable form of an execution and its named
	// nonatomic events (JSON or gob).
	TraceFile = trace.File
)

// Workload patterns.
const (
	PatternRandom       = sim.Random
	PatternRing         = sim.Ring
	PatternClientServer = sim.ClientServer
	PatternBroadcast    = sim.Broadcast
	PatternPipeline     = sim.Pipeline
	PatternGossip       = sim.Gossip
	PatternPeriodic     = sim.Periodic
	PatternBarrier      = sim.Barrier
)

// GenerateWorkload builds the configured synthetic execution.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) { return sim.Generate(cfg) }

// NewTraceFile converts an execution and named intervals to serializable
// form; LoadTrace reads one back (.json or .gob by extension).
func NewTraceFile(ex *Execution, named map[string][]EventID) *TraceFile {
	return trace.New(ex, named)
}

// LoadTrace reads a trace file saved with TraceFile.Save.
func LoadTrace(path string) (*TraceFile, error) { return trace.Load(path) }

// Live runtime (internal/runtime) and rendering (internal/render).
type (
	// System is a live goroutine-based message-passing system whose runs
	// are recorded as executions.
	System = runtime.System
	// Node is the per-goroutine application handle of a System.
	Node = runtime.Node
	// Diagram renders ASCII space-time diagrams with cut overlays.
	Diagram = render.Diagram
)

// NewSystem creates a live system of n nodes with the given inbox capacity.
func NewSystem(n, inboxCap int) *System { return runtime.NewSystem(n, inboxCap) }

// NewDiagram creates an empty space-time diagram for ex.
func NewDiagram(ex *Execution) *Diagram { return render.New(ex) }

// Relation algebra (internal/hierarchy): the implication lattice of the
// relations and the composition (relative-transitivity) table.
type (
	// PairMatrix reports the hierarchy-maximal relations between every
	// ordered pair of a family of intervals.
	PairMatrix = hierarchy.PairMatrix
	// PairCell is one entry of a PairMatrix.
	PairCell = hierarchy.Cell
)

// Implies reports whether r(X,Y) ⇒ s(X,Y) for all executions and intervals.
func Implies(r, s Relation) bool { return hierarchy.Implies(r, s) }

// Converse returns the relation equivalent to r under time reversal with
// swapped operands (R2 ↔ R3', R2' ↔ R3; R1, R4 self-converse).
func Converse(r Relation) Relation { return hierarchy.Converse(r) }

// Compose returns the strongest relation guaranteed between X and Z given
// r(X,Y) and s(Y,Z); ok is false when nothing — not even R4 — follows.
func Compose(r, s Relation) (Relation, bool) { return hierarchy.Compose(r, s) }

// StrongestRelations filters a set of held relations down to its
// hierarchy-maximal elements.
func StrongestRelations(held []Relation) []Relation { return hierarchy.Strongest(held) }

// Summarize builds the strongest-relation matrix over a family of named
// intervals — the paper's Problem 4(ii) at application scale — on one
// inline worker of the batch engine.
func Summarize(a *Analysis, eval Evaluator, names []string, ivs []*Interval) (*PairMatrix, error) {
	eng := batch.New(a, batch.Options{Workers: 1, NewEvaluator: func(*Analysis) Evaluator { return eval }})
	pm, _, err := eng.Matrix(names, ivs)
	return pm, err
}

// Online detection (internal/online): incremental vector clocks plus a
// monitor whose verdicts are final as soon as they are first computable
// (verdict stability; see the online package documentation).
type (
	// Stream is an execution under construction with online clocks.
	Stream = online.Stream
	// StreamSnapshot is a frozen prefix of a Stream with full analysis.
	StreamSnapshot = online.Snapshot
	// OnlineMonitor grows nonatomic events as their members are observed
	// and settles conditions as soon as they become evaluable.
	OnlineMonitor = online.Monitor
)

// NewStream starts an empty online execution over procs processes.
func NewStream(procs int) *Stream { return online.NewStream(procs) }

// NewOnlineMonitor creates an online condition monitor over the stream.
func NewOnlineMonitor(s *Stream) *OnlineMonitor { return online.NewMonitor(s) }

// ReverseExecution returns the time-reversed execution (a ≺ b iff their
// mirrored images satisfy b' ≺ a'); ReverseEventID maps events into it.
func ReverseExecution(ex *Execution) *Execution { return poset.Reverse(ex) }

// ReverseEventID maps an event of ex to its mirror in ReverseExecution(ex).
func ReverseEventID(ex *Execution, e EventID) EventID { return poset.ReverseID(ex, e) }

// Knowledge-theoretic queries (internal/knowledge): §2.2's reading of the
// condensed cuts, after Chandy & Misra.

// Knows reports K_e(Φ_C): the prefix C lies entirely in e's causal past.
func Knows(clk *Clocks, e EventID, c Cut) bool { return knowledge.Knows(clk, e, c) }

// CommonKnowledgePrefix returns ∩⇓X, the largest prefix every member of the
// interval knows.
func CommonKnowledgePrefix(clk *Clocks, x *Interval) Cut {
	return knowledge.CommonPrefix(clk, x)
}

// CollectiveKnowledgePrefix returns ∪⇓X, the largest prefix the interval's
// members know collectively.
func CollectiveKnowledgePrefix(clk *Clocks, x *Interval) Cut {
	return knowledge.CollectivePrefix(clk, x)
}

// FirstLearners returns, per node, the earliest event that knows some
// member of X (the real surface of ∩⇑X).
func FirstLearners(clk *Clocks, x *Interval) []EventID {
	return knowledge.FirstLearners(clk, x)
}

// FullLearners returns, per node, the earliest event that knows every
// member of X (the real surface of ∪⇑X).
func FullLearners(clk *Clocks, x *Interval) []EventID {
	return knowledge.FullLearners(clk, x)
}

// Global-predicate detection (internal/detect): Possibly/Definitely over
// the lattice of consistent global states (Cooper–Marzullo), bridged to the
// relations by R1(X,Y) ⟺ Definitely(AllDone(X) ∧ NoneStarted(Y)) and
// ¬R4(Y,X) ⟺ Possibly(AllDone(X) ∧ NoneStarted(Y)).
type (
	// Detector walks the lattice of consistent global states.
	Detector = detect.Detector
	// StatePredicate evaluates one global state (a frontier vector).
	StatePredicate = detect.Predicate
)

// NewDetector creates a lattice walker with the given state budget
// (≤ 0 selects the default).
func NewDetector(ex *Execution, budget int) *Detector { return detect.New(ex, budget) }

// AllDone is satisfied when every event of the interval has executed.
func AllDone(x *Interval) StatePredicate { return detect.AllDone(x) }

// NoneStarted is satisfied while no event of the interval has executed.
func NoneStarted(x *Interval) StatePredicate { return detect.NoneStarted(x) }

// AndStates conjoins state predicates.
func AndStates(preds ...StatePredicate) StatePredicate { return detect.And(preds...) }

// Physical time (internal/rt): causality-consistent wall-clock timestamps
// and the timing queries real-time contracts combine with the relations
// (spans, gaps, response-time deadlines).
type (
	// Timing assigns a physical timestamp to every real event.
	Timing = rt.Timing
	// TimingConfig parameterizes synthetic timestamp generation.
	TimingConfig = rt.SynthesizeConfig
)

// NewTiming validates per-event timestamps against ex.
func NewTiming(ex *Execution, times [][]time.Duration) (*Timing, error) {
	return rt.New(ex, times)
}

// SynthesizeTiming generates causality-consistent timestamps for ex.
func SynthesizeTiming(ex *Execution, cfg TimingConfig) *Timing {
	return rt.Synthesize(ex, cfg)
}
