package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/poset"
)

// State classifies a condition's status at a Check.
type State int

const (
	// Pending: the condition references intervals not yet defined.
	Pending State = iota
	// Holds: the condition evaluated to true.
	Holds
	// Violated: the condition evaluated to false.
	Violated
	// Failed: evaluation errored (e.g. overlapping operands).
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Holds:
		return "holds"
	case Violated:
		return "violated"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Result is the outcome of checking one condition.
type Result struct {
	Name  string
	State State
	Err   error // non-nil iff State == Failed
}

// Condition is a named, parsed synchronization condition.
type Condition struct {
	Name string
	Src  string
	Expr Expr

	refs []string // Referenced(Expr), computed once by NewCondition
}

// NewCondition makes a condition and computes its referenced intervals
// once, so the readiness, settlement and latency paths that consult them on
// every verdict share one list instead of rebuilding it per call.
func NewCondition(name, src string, expr Expr) *Condition {
	return &Condition{Name: name, Src: src, Expr: expr, refs: Referenced(expr)}
}

// Refs returns the sorted interval names the condition references. The
// slice is shared; callers must not modify it. A Condition not made by
// NewCondition recomputes the list on every call.
func (c *Condition) Refs() []string {
	if c.refs == nil {
		return Referenced(c.Expr)
	}
	return c.refs
}

// Monitor evaluates synchronization conditions over the nonatomic events of
// one execution. Intervals may be registered incrementally (e.g. as an
// online application completes its high-level activities); Check reports
// each condition as pending until every interval it references is defined.
//
// A Monitor is safe for concurrent use.
type Monitor struct {
	mu         sync.RWMutex
	a          *core.Analysis
	intervals  map[string]*interval.Interval
	conditions []*Condition
}

// New creates a monitor over ex using the paper's linear-time evaluator.
func New(ex *poset.Execution) *Monitor {
	return &Monitor{a: core.NewAnalysis(ex), intervals: make(map[string]*interval.Interval)}
}

// Analysis exposes the underlying analysis (timestamps, cut caches).
func (m *Monitor) Analysis() *core.Analysis { return m.a }

// Define registers the named nonatomic event from raw member events.
// Redefining a name is an error (conditions may already have been checked
// against the old value).
func (m *Monitor) Define(name string, events []poset.EventID) error {
	iv, err := interval.New(m.a.Execution(), events)
	if err != nil {
		return fmt.Errorf("monitor: interval %q: %w", name, err)
	}
	return m.DefineInterval(name, iv)
}

// DefineInterval registers an already-constructed interval under name.
func (m *Monitor) DefineInterval(name string, iv *interval.Interval) error {
	if name == "" {
		return errors.New("monitor: interval name must be non-empty")
	}
	if !poset.Prefix(iv.Execution(), m.a.Execution()) {
		return fmt.Errorf("monitor: interval %q belongs to a different execution", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.intervals[name]; dup {
		return fmt.Errorf("monitor: interval %q already defined", name)
	}
	m.intervals[name] = iv
	return nil
}

// Interval returns a registered interval.
func (m *Monitor) Interval(name string) (*interval.Interval, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	iv, ok := m.intervals[name]
	return iv, ok
}

// IntervalNames returns the sorted names of the registered intervals.
func (m *Monitor) IntervalNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.intervals))
	for name := range m.intervals {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddCondition parses src and registers it under name.
func (m *Monitor) AddCondition(name, src string) error {
	expr, err := Parse(src)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conditions {
		if c.Name == name {
			return fmt.Errorf("monitor: condition %q already defined", name)
		}
	}
	m.conditions = append(m.conditions, NewCondition(name, src, expr))
	return nil
}

// Conditions returns the registered conditions in registration order.
func (m *Monitor) Conditions() []*Condition {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]*Condition(nil), m.conditions...)
}

// Check evaluates every registered condition and returns one result per
// condition, in registration order.
func (m *Monitor) Check() []Result {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Result, 0, len(m.conditions))
	for _, c := range m.conditions {
		out = append(out, Evaluate(c, m.a, m.lookup))
	}
	return out
}

// lookup resolves a name against the registered intervals. The caller holds
// m.mu.
func (m *Monitor) lookup(name string) (*interval.Interval, bool) {
	iv, ok := m.intervals[name]
	return iv, ok
}

// Evaluate decides the condition c over the analysis a, resolving the
// interval names it references through lookup: Pending while lookup misses
// one of them, Failed when evaluation errors (e.g. overlapping operands),
// Holds or Violated otherwise. It is the one evaluation path of both the
// offline Monitor.Check and the online monitor's check loop.
func Evaluate(c *Condition, a *core.Analysis, lookup func(name string) (*interval.Interval, bool)) Result {
	for _, name := range c.Refs() {
		if _, ok := lookup(name); !ok {
			return Result{Name: c.Name, State: Pending}
		}
	}
	held, err := c.Expr.eval(&evalEnv{a: a, eval: core.NewFast(a), lookup: lookup})
	switch {
	case err != nil:
		return Result{Name: c.Name, State: Failed, Err: err}
	case held:
		return Result{Name: c.Name, State: Holds}
	default:
		return Result{Name: c.Name, State: Violated}
	}
}

// Eval parses and evaluates a one-shot expression against the registered
// intervals. Unlike Check it fails (rather than reporting pending) on
// undefined intervals.
func (m *Monitor) Eval(src string) (bool, error) {
	expr, err := Parse(src)
	if err != nil {
		return false, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return expr.eval(&evalEnv{a: m.a, eval: core.NewFast(m.a), lookup: m.lookup})
}

// HeldTable1 reports which of the 8 Table 1 relations hold between two
// registered intervals, in core.Relations order. It replaces the old pattern
// of formatting and re-parsing one DSL expression per relation.
func (m *Monitor) HeldTable1(xName, yName string) ([]core.Relation, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x, ok := m.intervals[xName]
	if !ok {
		return nil, &UndefinedError{Name: xName}
	}
	y, ok := m.intervals[yName]
	if !ok {
		return nil, &UndefinedError{Name: yName}
	}
	eval := core.NewFast(m.a)
	var held []core.Relation
	for _, rel := range core.Relations() {
		ok, err := m.a.EvalChecked(eval, rel, x, y)
		if err != nil {
			return nil, err
		}
		if ok {
			held = append(held, rel)
		}
	}
	return held, nil
}

// HoldingRelations reports which of the 32 relations of ℛ hold between two
// registered intervals — Problem 4(ii) as a monitor query.
func (m *Monitor) HoldingRelations(xName, yName string) ([]core.Rel32, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x, ok := m.intervals[xName]
	if !ok {
		return nil, &UndefinedError{Name: xName}
	}
	y, ok := m.intervals[yName]
	if !ok {
		return nil, &UndefinedError{Name: yName}
	}
	if x.Overlaps(y) {
		return nil, &core.ErrOverlap{X: x, Y: y}
	}
	return m.a.HoldingRel32(core.NewFast(m.a), x, y), nil
}
