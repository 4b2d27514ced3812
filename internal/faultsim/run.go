package faultsim

import (
	"fmt"

	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/runtime"
	"causet/internal/trace"
)

// Protocol names a runnable distributed protocol from internal/runtime.
type Protocol string

const (
	Mutex    Protocol = "mutex"    // Ricart–Agrawala mutual exclusion
	Election Protocol = "election" // Chang–Roberts ring election
	TwoPhase Protocol = "twophase" // two-phase commit (node 0 coordinates)
)

// Config selects a protocol run to put under the fault schedule.
type Config struct {
	Protocol Protocol
	Nodes    int // total nodes (twophase: participants + the coordinator)
	Rounds   int // mutex entries per node / election reruns (=1) / 2PC transactions
	// ProtoSeed feeds the protocol's own randomness (election identifier
	// permutation, 2PC vote coin flips), independent of the fault seed.
	ProtoSeed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Protocol {
	case Mutex, Election, TwoPhase:
	default:
		return fmt.Errorf("faultsim: unknown protocol %q (want mutex, election, or twophase)", c.Protocol)
	}
	if c.Nodes < 2 {
		return fmt.Errorf("faultsim: %d nodes; every protocol needs ≥ 2", c.Nodes)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("faultsim: %d rounds; need ≥ 1", c.Rounds)
	}
	return nil
}

// Result is one simulated run: the recorded poset, its labels, the named
// protocol-level intervals (nonatomic events: critical sections, vote/decide
// /apply groups, candidacy/win/learn groups), and the fault statistics.
type Result struct {
	Exec      *poset.Execution
	Labels    map[poset.EventID]string
	Intervals map[string][]poset.EventID
	Stats     Stats
}

// TraceFile packages the run as a self-describing trace file (canonical
// form: built by trace.New, so two byte-identical runs serialize to
// byte-identical JSON).
func (r *Result) TraceFile() *trace.File {
	return trace.New(r.Exec, r.Intervals)
}

// Run executes cfg under the fault plan with the given simulation seed and
// returns the recorded result. reg and tr (either may be nil) receive the
// faultsim.* counters and partition spans alongside the usual runtime
// instrumentation. The returned result is a deterministic function of
// (cfg, seed, plan).
func Run(cfg Config, seed int64, plan FaultPlan, reg *obs.Registry, tr *obs.Tracer) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(cfg.Nodes); err != nil {
		return nil, err
	}
	sys := runtime.NewSystem(cfg.Nodes, 1) // inboxes unused: the sim transports
	sys.Instrument(reg, tr)
	sim := newSim(cfg.Nodes, seed, plan, reg, tr)
	sim.Attach(sys)
	go sim.schedule()

	res := &Result{Intervals: make(map[string][]poset.EventID)}
	var err error
	switch cfg.Protocol {
	case Mutex:
		var mr *runtime.MutexResult
		mr, err = runtime.RunMutexOn(sys, cfg.Rounds)
		if err == nil {
			res.Exec, res.Labels = mr.Exec, mr.Labels
			perNode := make(map[int]int)
			for _, sec := range mr.Sections {
				k := perNode[sec.Node]
				perNode[sec.Node]++
				addInterval(res, fmt.Sprintf("cs-n%d-e%d", sec.Node, k), sec.Enter, sec.Exit)
			}
		}
	case Election:
		var er *runtime.ElectionResult
		er, err = runtime.RunElectionOn(sys, cfg.ProtoSeed)
		if err == nil {
			res.Exec, res.Labels = er.Exec, er.Labels
			addInterval(res, "candidacy", er.Candidacies...)
			addInterval(res, "win", er.Win)
			addInterval(res, "learn", er.Learns...)
		}
	case TwoPhase:
		var tr2 *runtime.TwoPhaseResult
		tr2, err = runtime.RunTwoPhaseCommitOn(sys, cfg.Rounds, 0.8, cfg.ProtoSeed)
		if err == nil {
			res.Exec, res.Labels = tr2.Exec, tr2.Labels
			for _, txn := range tr2.Txns {
				addInterval(res, fmt.Sprintf("vote-%d", txn.Txn), txn.Votes...)
				addInterval(res, fmt.Sprintf("decide-%d", txn.Txn), txn.Decide)
				addInterval(res, fmt.Sprintf("apply-%d", txn.Txn), txn.Applies...)
			}
		}
	}
	<-sim.schedDone // the trace and stats are final only after the scheduler exits
	if err != nil {
		return nil, err
	}
	res.Stats = sim.stats
	return res, nil
}

// addInterval records a named event group, dropping zero EventIDs (events a
// crashed/killed node never reached — EventID{} is never a real event) and
// omitting groups that end up empty.
func addInterval(res *Result, name string, events ...poset.EventID) {
	var kept []poset.EventID
	seen := make(map[poset.EventID]bool)
	for _, e := range events {
		if (e != poset.EventID{}) && !seen[e] {
			seen[e] = true
			kept = append(kept, e)
		}
	}
	if len(kept) > 0 {
		res.Intervals[name] = kept
	}
}

// TraceFromSpec runs the chaos spec (see ParseSpec) and returns the
// resulting trace file — the engine behind relcheck's -faults flag (syncmon
// calls ParseSpec and Run itself, to keep the run's labels). reg and tr may
// be nil.
func TraceFromSpec(spec string, reg *obs.Registry, tr *obs.Tracer) (*trace.File, error) {
	cfg, seed, plan, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	res, err := Run(cfg, seed, plan, reg, tr)
	if err != nil {
		return nil, err
	}
	return res.TraceFile(), nil
}
