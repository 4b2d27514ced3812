package main

import (
	"fmt"

	"causet/internal/monitor"
	"causet/internal/poset"
)

// scriptOracle computes every condition's verdict with the offline monitor
// (monitor.New: a full vclock.New, no carry, no compaction) over the
// execution the script generates. To bound memory on long scripts it builds
// the execution in chunks of chunkRounds rounds, each extended by the
// longest reach of a condition. A chunk is a contiguous segment of the
// append order, and every causal path between two of its events runs
// through events appended between them, so causality among a chunk's events
// is exactly causality in the whole execution; a receive whose send lies
// before the chunk keeps no edge there. TestOracleChunking checks chunked
// against one whole-script build.
func scriptOracle(sc *script, chunkRounds int) ([]monitor.State, error) {
	type ev struct {
		id   poset.EventID
		from poset.EventID // Proc < 0: not a receive
	}
	rounds := make([][]ev, sc.rounds)
	counts := make([]int, sc.procs)
	for i := range sc.ops {
		o := &sc.ops[i]
		if o.kind != opSend && o.kind != opRecv {
			continue
		}
		counts[o.proc]++
		e := ev{id: poset.EventID{Proc: int(o.proc), Pos: counts[o.proc]}, from: poset.EventID{Proc: -1}}
		if o.kind == opRecv {
			e.from = poset.EventID{Proc: int(o.peer), Pos: int(o.pos)}
		}
		rounds[o.iv] = append(rounds[o.iv], e)
	}
	reach := int32(0)
	byFirst := make([][]int, sc.rounds)
	for c := range sc.condRound {
		reach = max(reach, sc.condRound[c]-sc.condFirst[c])
		byFirst[sc.condFirst[c]] = append(byFirst[sc.condFirst[c]], c)
	}

	out := make([]monitor.State, len(sc.condRound))
	offset := make([]int, sc.procs) // events of each process before the chunk
	counted := 0
	for lo := 0; lo < sc.rounds; lo += chunkRounds {
		hi := min(lo+chunkRounds+int(reach), sc.rounds)
		for ; counted < lo; counted++ {
			for _, e := range rounds[counted] {
				offset[e.id.Proc] = e.id.Pos
			}
		}
		local := func(e poset.EventID) poset.EventID {
			return poset.EventID{Proc: e.Proc, Pos: e.Pos - offset[e.Proc]}
		}
		b := poset.NewBuilder(sc.procs)
		for r := lo; r < hi; r++ {
			for _, e := range rounds[r] {
				id := b.Append(e.id.Proc)
				if id != local(e.id) {
					return nil, fmt.Errorf("oracle: event %v rebuilt as %v", e.id, id)
				}
				if e.from.Proc >= 0 && e.from.Pos > offset[e.from.Proc] {
					if err := b.Message(local(e.from), id); err != nil {
						return nil, err
					}
				}
			}
		}
		ex, err := b.Build()
		if err != nil {
			return nil, err
		}
		m := monitor.New(ex)
		for r := lo; r < hi; r++ {
			evs := make([]poset.EventID, len(rounds[r]))
			for i, e := range rounds[r] {
				evs[i] = local(e.id)
			}
			if err := m.Define(sc.intervals.at(int32(r)), evs); err != nil {
				return nil, err
			}
		}
		var conds []int
		for r := lo; r < min(lo+chunkRounds, sc.rounds); r++ {
			conds = append(conds, byFirst[r]...)
		}
		for _, c := range conds {
			if err := m.AddCondition(sc.condNames.at(int32(c)), sc.condSrc.at(int32(c))); err != nil {
				return nil, err
			}
		}
		for k, res := range m.Check() {
			if res.State != monitor.Holds && res.State != monitor.Violated {
				return nil, fmt.Errorf("oracle: %s is %s: %v", res.Name, res.State, res.Err)
			}
			out[conds[k]] = res.State
		}
	}
	return out, nil
}
