package poset_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"causet/internal/poset"
	"causet/internal/poset/posettest"
	"causet/internal/sim"
)

// adjacencyCases returns executions from every sim pattern, posettest's
// random executions and random DAGs, named for failure messages.
func adjacencyCases(t *testing.T) map[string]*poset.Execution {
	t.Helper()
	cases := map[string]*poset.Execution{}
	for _, pat := range sim.Patterns() {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 2 + int(seed), Rounds: 4, Events: 40, Seed: seed})
			if err != nil {
				t.Fatalf("%v: %v", pat, err)
			}
			cases[fmt.Sprintf("%v/seed=%d", pat, seed)] = res.Exec
		}
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		cases[fmt.Sprintf("posettest/%d", trial)] = posettest.Random(r, 2+r.Intn(5), r.Intn(60), 0.5)
		cases[fmt.Sprintf("dag/%d", trial)] = posettest.RandomDAG(r, 2+r.Intn(5), 1+r.Intn(60), r.Intn(80)).MustBuild()
	}
	return cases
}

// TestMessageAdjacencyMatchesMessages checks MsgSuccessors and
// MsgPredecessors against maps built from Messages(), for every event,
// dummies included, and for IDs outside the execution.
func TestMessageAdjacencyMatchesMessages(t *testing.T) {
	for name, ex := range adjacencyCases(t) {
		out := map[poset.EventID][]poset.EventID{}
		in := map[poset.EventID][]poset.EventID{}
		for _, m := range ex.Messages() {
			out[m.From] = append(out[m.From], m.To)
			in[m.To] = append(in[m.To], m.From)
		}
		events := append(ex.AllEvents(),
			poset.EventID{Proc: -1, Pos: 1},
			poset.EventID{Proc: ex.NumProcs(), Pos: 1},
			poset.EventID{Proc: 0, Pos: -1},
			poset.EventID{Proc: 0, Pos: ex.TopPos(0) + 1},
		)
		for _, e := range events {
			if got := ex.MsgSuccessors(e); !reflect.DeepEqual(got, out[e]) {
				t.Fatalf("%s: MsgSuccessors(%v) = %v, want %v", name, e, got, out[e])
			}
			if got := ex.MsgPredecessors(e); !reflect.DeepEqual(got, in[e]) {
				t.Fatalf("%s: MsgPredecessors(%v) = %v, want %v", name, e, got, in[e])
			}
		}
	}
}

// TestLinearExtensionOrdersEveryEdge checks that LinearExtension lists
// every real event once, places every program-order and message edge
// forward, and returns the same order on every call.
func TestLinearExtensionOrdersEveryEdge(t *testing.T) {
	for name, ex := range adjacencyCases(t) {
		order := ex.LinearExtension()
		if len(order) != ex.NumEvents() {
			t.Fatalf("%s: %d events in the order, want %d", name, len(order), ex.NumEvents())
		}
		rank := make(map[poset.EventID]int, len(order))
		for i, e := range order {
			if !ex.IsReal(e) {
				t.Fatalf("%s: order holds %v, not a real event", name, e)
			}
			if _, dup := rank[e]; dup {
				t.Fatalf("%s: %v listed twice", name, e)
			}
			rank[e] = i
		}
		for _, e := range ex.RealEvents() {
			if e.Pos > 1 && rank[poset.EventID{Proc: e.Proc, Pos: e.Pos - 1}] >= rank[e] {
				t.Fatalf("%s: program-order edge into %v placed backward", name, e)
			}
		}
		for _, m := range ex.Messages() {
			if rank[m.From] >= rank[m.To] {
				t.Fatalf("%s: message %v -> %v placed backward", name, m.From, m.To)
			}
		}
		if again := ex.LinearExtension(); !slices.Equal(again, order) {
			t.Fatalf("%s: a second call returned a different order", name)
		}
	}
}

// TestBuildRejectsCyclesInRandomDAGs closes a cycle in random DAGs by
// answering one message with one back to its sender.
func TestBuildRejectsCyclesInRandomDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		b := posettest.RandomDAG(r, 2+r.Intn(4), 2+r.Intn(40), 1+r.Intn(40))
		ex, err := b.Build()
		if err != nil {
			t.Fatalf("trial %d: acyclic DAG rejected: %v", trial, err)
		}
		msgs := ex.Messages()
		if len(msgs) == 0 {
			continue
		}
		m := msgs[r.Intn(len(msgs))]
		if err := b.Message(m.To, m.From); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(); !errors.Is(err, poset.ErrCausalCycle) {
			t.Fatalf("trial %d: Build after %v -> %v: err = %v, want ErrCausalCycle", trial, m.To, m.From, err)
		}
	}
}

// TestAdjacencyConcurrentFirstUse has several goroutines race to build a
// view's adjacency, which View leaves to first use (run it under -race);
// each must see the arrays complete.
func TestAdjacencyConcurrentFirstUse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := poset.NewBuilder(6)
	for i := 0; i < 300; i++ {
		if p, q := r.Intn(6), r.Intn(6); p == q {
			b.Append(p)
		} else if _, _, err := b.SendRecv(p, q); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	want := b.MustBuild()
	order := want.LinearExtension()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range fresh.AllEvents() {
				if got := fresh.MsgSuccessors(e); !slices.Equal(got, want.MsgSuccessors(e)) {
					t.Errorf("MsgSuccessors(%v) = %v, want %v", e, got, want.MsgSuccessors(e))
					return
				}
				if got := fresh.MsgPredecessors(e); !slices.Equal(got, want.MsgPredecessors(e)) {
					t.Errorf("MsgPredecessors(%v) = %v, want %v", e, got, want.MsgPredecessors(e))
					return
				}
			}
			if !slices.Equal(fresh.LinearExtension(), order) {
				t.Error("LinearExtension of the view differs from the build's")
			}
		}()
	}
	wg.Wait()
}
