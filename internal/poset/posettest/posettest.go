// Package posettest provides shared helpers for constructing executions in
// tests: seeded random executions (valid by construction) and the fixed
// fixtures used to reproduce the paper's figures.
package posettest

import (
	"math/rand"

	"causet/internal/poset"
)

// Random builds a random, valid execution with the given number of processes
// and real events. Each new event is either internal or the receive of a
// message from the most recent event of another process (probability
// msgProb), which guarantees acyclicity by construction. The generator is
// deterministic for a given *rand.Rand state.
func Random(r *rand.Rand, procs, events int, msgProb float64) *poset.Execution {
	b := poset.NewBuilder(procs)
	lastOn := make([]poset.EventID, procs)
	for i := 0; i < events; i++ {
		p := r.Intn(procs)
		if procs > 1 && r.Float64() < msgProb {
			q := r.Intn(procs - 1)
			if q >= p {
				q++
			}
			if lastOn[q].Pos > 0 {
				recv := b.Append(p)
				if err := b.Message(lastOn[q], recv); err != nil {
					panic(err)
				}
				lastOn[p] = recv
				continue
			}
		}
		lastOn[p] = b.Append(p)
	}
	return b.MustBuild()
}

// RandomDAG builds an execution whose messages join random events: each
// goes from an earlier-created event to a later-created one on another
// process, so the creation order is a linear extension and the result is
// acyclic, while events may send and receive several messages each and
// relay what they receive, and receives need not be their process's newest
// event. It returns the builder, so callers can add edges before building.
func RandomDAG(r *rand.Rand, procs, events, msgs int) *poset.Builder {
	b := poset.NewBuilder(procs)
	created := make([]poset.EventID, events)
	for i := range created {
		created[i] = b.Append(r.Intn(procs))
	}
	for k := 0; k < msgs; k++ {
		i, j := r.Intn(events), r.Intn(events)
		if i > j {
			i, j = j, i
		}
		if created[i].Proc == created[j].Proc {
			continue
		}
		if err := b.Message(created[i], created[j]); err != nil {
			panic(err)
		}
	}
	return b
}

// RandomInterval picks a random non-empty set of up to maxSize distinct real
// events of ex. It returns nil when ex has no real events.
func RandomInterval(r *rand.Rand, ex *poset.Execution, maxSize int) []poset.EventID {
	real := ex.RealEvents()
	if len(real) == 0 {
		return nil
	}
	size := 1 + r.Intn(maxSize)
	if size > len(real) {
		size = len(real)
	}
	perm := r.Perm(len(real))
	out := make([]poset.EventID, 0, size)
	for _, idx := range perm[:size] {
		out = append(out, real[idx])
	}
	return out
}

// DisjointIntervals picks two random non-empty disjoint sets of real events
// of ex, each of size at most maxSize. It returns (nil, nil) when ex has
// fewer than two real events.
func DisjointIntervals(r *rand.Rand, ex *poset.Execution, maxSize int) (x, y []poset.EventID) {
	real := ex.RealEvents()
	if len(real) < 2 {
		return nil, nil
	}
	perm := r.Perm(len(real))
	nx := 1 + r.Intn(maxSize)
	ny := 1 + r.Intn(maxSize)
	if nx > len(real)-1 {
		nx = len(real) - 1
	}
	if ny > len(real)-nx {
		ny = len(real) - nx
	}
	x = make([]poset.EventID, 0, nx)
	for _, idx := range perm[:nx] {
		x = append(x, real[idx])
	}
	y = make([]poset.EventID, 0, ny)
	for _, idx := range perm[nx : nx+ny] {
		y = append(y, real[idx])
	}
	return x, y
}

// DisjointN picks n pairwise-disjoint non-empty sets of real events of ex,
// each of size at most maxSize. It returns nil when ex has fewer than n
// real events.
func DisjointN(r *rand.Rand, ex *poset.Execution, n, maxSize int) [][]poset.EventID {
	real := ex.RealEvents()
	if len(real) < n {
		return nil
	}
	perm := r.Perm(len(real))
	out := make([][]poset.EventID, n)
	next := 0
	for i := range out {
		size := 1 + r.Intn(maxSize)
		if max := len(real) - next - (n - 1 - i); size > max {
			size = max
		}
		for k := 0; k < size; k++ {
			out[i] = append(out[i], real[perm[next]])
			next++
		}
	}
	return out
}

// Figure2 builds the 4-node, 8-event poset of the paper's Figure 2. The
// execution has four processes; the nonatomic event X consists of two events
// on each process. Message edges knit the processes together so that the
// four cuts C1(X)..C4(X) are all distinct, as in the figure. It returns the
// execution and X's member events.
//
// The exact event placement in the published figure is not fully recoverable
// from the scanned image; this fixture preserves the figure's structural
// properties (4 nodes, 8 shaded events, 2 per node, distinct C1–C4 surfaces)
// which is what the golden tests pin down.
func Figure2() (*poset.Execution, []poset.EventID) {
	b := poset.NewBuilder(4)
	// Prefix traffic so the past cuts are nontrivial.
	var x []poset.EventID
	// Each process: warmup event, then two X-member events separated by
	// cross-process messages, then a tail event.
	warm := make([]poset.EventID, 4)
	for p := 0; p < 4; p++ {
		warm[p] = b.Append(p)
	}
	// First X member on each process; p0's first X event is causally early,
	// p3's is late, creating asymmetric cuts.
	x0a := b.Append(0)
	x1a := b.Append(1)
	must(b.Message(x0a, x1a))
	x2a := b.Append(2)
	must(b.Message(warm[1], x2a))
	x3a := b.Append(3)
	must(b.Message(x2a, x3a))
	// Second X member on each process.
	x0b := b.Append(0)
	must(b.Message(x1a, x0b))
	x1b := b.Append(1)
	x2b := b.Append(2)
	must(b.Message(x1b, x2b))
	x3b := b.Append(3)
	must(b.Message(x0b, x3b))
	x = append(x, x0a, x1a, x2a, x3a, x0b, x1b, x2b, x3b)
	// Tail events so the future cuts do not all collapse onto ⊤.
	for p := 0; p < 4; p++ {
		t1 := b.Append(p)
		if p < 3 {
			t2 := b.Append(p + 1)
			must(b.Message(t1, t2))
		}
	}
	return b.MustBuild(), x
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
