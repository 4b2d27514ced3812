package fifo

import (
	"runtime"
	"slices"
	"testing"
)

// TestQueueOrder: items leave in the order they arrived across pops,
// truncations, slides and growth, and Grow makes room without changing
// them.
func TestQueueOrder(t *testing.T) {
	var q Queue[int]
	var want []int
	next := 0
	for round := range 200 {
		for range round%7 + 1 {
			q.Push(next)
			want = append(want, next)
			next++
		}
		k := round % 5
		if k > len(want) {
			k = len(want)
		}
		q.Pop(k)
		want = want[k:]
		if round%11 == 0 && len(want) > 0 {
			q.Truncate(len(want) - 1)
			want = want[:len(want)-1]
		}
		if round%13 == 0 {
			q.Grow(round)
		}
		if !slices.Equal(q.Items(), want) {
			t.Fatalf("round %d: queue holds %v, want %v", round, q.Items(), want)
		}
	}
}

// TestQueueReusesArray: a queue whose length stays bounded stops
// allocating, because Push slides the items to the front of the full array
// instead of growing it, and the slots it vacates keep nothing alive.
func TestQueueReusesArray(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const window = 16
	var q Queue[*int]
	items := make([]int, 100*window) // allocated up front: a step allocates nothing itself
	pushed := 0
	step := func() {
		q.Push(&items[pushed])
		pushed++
		if len(q.Items()) > window {
			q.Pop(1)
		}
	}
	for range 8 * window {
		step()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 90 * window {
		step()
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("a bounded queue allocated %d times over %d pushes; want 0", n, 90*window)
	}
	if len(q.Items()) != window {
		t.Fatalf("queue holds %d items, want %d", len(q.Items()), window)
	}
	for k, p := range q.buf[:cap(q.buf)] {
		if inQueue := k >= q.head && k < len(q.buf); (p != nil) != inQueue {
			t.Fatalf("slot %d holds %v; want an item exactly in the queue's slots", k, p)
		}
	}
}
