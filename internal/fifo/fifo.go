// Package fifo provides a first-in first-out queue that reuses its array:
// items leave from the front and arrive at the back, and once the array is
// full the queue moves its items back to the front instead of growing
// whenever that reclaims a quarter of the array. A queue whose length stays
// bounded, such as a log whose oldest entries a retention window drops,
// therefore stops allocating once its array has room.
package fifo

import "slices"

// Queue is a FIFO queue of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // buf[head:] holds the items, oldest first
	head int
}

// Push appends v at the back. When the array is full and the dropped front
// is at least a quarter of it, the items first slide to the front, so each
// slide moves at most three items per free slot it makes: Push costs
// amortized O(1) and allocates only when the items fill more than three
// quarters of the array.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && 4*q.head >= cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // the vacated slots keep nothing alive
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Items returns the items, oldest first. The slice aliases the queue's
// array: it is valid until the next Push, Pop, Truncate or Grow, and an
// element written through it changes the queue.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Pop drops the k oldest items; k must be at most len(Items()).
func (q *Queue[T]) Pop(k int) {
	clear(q.buf[q.head : q.head+k])
	q.head += k
}

// Truncate keeps the n oldest items and drops the rest; n must be at most
// len(Items()).
func (q *Queue[T]) Truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
}

// Grow makes room for n more items, so that many Pushes neither grow nor
// slide the array.
func (q *Queue[T]) Grow(n int) {
	if n > 0 {
		q.buf = slices.Grow(q.buf, n)
	}
}
