// Package queue provides the FIFO queue components used throughout
// MANETKit: an unsynchronised growable ring buffer and a thread-safe
// blocking FIFO with optional bound and drop accounting.
//
// The paper lists "queues" among the utility components every protocol
// composition reuses (Table 3); the thread-per-ManetProtocol concurrency
// model in particular pairs each protocol with a dedicated FIFO of waiting
// events (§4.4).
package queue

import (
	"errors"
	"sync"
)

// Ring is a growable circular buffer. It is not safe for concurrent use;
// wrap it (as FIFO does) when sharing across goroutines. The zero value is
// an empty ring.
type Ring[T any] struct {
	buf   []T
	head  int
	count int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.count }

// Push appends v at the tail, growing the buffer as needed.
func (r *Ring[T]) Push(v T) {
	if r.count == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
}

// Pop removes and returns the head item. ok is false when the ring is empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.count == 0 {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release reference for GC
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return v, true
}

// Peek returns the head item without removing it.
func (r *Ring[T]) Peek() (v T, ok bool) {
	if r.count == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

func (r *Ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.count; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}

// ErrClosed is returned by operations on a closed FIFO.
var ErrClosed = errors.New("queue: closed")

// ErrFull is returned by TryPush on a bounded FIFO at capacity.
var ErrFull = errors.New("queue: full")

// Stats counts queue activity; Dropped counts TryPush rejections on a full
// bounded queue.
type Stats struct {
	Pushed    uint64
	Popped    uint64
	Dropped   uint64
	HighWater int
}

// FIFO is a thread-safe first-in-first-out queue. A zero bound means
// unbounded. The zero value is unusable; construct with NewFIFO.
type FIFO[T any] struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	ring     Ring[T]
	bound    int
	closed   bool
	stats    Stats
}

// NewFIFO returns an empty FIFO. bound <= 0 means unbounded.
func NewFIFO[T any](bound int) *FIFO[T] {
	q := &FIFO[T]{bound: bound}
	q.nonEmpty.L = &q.mu
	return q
}

// Push enqueues v. On a bounded queue at capacity it behaves like TryPush
// (Push never blocks the producer; MANET event producers must not stall on
// a slow protocol).
func (q *FIFO[T]) Push(v T) error { return q.TryPush(v) }

// TryPush enqueues v, returning ErrFull if a bounded queue is at capacity
// or ErrClosed after Close.
func (q *FIFO[T]) TryPush(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.bound > 0 && q.ring.Len() >= q.bound {
		q.stats.Dropped++
		return ErrFull
	}
	q.ring.Push(v)
	q.stats.Pushed++
	if n := q.ring.Len(); n > q.stats.HighWater {
		q.stats.HighWater = n
	}
	q.nonEmpty.Signal()
	return nil
}

// Pop blocks until an item is available or the queue is closed and drained,
// in which case it returns ErrClosed.
func (q *FIFO[T]) Pop() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.ring.Len() == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	v, ok := q.ring.Pop()
	if !ok {
		var zero T
		return zero, ErrClosed
	}
	q.stats.Popped++
	return v, nil
}

// TryPop dequeues without blocking; ok is false when the queue is empty.
func (q *FIFO[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	v, ok = q.ring.Pop()
	if ok {
		q.stats.Popped++
	}
	return v, ok
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.Len()
}

// Close marks the queue closed. Queued items remain poppable; blocked Pops
// return ErrClosed once the queue drains. Close is idempotent.
func (q *FIFO[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.nonEmpty.Broadcast()
}

// Stats returns a snapshot of queue counters.
func (q *FIFO[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}
