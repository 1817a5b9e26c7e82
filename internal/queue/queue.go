// Package queue provides the FIFO queue component used throughout
// MANETKit: an unsynchronised growable ring buffer.
//
// The paper lists "queues" among the utility components every protocol
// composition reuses (Table 3). The single-threaded concurrency model
// drains its inline deliveries through one (§4.4), and every worker pool
// queues its waiting tasks in one.
package queue

// Ring is a growable circular buffer. It is not safe for concurrent use;
// guard it with a mutex (as pool.Pool does) when sharing across goroutines.
// The zero value is an empty ring.
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
