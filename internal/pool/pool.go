// Package pool implements the worker-pool ("threadpool") utility component
// that the paper lists among MANETKit's reusable building blocks (Table 3).
//
// It is the framework's only executor for the asynchronous concurrency
// models of §4.4. Thread-per-n-messages runs every unit's deliveries on one
// unbounded Pool of n workers, a midpoint between the single-threaded and
// thread-per-message models. Thread-per-ManetProtocol gives a unit a Pool of
// one worker whose backlog is bounded: a full backlog refuses the newest
// task and counts it, so a slow protocol never stalls the thread handing it
// events.
package pool

import (
	"errors"
	"fmt"
	"sync"

	"manetkit/internal/queue"
)

var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("pool: closed")
	// ErrFull is returned by Submit when a bounded backlog is at its bound.
	ErrFull = errors.New("pool: full")
)

// Stats describes pool activity.
type Stats struct {
	Submitted uint64 // tasks accepted
	Completed uint64 // accepted tasks that have run
	Dropped   uint64 // tasks refused by the backlog bound
	Queued    int    // accepted tasks no worker has started
	Workers   int
}

// Pool runs submitted tasks on a fixed set of worker goroutines, in FIFO
// submission order. Construct with New; the zero value is unusable.
type Pool struct {
	mu     sync.Mutex
	ready  sync.Cond // a task is queued, or the pool closed
	idle   sync.Cond // every accepted task has run
	tasks  queue.Ring[func()]
	bound  int
	stats  Stats
	closed bool
	wg     sync.WaitGroup
}

// New starts a pool of size workers. bound caps the backlog of tasks no
// worker has started (<= 0 means unbounded).
func New(size, bound int) (*Pool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("pool: invalid size %d", size)
	}
	p := &Pool{bound: bound, stats: Stats{Workers: size}}
	p.ready.L = &p.mu
	p.idle.L = &p.mu
	p.wg.Add(size)
	for range size {
		go p.worker()
	}
	return p, nil
}

func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		task, ok := p.tasks.Pop()
		if !ok {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.ready.Wait()
			continue
		}
		p.mu.Unlock()
		task()
		p.mu.Lock()
		p.stats.Completed++
		if p.stats.Completed == p.stats.Submitted {
			p.idle.Broadcast()
		}
	}
}

// Submit enqueues f for execution without blocking. It returns ErrClosed
// after Close, or ErrFull (counted in Stats.Dropped) when a bounded backlog
// is at its bound.
func (p *Pool) Submit(f func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.bound > 0 && p.tasks.Len() >= p.bound {
		p.stats.Dropped++
		return ErrFull
	}
	p.tasks.Push(f)
	p.stats.Submitted++
	p.ready.Signal()
	return nil
}

// WaitIdle blocks until every accepted task has run.
func (p *Pool) WaitIdle() {
	p.mu.Lock()
	for p.stats.Completed != p.stats.Submitted {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Close stops accepting tasks, waits for the queued ones to run and the
// workers to exit, then returns. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.ready.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Queued = p.tasks.Len()
	return s
}
