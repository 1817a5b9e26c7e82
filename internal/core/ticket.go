package core

import (
	"sync"
	"sync/atomic"
)

// TicketMutex is a FIFO-fair mutex. It implements the paper's two
// concurrency guarantees at once (§4.4): each ManetProtocol instance runs
// as a single critical section (handlers are atomic), and events delivered
// to the same instance are processed in the order they were issued — even
// under the thread-per-message model, where each event is shepherded by its
// own goroutine. Tickets are drawn synchronously at emission time and
// redeemed by the shepherding goroutine, so FIFO order is the emission
// order, not the goroutine scheduling order.
//
// The uncontended path is two atomic ops end to end: Ticket is a fetch-add,
// a served Wait is a single load, and Unlock is an add plus a load of the
// parked flag. Only actual waiters touch the internal mutex, parking each on
// its own channel for an O(1) direct handoff rather than a broadcast
// stampede.
type TicketMutex struct {
	next    atomic.Uint64
	serving atomic.Uint64
	// parked is true while any waiter is registered; Unlock skips the mutex
	// entirely when it is false. A waiter sets it (under mu) before
	// re-checking serving, so an unlocker that reads false is guaranteed the
	// waiter's re-check will observe the new serving value and self-serve.
	parked  atomic.Bool
	mu      sync.Mutex
	waiters map[uint64]chan struct{}
}

// Ticket reserves the next place in line without blocking.
func (t *TicketMutex) Ticket() uint64 {
	return t.next.Add(1) - 1
}

// Wait blocks until the given ticket is served, entering the critical
// section. Only the contended park path below the fast-path check
// allocates.
func (t *TicketMutex) Wait(ticket uint64) {
	if t.serving.Load() == ticket {
		return
	}
	t.mu.Lock()
	if t.waiters == nil {
		t.waiters = make(map[uint64]chan struct{})
	}
	ch := make(chan struct{})
	t.waiters[ticket] = ch
	t.parked.Store(true)
	if t.serving.Load() == ticket {
		// Served between the fast-path check and registration: withdraw.
		delete(t.waiters, ticket)
		if len(t.waiters) == 0 {
			t.parked.Store(false)
		}
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	<-ch
}

// Lock draws a ticket and waits for it — plain mutex behaviour with FIFO
// fairness.
func (t *TicketMutex) Lock() {
	t.Wait(t.Ticket())
}

// Unlock leaves the critical section, admitting the next ticket holder.
func (t *TicketMutex) Unlock() {
	s := t.serving.Add(1)
	if !t.parked.Load() {
		return
	}
	t.mu.Lock()
	if ch, ok := t.waiters[s]; ok {
		delete(t.waiters, s)
		if len(t.waiters) == 0 {
			t.parked.Store(false)
		}
		close(ch)
	}
	t.mu.Unlock()
}
