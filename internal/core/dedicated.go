package core

import (
	"sync"

	"manetkit/internal/event"
	"manetkit/internal/metrics"
	"manetkit/internal/queue"
)

// DedicatedQueueBound is how many events a dedicated per-protocol queue
// holds before it drops the newest, an implementation choice.
const DedicatedQueueBound = 1024

// dedicatedRunner implements the thread-per-ManetProtocol model (§4.4): a
// goroutine owned by one unit drains a FIFO of waiting events, so a thread
// passing an event from a lower layer returns immediately after the
// hand-off.
type dedicatedRunner struct {
	m    *Manager
	unit Unit
	q    *queue.FIFO[*event.Event]

	mu   sync.Mutex
	idle sync.Cond
	busy int // queued + executing
	done chan struct{}

	// detach takes the queue's depth and overflow count off the
	// deployment's metrics registry.
	detach []func()
}

// newDedicatedRunner starts the unit's runner; reg, when non-nil, reads
// its queue's depth and overflow count while it runs.
func newDedicatedRunner(m *Manager, u Unit, reg *metrics.Registry) *dedicatedRunner {
	d := &dedicatedRunner{
		m:    m,
		unit: u,
		q:    queue.NewFIFO[*event.Event](DedicatedQueueBound),
		done: make(chan struct{}),
	}
	d.idle.L = &d.mu
	name := u.Name()
	d.detach = []func(){
		reg.AttachGauge("core_dedicated_depth:"+name, func() int64 { return int64(d.q.Len()) }),
		reg.Attach(func(emit func(string, uint64)) {
			emit("core_dedicated_dropped:"+name, d.q.Stats().Dropped)
		}),
	}
	go d.run()
	return d
}

func (d *dedicatedRunner) run() {
	defer close(d.done)
	for {
		ev, err := d.q.Pop()
		if err != nil {
			return
		}
		d.m.runAccept(d.unit, ev)
		d.mu.Lock()
		d.busy--
		if d.busy == 0 {
			d.idle.Broadcast()
		}
		d.mu.Unlock()
	}
}

// enqueue hands off an event; it reports false when the queue rejected it.
func (d *dedicatedRunner) enqueue(ev *event.Event) bool {
	d.mu.Lock()
	d.busy++
	d.mu.Unlock()
	if err := d.q.Push(ev); err != nil {
		d.mu.Lock()
		d.busy--
		if d.busy == 0 {
			d.idle.Broadcast()
		}
		d.mu.Unlock()
		return false
	}
	return true
}

// waitIdle blocks until the queue is drained and no event is executing; it
// reports whether there was anything to wait for.
func (d *dedicatedRunner) waitIdle() bool {
	d.mu.Lock()
	waited := d.busy > 0
	for d.busy > 0 {
		d.idle.Wait()
	}
	d.mu.Unlock()
	return waited
}

// stop closes the queue and waits for the runner goroutine to exit.
func (d *dedicatedRunner) stop() {
	d.q.Close()
	<-d.done
	for _, detach := range d.detach {
		detach()
	}
}
