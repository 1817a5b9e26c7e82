package pool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Fatal("New(0) succeeded")
	}
	if _, err := New(-3, 0); err == nil {
		t.Fatal("New(-3) succeeded")
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	const tasks = 1000
	for i := 0; i < tasks; i++ {
		if err := p.Submit(func() { n.Add(1) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	if n.Load() != tasks {
		t.Fatalf("ran %d tasks, want %d", n.Load(), tasks)
	}
	st := p.Stats()
	if st.Submitted != tasks || st.Completed != tasks || st.Workers != 4 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p, err := New(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v", err)
	}
	p.Close() // idempotent
}

func TestPoolSingleWorkerIsFIFO(t *testing.T) {
	p, err := New(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		p.Submit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
	if len(order) != 100 {
		t.Fatalf("ran %d tasks", len(order))
	}
}

func TestPoolConcurrencyActuallyParallel(t *testing.T) {
	p, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Two tasks that each wait for the other prove two workers run at once.
	a, b := make(chan struct{}), make(chan struct{})
	p.Submit(func() { close(a); <-b })
	p.Submit(func() { <-a; close(b) })
	p.Close() // waits; deadlock here would fail the test via timeout
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	p, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := p.Submit(func() { n.Add(1) }); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	if n.Load() != 8*200 {
		t.Fatalf("ran %d tasks", n.Load())
	}
	if st := p.Stats(); st.Submitted != 8*200 || st.Completed != 8*200 || st.Queued != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPoolConcurrentProducersConsumers(t *testing.T) {
	const (
		producers = 8
		perProd   = 500
	)
	p, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]bool, producers*perProd)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				v := g*perProd + i
				err := p.Submit(func() {
					mu.Lock()
					defer mu.Unlock()
					if seen[v] {
						t.Errorf("duplicate item %d", v)
					}
					seen[v] = true
				})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	if len(seen) != producers*perProd {
		t.Fatalf("ran %d items, want %d", len(seen), producers*perProd)
	}
	st := p.Stats()
	if st.Submitted != producers*perProd || st.Completed != producers*perProd || st.Queued != 0 || st.Dropped != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

// blockFirst submits a task that holds p's only worker until the returned
// func is called, and waits until the worker has started it.
func blockFirst(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	if err := p.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	return func() { close(gate) }
}

func TestPoolBoundRefusesAndCounts(t *testing.T) {
	p, err := New(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	release := blockFirst(t, p)
	for i := 0; i < 2; i++ {
		if err := p.Submit(func() {}); err != nil {
			t.Fatalf("Submit under the bound: %v", err)
		}
	}
	if err := p.Submit(func() { t.Error("a refused task ran") }); !errors.Is(err, ErrFull) {
		t.Fatalf("Submit over the bound = %v, want ErrFull", err)
	}
	if st := p.Stats(); st.Dropped != 1 || st.Submitted != 3 || st.Queued != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	release()
	p.WaitIdle()
	if err := p.Submit(func() {}); err != nil {
		t.Fatalf("Submit after the backlog drained: %v", err)
	}
}

func TestPoolWaitIdle(t *testing.T) {
	p, err := New(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	release := blockFirst(t, p)
	var ran atomic.Int64
	for i := 0; i < 9; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	if st := p.Stats(); st.Queued != 9 || st.Completed != 0 {
		t.Fatalf("Stats with the worker held = %+v", st)
	}
	idle := make(chan struct{})
	go func() { p.WaitIdle(); close(idle) }()
	select {
	case <-idle:
		t.Fatal("WaitIdle returned with tasks queued")
	case <-time.After(10 * time.Millisecond):
	}
	release()
	<-idle
	if st := p.Stats(); ran.Load() != 9 || st.Completed != 10 || st.Queued != 0 {
		t.Fatalf("ran %d, Stats = %+v", ran.Load(), st)
	}
}

func TestPoolCloseRunsQueuedTasks(t *testing.T) {
	p, err := New(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	release := blockFirst(t, p)
	var ran atomic.Bool
	p.Submit(func() { ran.Store(true) })
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	for p.Submit(func() {}) == nil { // Close has not marked the pool yet
		runtime.Gosched()
	}
	release()
	<-closed
	if !ran.Load() {
		t.Fatal("a task queued before Close did not run")
	}
}

func TestPoolCloseStopsIdleWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // the workers are parked on an empty queue
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the pool, %d after Close", before, after)
	}
}

func TestPoolPerSubmitterOrder(t *testing.T) {
	p, err := New(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const perSub = 300
	var mu sync.Mutex
	last := map[int]int{0: -1, 1: -1, 2: -1, 3: -1}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				p.Submit(func() {
					mu.Lock()
					defer mu.Unlock()
					if i != last[g]+1 {
						t.Errorf("submitter %d: task %d ran after %d", g, i, last[g])
					}
					last[g] = i
				})
			}
		}()
	}
	wg.Wait()
	p.Close()
	for g, l := range last {
		if l != perSub-1 {
			t.Fatalf("submitter %d: ran up to %d", g, l)
		}
	}
}
