package core

import (
	"sync"
	"testing"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

func TestTicketMutexFIFO(t *testing.T) {
	var tm TicketMutex
	tm.Lock()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	// Draw tickets in a known order, redeem from goroutines started in
	// reverse; the lock must still serve ticket order.
	tickets := make([]uint64, 10)
	for i := range tickets {
		tickets[i] = tm.Ticket()
	}
	for i := len(tickets) - 1; i >= 0; i-- {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm.Wait(tickets[i])
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			tm.Unlock()
		}()
	}
	tm.Unlock()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("service order = %v", order)
		}
	}
}

func TestTicketMutexPlainLockUnlock(t *testing.T) {
	var tm TicketMutex
	n := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm.Lock()
			n++
			tm.Unlock()
		}()
	}
	wg.Wait()
	if n != 50 {
		t.Fatalf("n = %d", n)
	}
}

// orderSink records the order field of delivered events.
type orderSink struct {
	p   *Protocol
	mu  sync.Mutex
	got []string
}

func newOrderSink(name string) *orderSink {
	s := &orderSink{p: NewProtocol(name)}
	s.p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.MsgIn}}})
	s.p.AddHandler(NewHandler(name+"-h", event.MsgIn, func(ctx *Context, ev *event.Event) error {
		s.mu.Lock()
		s.got = append(s.got, ev.Device) // Device abused as a label
		s.mu.Unlock()
		return nil
	}))
	return s
}

func (s *orderSink) labels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.got...)
}

func runModelOrderTest(t *testing.T, model Model, setup func(m *Manager)) {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	m, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.1"), Clock: clk, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.HelloIn}})
	s1 := newOrderSink("sink1")
	s2 := newOrderSink("sink2")
	for _, u := range []*Protocol{src.p, s1.p, s2.p} {
		if err := m.Deploy(u); err != nil {
			t.Fatal(err)
		}
	}
	if setup != nil {
		setup(m)
	}
	const n = 200
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		labels[i] = string(rune('a'+i%26)) + string(rune('0'+i%10))
		emitAs(m, "src", &event.Event{Type: event.HelloIn, Device: labels[i]})
	}
	m.WaitIdle()
	for _, s := range []*orderSink{s1, s2} {
		got := s.labels()
		if len(got) != n {
			t.Fatalf("%s(%v): got %d events, want %d", s.p.Name(), model, len(got), n)
		}
		for i := range got {
			if got[i] != labels[i] {
				t.Fatalf("%s(%v): FIFO violated at %d: %q != %q", s.p.Name(), model, i, got[i], labels[i])
			}
		}
	}
}

func TestFIFOOrderSingleThreaded(t *testing.T) { runModelOrderTest(t, SingleThreaded, nil) }
func TestFIFOOrderPerMessage(t *testing.T)     { runModelOrderTest(t, PerMessage, nil) }
func TestFIFOOrderPerN(t *testing.T)           { runModelOrderTest(t, PerN, nil) }
func TestFIFOOrderDedicated(t *testing.T) {
	runModelOrderTest(t, PerMessage, func(m *Manager) {
		if err := m.EnableDedicatedThread("sink1"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestModelString(t *testing.T) {
	if SingleThreaded.String() != "single-threaded" ||
		PerMessage.String() != "thread-per-message" ||
		PerN.String() != "thread-per-n-messages" {
		t.Fatal("model names wrong")
	}
	if Model(99).String() != "Model(99)" {
		t.Fatal("unknown model rendering wrong")
	}
}

func TestSetModelValidation(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	if err := m.SetModel(Model(42)); err == nil {
		t.Fatal("bogus model accepted")
	}
	if err := m.SetModel(PerN); err != nil {
		t.Fatal(err)
	}
	if m.Model() != PerN {
		t.Fatalf("Model = %v", m.Model())
	}
}

func TestDedicatedThreadHandoffDoesNotBlockEmitter(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	slow := NewProtocol("slow")
	slow.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	release := make(chan struct{})
	var processed int
	var mu sync.Mutex
	slow.AddHandler(NewHandler("slow-h", event.HelloIn, func(*Context, *event.Event) error {
		<-release
		mu.Lock()
		processed++
		mu.Unlock()
		return nil
	}))
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.HelloIn}})
	m.Deploy(src.p)
	m.Deploy(slow)
	if err := m.EnableDedicatedThread("slow"); err != nil {
		t.Fatal(err)
	}
	// Under the dedicated model the emit returns immediately even though the
	// handler blocks.
	done := make(chan struct{})
	go func() {
		emitAs(m, "src", &event.Event{Type: event.HelloIn})
		emitAs(m, "src", &event.Event{Type: event.HelloIn})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("emit blocked on dedicated unit")
	}
	close(release)
	m.WaitIdle()
	mu.Lock()
	defer mu.Unlock()
	if processed != 2 {
		t.Fatalf("processed = %d", processed)
	}
}

func TestPreferDedicatedThreadAtDeploy(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	p := NewProtocol("p")
	p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	var n int
	var mu sync.Mutex
	p.AddHandler(NewHandler("h", event.HelloIn, func(*Context, *event.Event) error {
		mu.Lock()
		n++
		mu.Unlock()
		return nil
	}))
	p.PreferDedicatedThread(true)
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.HelloIn}})
	m.Deploy(src.p)
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	emitAs(m, "src", &event.Event{Type: event.HelloIn})
	m.WaitIdle()
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	if err := m.DisableDedicatedThread("p"); err != nil {
		t.Fatal(err)
	}
}

func TestHandlersAtomicUnderPerMessage(t *testing.T) {
	// Two events racing into one protocol must not interleave inside the
	// handler (critical-section guarantee).
	clk := vclock.NewVirtual(epoch)
	m, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.1"), Clock: clk, Model: PerMessage})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p := NewProtocol("p")
	p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	inside := 0
	maxInside := 0
	p.AddHandler(NewHandler("h", event.HelloIn, func(*Context, *event.Event) error {
		inside++
		if inside > maxInside {
			maxInside = inside
		}
		time.Sleep(100 * time.Microsecond)
		inside--
		return nil
	}))
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.HelloIn}})
	m.Deploy(src.p)
	m.Deploy(p)
	for i := 0; i < 50; i++ {
		emitAs(m, "src", &event.Event{Type: event.HelloIn})
	}
	m.WaitIdle()
	if maxInside != 1 {
		t.Fatalf("handler concurrency observed: %d", maxInside)
	}
}
