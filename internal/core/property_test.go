package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// TestDeliveryInvariantsProperty checks the Framework Manager's §4.2
// semantics over randomly generated deployments:
//
//  1. an emitted event reaches every unit whose tuple requires its type
//     (directly or via the ontology) exactly once — unless an interposer
//     drops it or an exclusive requirer shadows the rest;
//  2. no unit receives an event type its tuple does not require;
//  3. interposers (provide+require) see the event before pure requirers.
func TestDeliveryInvariantsProperty(t *testing.T) {
	concrete := []event.Type{event.HelloIn, event.TCIn, event.TCOut, event.REIn, event.PowerStatus}

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := vclock.NewVirtual(epoch)
		mgr, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.1"), Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()

		ont := mgr.Ontology()
		type unitSpec struct {
			proto *Protocol
			tuple event.Tuple
		}
		var units []unitSpec
		var mu sync.Mutex
		received := make(map[string][]event.Type) // unit -> events seen
		order := make(map[event.Type][]string)    // per emission: arrival order

		nUnits := 2 + rng.Intn(5)
		for i := 0; i < nUnits; i++ {
			name := fmt.Sprintf("u%d", i)
			tp := event.Tuple{}
			for _, c := range concrete {
				r := rng.Intn(10)
				if r < 3 {
					tp.Required = append(tp.Required, event.Requirement{Type: c})
				}
				if r >= 8 {
					tp.Provided = append(tp.Provided, c)
				}
				// 1-in-10: interposer for this type.
				if r == 7 {
					tp.Required = append(tp.Required, event.Requirement{Type: c})
					tp.Provided = append(tp.Provided, c)
				}
			}
			p := NewProtocol(name)
			p.SetTuple(tp)
			spec := unitSpec{proto: p, tuple: tp}
			name = p.Name()
			p.AddHandler(NewHandler(name+"-h", event.Any, func(ctx *Context, ev *event.Event) error {
				mu.Lock()
				received[name] = append(received[name], ev.Type)
				order[ev.Type] = append(order[ev.Type], name)
				mu.Unlock()
				// Interposers must re-emit to keep the chain flowing.
				if spec.tuple.Provides(ev.Type) && spec.tuple.Requires(ont, ev.Type) {
					ctx.Emit(ev)
				}
				return nil
			}))
			if err := mgr.Deploy(p); err != nil {
				t.Fatal(err)
			}
			units = append(units, spec)
		}
		// One dedicated emitter providing everything.
		emitter := NewProtocol("emitter")
		emitter.SetTuple(event.Tuple{Provided: concrete})
		if err := mgr.Deploy(emitter); err != nil {
			t.Fatal(err)
		}

		for _, typ := range concrete {
			mu.Lock()
			received = make(map[string][]event.Type)
			order = make(map[event.Type][]string)
			mu.Unlock()
			if err := emitter.Emit(&event.Event{Type: typ, Time: clk.Now()}); err != nil {
				t.Fatal(err)
			}
			mgr.WaitIdle()

			interposers, terminals := mgr.Chain(typ)
			isInterposer := make(map[string]bool)
			for _, n := range interposers {
				isInterposer[n] = true
			}
			isTerminal := make(map[string]bool)
			for _, n := range terminals {
				isTerminal[n] = true
			}
			mu.Lock()
			for _, u := range units {
				got := 0
				for _, rt := range received[u.proto.Name()] {
					if rt == typ {
						got++
					}
				}
				name := u.proto.Name()
				switch {
				case isInterposer[name]:
					if got != 1 {
						t.Errorf("seed %d type %s: interposer %s saw %d", seed, typ, name, got)
					}
				case isTerminal[name]:
					if got != 1 {
						t.Errorf("seed %d type %s: terminal %s saw %d", seed, typ, name, got)
					}
				default:
					if got != 0 {
						t.Errorf("seed %d type %s: non-requirer %s saw %d", seed, typ, name, got)
					}
				}
			}
			// Interposers appear in the arrival order before any terminal.
			seq := order[typ]
			lastInterposer, firstTerminal := -1, len(seq)
			for i, n := range seq {
				if isInterposer[n] && i > lastInterposer {
					lastInterposer = i
				}
				if isTerminal[n] && i < firstTerminal {
					firstTerminal = i
				}
			}
			if lastInterposer >= 0 && firstTerminal < lastInterposer {
				t.Errorf("seed %d type %s: terminal before interposer in %v", seed, typ, seq)
			}
			mu.Unlock()
		}
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestRewireIdempotentProperty: re-deriving the topology without tuple
// changes never alters the reflective binding set.
func TestRewireIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mgr, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.1"), Clock: vclock.NewVirtual(epoch)})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		concrete := []event.Type{event.HelloIn, event.TCOut, event.NoRoute}
		for i := 0; i < 2+rng.Intn(4); i++ {
			p := NewProtocol(fmt.Sprintf("u%d", i))
			tp := event.Tuple{}
			for _, c := range concrete {
				if rng.Intn(2) == 0 {
					tp.Required = append(tp.Required, event.Requirement{Type: c})
				}
				if rng.Intn(2) == 0 {
					tp.Provided = append(tp.Provided, c)
				}
			}
			p.SetTuple(tp)
			if err := mgr.Deploy(p); err != nil {
				t.Fatal(err)
			}
		}
		before := fmt.Sprint(mgr.Arch())
		mgr.Rewire()
		mgr.Rewire()
		return fmt.Sprint(mgr.Arch()) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
