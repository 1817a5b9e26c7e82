package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// The executable specification of the Framework Manager's binding derivation
// (§4.2): a from-scratch function of the deployed units' tuples, in
// deployment order, and the ontology. It shares no code with the Manager;
// TestManagerMatchesBindingSpec holds the Manager to it after every step of
// random reconfiguration sequences.

type specUnit struct {
	name  string
	tuple event.Tuple
}

// specChain is the delivery path of one event type, by unit name.
type specChain struct {
	heads, interposers, terminals []string
	exclusive                     map[string]bool
}

// specDerive derives every chain. A type has a chain when some unit provides
// it; a unit that provides and requires it is interposed, in deployment
// order; one that only requires it is a terminal.
func specDerive(ont *event.Ontology, units []specUnit) map[event.Type]*specChain {
	chains := map[event.Type]*specChain{}
	for _, u := range units {
		for _, t := range u.tuple.Provided {
			chains[t] = &specChain{exclusive: map[string]bool{}}
		}
	}
	for t, ch := range chains {
		for _, u := range units {
			requires := false
			for _, r := range u.tuple.Required {
				if ont.Matches(t, r.Type) {
					requires = true
					ch.exclusive[u.name] = ch.exclusive[u.name] || r.Exclusive
				}
			}
			switch provides := slices.Contains(u.tuple.Provided, t); {
			case provides && requires:
				ch.interposers = append(ch.interposers, u.name)
			case provides:
				ch.heads = append(ch.heads, u.name)
			case requires:
				ch.terminals = append(ch.terminals, u.name)
			}
		}
	}
	return chains
}

// route lists who receives the type when from emits it.
func (ch *specChain) route(from string) []string {
	// Interposition: the interposer after the emitter (the first one, for an
	// emitter that is not interposed) sees the event next. Following
	// deployment order is what rules out loops.
	if next := slices.Index(ch.interposers, from) + 1; next < len(ch.interposers) {
		return []string{ch.interposers[next]}
	}
	// Exclusive receive: the first exclusive terminal consumes the event.
	// Fan-out otherwise. Nobody is handed what it emitted itself.
	var out []string
	for _, t := range ch.terminals {
		if t == from {
			continue
		}
		if ch.exclusive[t] {
			return []string{t}
		}
		out = append(out, t)
	}
	return out
}

// specLinks is the link set the architecture meta-model must show: per
// chain, the pure providers bound to the first interposer, each interposer to
// the next, and whatever precedes the terminals to each of them.
func specLinks(chains map[event.Type]*specChain) []kernel.BindingInfo {
	set := map[kernel.BindingInfo]bool{}
	for _, ch := range chains {
		feeders := ch.heads
		for _, ip := range ch.interposers {
			for _, f := range feeders {
				set[kernel.BindingInfo{From: f, Receptacle: "REvents", To: ip, Interface: "IEventSink"}] = true
			}
			feeders = []string{ip}
		}
		for _, f := range feeders {
			for _, t := range ch.terminals {
				set[kernel.BindingInfo{From: f, Receptacle: "REvents", To: t, Interface: "IEventSink"}] = true
			}
		}
	}
	return sortedLinks(set)
}

func sortedLinks(set map[kernel.BindingInfo]bool) []kernel.BindingInfo {
	out := make([]kernel.BindingInfo, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].From+"\x00"+out[i].To < out[j].From+"\x00"+out[j].To
	})
	return out
}

// publishedRoute reads the published plan the way emit does for the unit
// named from (a name no deployed unit holds emits from outside every chain).
func publishedRoute(m *Manager, t event.Type, from string) (names []string, chained bool) {
	m.mu.Lock()
	rec := m.unitLocked(from)
	m.mu.Unlock()
	plan := m.plan.Load()
	for _, rec := range plan.targets(rec, t) {
		names = append(names, rec.unit.Name())
	}
	_, chained = lookup(plan.chained, t)
	return names, chained
}

func TestManagerMatchesBindingSpec(t *testing.T) {
	patterns := []event.Type{
		event.Any, event.MsgIn, event.MsgOut, event.Context, event.Routing,
		event.HelloIn, event.TCIn, event.TCOut, event.NoRoute, event.PowerStatus,
		"X_UNREGISTERED", "X_LATE_1", "X_LATE_2",
	}
	names := []string{"a", "b", "c", "d", "e", "f"}

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.1"), Clock: vclock.NewVirtual(epoch)})
		if err != nil {
			t.Fatal(err)
		}
		ont := m.Ontology()
		randomTuple := func() event.Tuple {
			var tp event.Tuple
			for n := rng.Intn(4); n > 0; n-- {
				tp.Required = append(tp.Required, event.Requirement{
					Type: patterns[rng.Intn(len(patterns))], Exclusive: rng.Intn(5) == 0,
				})
			}
			for n := rng.Intn(4); n > 0; n-- {
				tp.Provided = append(tp.Provided, patterns[rng.Intn(len(patterns))])
			}
			return tp
		}

		var deployed []specUnit
		protos := map[string]*Protocol{}
		// Every unit records what it is handed, so real emissions can be
		// held to the spec's routes.
		var received []string
		newUnit := func(name string) *Protocol {
			p := NewProtocol(name)
			if err := p.AddHandler(NewHandler("rec", event.Any, func(*Context, *event.Event) error {
				received = append(received, name)
				return nil
			})); err != nil {
				t.Fatal(err)
			}
			return p
		}
		want := specDerive(ont, deployed)
		for step := 0; step < 150; step++ {
			var desc string
			rederived := true
			switch op := rng.Intn(10); {
			case op < 3: // deploy
				name := names[rng.Intn(len(names))]
				if protos[name] != nil {
					continue
				}
				p := newUnit(name)
				tp := randomTuple()
				p.SetTuple(tp)
				if err := m.Deploy(p); err != nil {
					t.Fatal(err)
				}
				protos[name] = p
				deployed = append(deployed, specUnit{name, tp})
				desc = fmt.Sprintf("deploy %s %v", name, tp)
			case op < 5: // undeploy
				if len(deployed) == 0 {
					continue
				}
				i := rng.Intn(len(deployed))
				name := deployed[i].name
				if err := m.Undeploy(name); err != nil {
					t.Fatal(err)
				}
				delete(protos, name)
				deployed = slices.Delete(deployed, i, i+1)
				desc = "undeploy " + name
			case op < 7: // declarative reconfiguration
				if len(deployed) == 0 {
					continue
				}
				u := &deployed[rng.Intn(len(deployed))]
				u.tuple = randomTuple()
				protos[u.name].SetTuple(u.tuple)
				desc = fmt.Sprintf("retuple %s %v", u.name, u.tuple)
			case op < 8: // the declaration edited where it stands, then re-announced
				if len(deployed) == 0 {
					continue
				}
				u := &deployed[rng.Intn(len(deployed))]
				if len(u.tuple.Required) == 0 {
					continue
				}
				r := &u.tuple.Required[rng.Intn(len(u.tuple.Required))]
				r.Type, r.Exclusive = patterns[rng.Intn(len(patterns))], !r.Exclusive
				if rng.Intn(2) == 0 {
					protos[u.name].SetTuple(u.tuple)
				} else {
					m.Rewire()
				}
				desc = fmt.Sprintf("edit %s in place %v", u.name, u.tuple)
			case op < 9:
				m.Rewire()
				desc = "rewire"
			default: // the hierarchy moves; chains follow at the next rewire
				child := patterns[5+rng.Intn(len(patterns)-5)]
				parent := patterns[rng.Intn(5)]
				if err := ont.RegisterType(child, parent); err != nil {
					continue
				}
				rederived = false
				desc = fmt.Sprintf("register %s under %s", child, parent)
			}
			if rederived {
				want = specDerive(ont, deployed)
			}
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, desc)

			for _, typ := range patterns {
				ch := want[typ]
				if ch == nil {
					ch = &specChain{}
				}
				inter, term := m.Chain(typ)
				if !slices.Equal(inter, ch.interposers) || !slices.Equal(term, ch.terminals) {
					t.Fatalf("%s: Chain(%s) = %v %v, spec %v %v", where, typ, inter, term, ch.interposers, ch.terminals)
				}
				for _, from := range append([]string{"stranger"}, names...) {
					got, chained := publishedRoute(m, typ, from)
					if chained != (want[typ] != nil) || !slices.Equal(got, ch.route(from)) {
						t.Fatalf("%s: route(%s from %s) = %v (chain %v), spec %v (chain %v)",
							where, typ, from, got, chained, ch.route(from), want[typ] != nil)
					}
				}
			}
			// Each deployed unit emits every type through its own Env:
			// route tables a rewire kept, units redeployed under a name an
			// earlier unit held, and types outside the emitter's tuple.
			for _, u := range deployed {
				for _, typ := range patterns {
					received = received[:0]
					if err := protos[u.name].Emit(&event.Event{Type: typ}); err != nil {
						t.Fatal(err)
					}
					var route []string
					if ch := want[typ]; ch != nil {
						route = ch.route(u.name)
					}
					route = slices.Clone(route)
					slices.Sort(route)
					slices.Sort(received)
					if !slices.Equal(received, route) {
						t.Fatalf("%s: %s emitting %s reached %v, spec %v", where, u.name, typ, received, route)
					}
				}
			}
			if n := len(m.plan.Load().chained); n != len(want) {
				t.Fatalf("%s: plan routes %d types, spec %d", where, n, len(want))
			}
			got := map[kernel.BindingInfo]bool{}
			bound := m.Arch().Bindings
			for _, l := range bound {
				got[l] = true
			}
			if links := specLinks(want); len(bound) != len(links) || !slices.Equal(sortedLinks(got), links) {
				t.Fatalf("%s: bindings\n got  %v\n spec %v", where, sortedLinks(got), links)
			}
		}
		m.Close()
	}
}
