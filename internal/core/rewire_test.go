package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
)

// A Rewire that finds every tuple as it left it derives nothing: the
// published plan and its chains' routes stay, no kernel operation is
// issued, and nothing is allocated.
func TestRewireWithoutChangeAllocs(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	for _, r := range []*recorder{
		newRecorder(t, "system", event.Tuple{
			Required: []event.Requirement{{Type: event.MsgOut}},
			Provided: []event.Type{event.HelloIn, event.TCIn},
		}),
		newRecorder(t, "mpr", event.Tuple{
			Required: []event.Requirement{{Type: event.HelloIn}},
			Provided: []event.Type{event.HelloOut, event.NhoodChange},
		}),
		newRecorder(t, "olsr", event.Tuple{
			Required: []event.Requirement{{Type: event.TCIn}, {Type: event.NhoodChange}},
			Provided: []event.Type{event.TCOut},
		}),
	} {
		if err := m.Deploy(r.p); err != nil {
			t.Fatal(err)
		}
	}
	// An integrity rule sees every Insert, Remove, Bind and Unbind.
	kernelOps := 0
	if err := m.AddRule(kernel.IntegrityRule{Name: "count", Check: func(kernel.Arch) error { kernelOps++; return nil }}); err != nil {
		t.Fatal(err)
	}
	kernelOps = 0
	plan := m.plan.Load()
	rewires := m.Stats().Rewires

	if allocs := testing.AllocsPerRun(10, m.Rewire); allocs != 0 {
		t.Errorf("a Rewire that changes nothing allocates %.0f objects", allocs)
	}
	if m.plan.Load() != plan {
		t.Error("a Rewire that changes nothing published a new plan")
	}
	if kernelOps != 0 {
		t.Errorf("a Rewire that changes nothing issued %d kernel operations", kernelOps)
	}
	if got := m.Stats().Rewires - rewires; got != 11 {
		t.Errorf("11 Rewire calls counted as %d", got)
	}

	// A change to one chain leaves the other chains' default routes in the
	// new plan.
	if err := m.Undeploy("olsr"); err != nil {
		t.Fatal(err)
	}
	next := m.plan.Load()
	if _, chained := lookup(next.chained, event.TCOut); next == plan || chained {
		t.Fatal("Undeploy did not republish")
	}
	defaultRoute := func(p *dispatchPlan, typ event.Type) []*unitRec {
		targets, _ := lookup(p.chained, typ)
		return targets
	}
	if a, b := defaultRoute(next, event.HelloIn), defaultRoute(plan, event.HelloIn); len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
		t.Error("HELLO_IN's chain did not change, its default route did")
	}
	if len(defaultRoute(next, event.TCIn)) != 0 {
		t.Error("TC_IN lost its terminal and kept its default route")
	}

	// A unit joining one chain recompiles the route tables of that chain's
	// members and leaves every other unit's table in the new plan.
	if err := m.Deploy(newRecorder(t, "tc-sink", event.Tuple{Required: []event.Requirement{{Type: event.TCIn}}}).p); err != nil {
		t.Fatal(err)
	}
	last := m.plan.Load()
	if !sameRoutes(routesOf(m, last, "mpr"), routesOf(m, next, "mpr")) {
		t.Error("mpr has no part in TC_IN's chain, its route table changed")
	}
	if sameRoutes(routesOf(m, last, "system"), routesOf(m, next, "system")) {
		t.Error("TC_IN gained a terminal and system kept its route table")
	}
}

// A slot freed by Undeploy goes to the next unit deployed. A plan compiled
// before the reuse, which a concurrent emitter may still hold, names the old
// unit as the slot's owner, so the new unit misses that table and takes the
// chain's default route instead of the old unit's.
func TestReusedSlotMissesStaleTable(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	inter := newRecorder(t, "inter", event.Tuple{
		Required: []event.Requirement{{Type: event.TCOut}},
		Provided: []event.Type{event.TCOut},
	})
	sink := newRecorder(t, "sink", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	for _, r := range []*recorder{inter, sink} {
		if err := m.Deploy(r.p); err != nil {
			t.Fatal(err)
		}
	}
	stale := m.plan.Load() // inter's own route is the sink; the default route is inter
	if err := m.Undeploy("inter"); err != nil {
		t.Fatal(err)
	}
	late := newRecorder(t, "late", event.Tuple{Provided: []event.Type{event.HelloOut}})
	if err := m.Deploy(late.p); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	slot := m.unitLocked("late").slot
	m.mu.Unlock()
	if slot != 0 || stale.emitters[0].rec.name != "inter" {
		t.Fatalf("late holds slot %d, the stale plan's slot 0 is %q's", slot, stale.emitters[0].rec.name)
	}
	m.plan.Store(stale)
	before := m.Stats().Dropped
	if err := late.p.Emit(&event.Event{Type: event.TCOut}); err != nil {
		t.Fatal(err)
	}
	if got := sink.events(); len(got) != 0 {
		t.Fatalf("late was routed as the unit that held its slot: sink got %v", got)
	}
	if m.Stats().Dropped != before+1 {
		t.Fatal("the default route's detached interposer was not counted as a drop")
	}
}

// routesOf returns the route table plan holds for the named deployed unit.
func routesOf(m *Manager, plan *dispatchPlan, name string) []route {
	m.mu.Lock()
	rec := m.unitLocked(name)
	m.mu.Unlock()
	if e := plan.emitters[rec.slot]; e.rec == rec {
		return e.routes
	}
	return nil
}

// sameRoutes reports whether a and b are one shared table.
func sameRoutes(a, b []route) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// Four goroutines emit while units are deployed, re-tupled and undeployed.
// Successive plans share the routes of untouched chains, and a reader may
// hold any of them while the next is compiled; under -race this pins that
// nothing reachable from a published plan is written, and the ledger below
// that every delivery went to a unit some published plan named for that type.
func TestEmitAgainstSharedTypePlans(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	types := []event.Type{event.HelloIn, event.TCIn}
	src := NewProtocol("src")
	src.SetTuple(event.Tuple{Provided: types})
	if err := m.Deploy(src); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	legal := map[string]map[event.Type]bool{} // unit -> types a published plan routed to it
	got := map[string]map[event.Type]bool{}   // unit -> types it handled
	mark := func(set map[string]map[event.Type]bool, name string, typ event.Type) {
		if set[name] == nil {
			set[name] = map[event.Type]bool{}
		}
		set[name][typ] = true
	}
	// Reconfiguration below is one goroutine, so every published plan is
	// still current when its hook runs.
	m.SetRewireHook(func() {
		mu.Lock()
		defer mu.Unlock()
		plan := m.plan.Load()
		for _, r := range plan.chained {
			for _, rec := range r.targets {
				mark(legal, rec.unit.Name(), r.t)
			}
		}
		rows := map[string]map[event.Type]bool{}    // unit -> types its route table has a row for
		members := map[string]map[event.Type]bool{} // unit -> rows it has as an interposer or terminal
		m.mu.Lock()
		for _, e := range plan.emitters {
			for _, r := range e.routes {
				mark(rows, e.rec.unit.Name(), r.t)
				if e.rec.roles[m.chainIndex(r.t)]&requires != 0 {
					mark(members, e.rec.unit.Name(), r.t)
				}
				for _, rec := range r.targets {
					mark(legal, rec.unit.Name(), r.t)
				}
			}
		}
		m.mu.Unlock()
		// Reflection reads the same chains: every link joins a unit that
		// provides some type to an interposer or terminal of that type's
		// chain.
		for _, l := range m.Arch().Bindings {
			from, ok := m.Unit(l.From)
			if !ok {
				t.Errorf("link %v leaves an undeployed unit", l)
				continue
			}
			joined := false
			for typ := range members[l.To] {
				if rows[l.From][typ] && from.Tuple().Provides(typ) {
					joined = true
					break
				}
			}
			if !joined {
				t.Errorf("link %v joins no pair the published plan routes between", l)
			}
		}
	})

	tuples := []event.Tuple{
		{Required: []event.Requirement{{Type: event.HelloIn}}},
		{Required: []event.Requirement{{Type: event.TCIn, Exclusive: true}}},
		{Required: []event.Requirement{{Type: event.HelloIn}}, Provided: []event.Type{event.HelloIn}},
		{Required: []event.Requirement{{Type: event.MsgIn}}},
		{},
	}
	// The receivers are redeployed as the same objects, so a delivery queued
	// behind a reconfiguration still finds its target attached most of the time.
	units := map[string]*Protocol{}
	for _, name := range []string{"r0", "r1", "r2"} {
		p := NewProtocol(name)
		if err := p.AddHandler(NewHandler("h", event.Any, func(_ *Context, ev *event.Event) error {
			mu.Lock()
			mark(got, name, ev.Type)
			mu.Unlock()
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		units[name] = p
	}
	var emitting atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		emitting.Add(1)
		go func() {
			defer wg.Done()
			defer emitting.Add(-1)
			for i := 0; i < 5000; i++ {
				_ = src.Emit(&event.Event{Type: types[i%len(types)]})
				runtime.Gosched() // interleave with the reconfiguration on any number of processors
			}
		}()
	}
	for i := 0; i < 600 || emitting.Load() > 0; i++ {
		name := []string{"r0", "r1", "r2"}[i%3]
		p := units[name]
		switch {
		case !p.Deployed():
			p.SetTuple(tuples[i%len(tuples)])
			if err := m.Deploy(p); err != nil {
				t.Fatal(err)
			}
		case i%7 < 5:
			p.SetTuple(tuples[(i/3)%len(tuples)])
		default:
			if err := m.Undeploy(name); err != nil {
				t.Fatal(err)
			}
		}
		runtime.Gosched()
	}
	wg.Wait()
	m.WaitIdle()
	if st := m.Stats(); st.Delivered == 0 {
		t.Fatalf("nothing was delivered: %+v", st)
	}

	mu.Lock()
	defer mu.Unlock()
	for name, typs := range got {
		for typ := range typs {
			if !legal[name][typ] {
				t.Errorf("%s handled %s, which no published plan routed to it", name, typ)
			}
		}
	}
	if len(got) == 0 {
		t.Fatalf("no delivery was handled: %+v", m.Stats())
	}
}

// An Undeploy an integrity rule vetoes changes nothing: the unit stays
// deployed and keeps receiving its events, and once the rule is satisfied the
// same Undeploy goes through.
func TestVetoedUndeployChangesNothing(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	sink := newRecorder(t, "sink-1", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	for _, r := range []*recorder{prov, sink} {
		if err := m.Deploy(r.p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddRule(kernel.RuleRequired("sink", func(c string) bool { return strings.HasPrefix(c, "sink") })); err != nil {
		t.Fatal(err)
	}
	bound := m.Arch()
	if err := m.Undeploy("sink-1"); !errors.Is(err, kernel.ErrIntegrity) {
		t.Fatalf("vetoed Undeploy = %v, want ErrIntegrity", err)
	}
	if got := m.Units(); !slices.Equal(got, []string{"provider", "sink-1"}) {
		t.Fatalf("units after a vetoed Undeploy = %v", got)
	}
	if got := m.Arch(); fmt.Sprint(got) != fmt.Sprint(bound) {
		t.Fatalf("architecture after a vetoed Undeploy = %v, before %v", got, bound)
	}
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	if got := sink.events(); len(got) != 1 {
		t.Fatalf("sink after a vetoed Undeploy saw %v", got)
	}

	if err := m.Deploy(newRecorder(t, "sink-2", event.Tuple{}).p); err != nil {
		t.Fatal(err)
	}
	if err := m.Undeploy("sink-1"); err != nil {
		t.Fatalf("Undeploy with the rule satisfied = %v", err)
	}
	if err := m.Deploy(sink.p); err != nil {
		t.Fatalf("redeploying the undeployed unit = %v", err)
	}
}
