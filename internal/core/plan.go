package core

import (
	"slices"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
)

// The dispatch plan is the RCU half of the Framework Manager: every topology
// mutation (Deploy, Undeploy, Rewire, SetTuple, concurrency-model changes
// funnelled through Rewire) re-derives the chains it touched, compiles them
// into an immutable plan and publishes it via atomic.Pointer. The plan gives
// every deployed unit a short route table — one (type, targets) row per type
// the unit provides or is a chain member of — reached through the unit's
// dense slot, so the steady-state emit path finds its targets by scanning a
// few rows with string equality: no hash, no manager mutex, no per-emission
// target-list rebuild. Only an emitter outside a type's chain scans the
// plan's chained rows for the chain's default route. Reconfiguration stays correct because
// nothing reachable from a plan is mutated after publication: readers see
// either the whole old topology or the whole new one. The chains a rewire
// did not touch keep their members, which their default routes point into,
// and the units it did not touch keep their route table, which successive
// dispatch plans therefore share.

// role is one unit's part in one event type's chain, resolved from its tuple
// against the ontology when either changes: deriving a chain reads a byte a unit.
type role uint8

const (
	provides role = 1 << iota
	requires
	exclusive // a requirement matching the type is exclusive
)

// roleIn resolves the part a unit declaring tp plays for concrete type t.
func roleIn(ont *event.Ontology, tp event.Tuple, t event.Type) role {
	var r role
	if tp.Provides(t) {
		r = provides
	}
	for _, q := range tp.Required {
		if ont.Matches(t, q.Type) {
			r |= requires
			if q.Exclusive {
				r |= exclusive
			}
		}
	}
	return r
}

// chain is the derived delivery path for one concrete event type t: the
// pure providers feed the interposer sequence, which feeds the terminals.
// members holds the stages, each in deployment order, ending at inter, term,
// excl and len: the interposers, the terminals, the exclusive ones among
// them again, and the heads, which only reflection reads. It is nil while no
// unit provides t; a rewire that touches t derives a fresh one, so routes
// into the old one stay valid. dirty marks that a unit's role in t changed.
type chain struct {
	t                 event.Type
	members           []*unitRec
	inter, term, excl int32
	dirty             bool
}

func (ch *chain) interposers() []*unitRec { return ch.members[:ch.inter] }
func (ch *chain) terminals() []*unitRec   { return ch.members[ch.inter:ch.term] }

// route is one row of a route table: where events of type t go.
type route struct {
	t       event.Type
	targets []*unitRec
}

// emitter is one slot of a dispatch plan: the unit the slot was compiled for
// (a stale emitter whose slot has since been reused misses) and its routes.
type emitter struct {
	rec    *unitRec
	routes []route
}

// dispatchPlan is one immutable compilation of the whole event topology.
type dispatchPlan struct {
	// chained is every chain's default route: the route of any emitter
	// outside the chain (pure providers, context pollers, a unit emitting a
	// type outside its tuple, tests).
	chained  []route
	emitters []emitter // indexed by unitRec.slot
	traced   bool      // the bus's gate when published; a flip republishes
}

// targets resolves where an event of type t emitted by from (nil: not a
// deployed unit) goes; nil when the type has no chain or its route is empty.
func (p *dispatchPlan) targets(from *unitRec, t event.Type) []*unitRec {
	if from != nil && from.slot < len(p.emitters) {
		if e := &p.emitters[from.slot]; e.rec == from {
			if targets, ok := lookup(e.routes, t); ok {
				return targets
			}
		}
	}
	targets, _ := lookup(p.chained, t)
	return targets
}

// lookup scans a route table for t's row.
func lookup(routes []route, t event.Type) ([]*unitRec, bool) {
	for i := range routes {
		if routes[i].t == t {
			return routes[i].targets, true
		}
	}
	return nil, false
}

// deriveLocked re-derives ch, the chain of m.chains[i], from the units'
// resolved roles: it counts each stage, then fills one slice sized to fit.
func (m *Manager) deriveLocked(i int, ch *chain) {
	var n [4]int32
	m.eachStage(i, func(s int, _ *unitRec) { n[s]++ })
	*ch = chain{t: ch.t, dirty: ch.dirty}
	if n[0]+n[3] == 0 {
		return
	}
	ch.inter, ch.term, ch.excl = n[0], n[0]+n[1], n[0]+n[1]+n[2]
	ch.members = make([]*unitRec, ch.excl+n[3])
	next := [4]int32{0, ch.inter, ch.term, ch.excl}
	m.eachStage(i, func(s int, rec *unitRec) { ch.members[next[s]], next[s] = rec, next[s]+1 })
}

// eachStage calls put, in deployment order, for each stage of m.chains[i] a
// unit joins: 0 interposers (deployment order precludes loops, §4.2
// footnote 2), 1 terminals, 2 exclusive terminals (again), 3 heads.
func (m *Manager) eachStage(i int, put func(stage int, rec *unitRec)) {
	for _, rec := range m.order {
		switch r := rec.roles[i]; {
		case r&provides != 0 && r&requires != 0:
			put(0, rec)
		case r&provides != 0:
			put(3, rec)
		case r&requires != 0:
			put(1, rec)
			if r&exclusive != 0 {
				put(2, rec)
			}
		}
	}
}

// compileLocked compiles the published plan's successor from the current
// chains: every chain's default route, and every deployed unit's route
// table. A unit keeps the table the current plan holds for it unless its
// roles were re-resolved or one of the types it has a part in was re-derived.
func (m *Manager) compileLocked() *dispatchPlan {
	prev := m.plan.Load()
	n := 0
	for i := range m.chains {
		if m.chains[i].members != nil {
			n++
		}
	}
	plan := &dispatchPlan{
		chained:  make([]route, 0, n),
		emitters: make([]emitter, len(m.slots)),
		traced:   m.obs.active(),
	}
	for i := range m.chains {
		if ch := &m.chains[i]; ch.members != nil {
			plan.chained = append(plan.chained, route{t: ch.t, targets: ch.route(nil)})
		}
	}
	for _, rec := range m.order {
		if rec.slot < len(prev.emitters) && prev.emitters[rec.slot].rec == rec && !m.touchedLocked(rec) {
			plan.emitters[rec.slot] = prev.emitters[rec.slot]
		} else {
			plan.emitters[rec.slot] = emitter{rec: rec, routes: m.routesLocked(rec)}
		}
		rec.reresolved = false
	}
	return plan
}

// touchedLocked reports whether rec's route table may differ from the one
// compiled before this rewire.
func (m *Manager) touchedLocked(rec *unitRec) bool {
	if rec.reresolved {
		return true
	}
	for i, r := range rec.roles {
		if r != 0 && m.chains[i].dirty {
			return true
		}
	}
	return false
}

// routesLocked compiles rec's route table: a row, in chain order, for every
// type it has a part in whose chain exists.
func (m *Manager) routesLocked(rec *unitRec) []route {
	n := 0
	for i, r := range rec.roles {
		if r != 0 && m.chains[i].members != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	routes := make([]route, 0, n)
	for i, r := range rec.roles {
		if ch := &m.chains[i]; r != 0 && ch.members != nil {
			routes = append(routes, route{t: ch.t, targets: ch.route(rec)})
		}
	}
	return routes
}

// route resolves the delivery targets as seen by emitter from (nil: not a
// member): the next interposer after it if any remain, otherwise the
// terminal stage — the first exclusive terminal alone, else all of them —
// never the emitter itself.
func (ch *chain) route(from *unitRec) []*unitRec {
	inter, excl, terms := ch.interposers(), ch.members[ch.term:ch.excl], ch.terminals()
	if next := slices.Index(inter, from) + 1; next < len(inter) {
		return inter[next : next+1]
	}
	for i, rec := range excl {
		if rec != from {
			return excl[i : i+1]
		}
	}
	if i := slices.Index(terms, from); i >= 0 {
		return append(append(make([]*unitRec, 0, len(terms)-1), terms[:i]...), terms[i+1:]...)
	}
	return terms
}

// linkSet appends the links the chain stands for in the MANETKit CF's
// architecture meta-model: heads to the first interposer, interposer to
// interposer, the last stage to each terminal.
func (ch *chain) linkSet(links []kernel.BindingInfo) []kernel.BindingInfo {
	heads, inter := ch.members[ch.excl:], ch.interposers()
	link := func(from, to *unitRec) {
		links = append(links, kernel.BindingInfo{From: from.name, Receptacle: "REvents", To: to.name, Interface: "IEventSink"})
	}
	if n := len(inter); n > 0 {
		for _, h := range heads {
			link(h, inter[0])
		}
		for i := 1; i < n; i++ {
			link(inter[i-1], inter[i])
		}
		heads = inter[n-1:]
	}
	for _, h := range heads {
		for _, t := range ch.terminals() {
			link(h, t)
		}
	}
	return links
}
