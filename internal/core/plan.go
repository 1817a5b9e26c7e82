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
// target-list rebuild. Only an emitter outside a type's chain probes byType
// for the chain's default route. Reconfiguration stays correct because
// nothing reachable from a plan is mutated after publication: readers see
// either the whole old topology or the whole new one. The chains a rewire
// did not touch keep their typePlan, and the units it did not touch keep
// their route table, which successive dispatch plans therefore share.

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

// chain is the derived delivery path for one concrete event type: the pure
// providers feed the interposer sequence, which feeds the terminals. A chain
// is immutable; a rewire that touches the type derives its successor.
type chain struct {
	interposers []*unitRec // provide and require the type; deployment order
	terminals   []*unitRec // require it only; deployment order
	exclusive   []*unitRec // the terminals that consume the event; same order
	heads       []*unitRec // provide it only; read by reflection, not routing
	plan        *typePlan
}

// typePlan is the compiled default route of one concrete event type: the
// route of any emitter outside the chain (pure providers, context pollers,
// a unit emitting a type outside its tuple, tests).
type typePlan struct {
	def []*unitRec
}

// route is one row of an emitter's table: where its events of type t go.
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
	byType   map[event.Type]*typePlan
	emitters []emitter // indexed by unitRec.slot
}

// emptyPlan routes nothing; it is published at construction so emit never
// sees a nil plan.
var emptyPlan = &dispatchPlan{byType: map[event.Type]*typePlan{}}

// targets resolves where an event of type t emitted by from (nil: not a
// deployed unit) goes; nil when the type has no chain or its route is empty.
func (p *dispatchPlan) targets(from *unitRec, t event.Type) []*unitRec {
	if from != nil && from.slot < len(p.emitters) {
		if e := &p.emitters[from.slot]; e.rec == from {
			for i := range e.routes {
				if e.routes[i].t == t {
					return e.routes[i].targets
				}
			}
		}
	}
	if tp := p.byType[t]; tp != nil {
		return tp.def
	}
	return nil
}

// deriveLocked derives the chain of m.types[i] from the deployed units'
// resolved roles; nil when no unit provides the type. prev is the chain it
// succeeds: when the members, their order and exclusivity are the same (only
// the pure providers changed) the compiled route is prev's.
func (m *Manager) deriveLocked(i int, prev *chain) *chain {
	ch := &chain{}
	for _, rec := range m.order {
		switch r := rec.roles[i]; {
		case r&provides != 0 && r&requires != 0:
			// Interposed in the path; ordered by deployment, which also
			// precludes loops (§4.2 footnote 2).
			ch.interposers = append(ch.interposers, rec)
		case r&provides != 0:
			ch.heads = append(ch.heads, rec)
		case r&requires != 0:
			ch.terminals = append(ch.terminals, rec)
			if r&exclusive != 0 {
				ch.exclusive = append(ch.exclusive, rec)
			}
		}
	}
	if len(ch.heads)+len(ch.interposers) == 0 {
		return nil
	}
	if prev != nil && slices.Equal(prev.interposers, ch.interposers) &&
		slices.Equal(prev.terminals, ch.terminals) && slices.Equal(prev.exclusive, ch.exclusive) {
		ch.plan = prev.plan
	} else {
		ch.plan = &typePlan{def: ch.route(nil)}
	}
	return ch
}

// compileLocked compiles the published plan's successor from the current
// chains: every chain's default route, and every deployed unit's route
// table. A unit keeps the table the current plan holds for it unless its
// roles were re-resolved or one of the types it has a part in was re-derived.
func (m *Manager) compileLocked() *dispatchPlan {
	prev := m.plan.Load()
	plan := &dispatchPlan{
		byType:   make(map[event.Type]*typePlan, len(m.types)),
		emitters: make([]emitter, len(m.slots)),
	}
	for i, ch := range m.chains {
		if ch != nil {
			plan.byType[m.types[i]] = ch.plan
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
		if r != 0 && m.dirty[i] {
			return true
		}
	}
	return false
}

// routesLocked compiles rec's route table: a row, in type order, for every
// type it has a part in whose chain exists.
func (m *Manager) routesLocked(rec *unitRec) []route {
	n := 0
	for i, r := range rec.roles {
		if r != 0 && m.chains[i] != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	routes := make([]route, 0, n)
	for i, r := range rec.roles {
		if ch := m.chains[i]; r != 0 && ch != nil {
			routes = append(routes, route{t: m.types[i], targets: ch.route(rec)})
		}
	}
	return routes
}

// route resolves the delivery targets as seen by emitter from (nil: not a
// member): the next interposer after it if any remain, otherwise the
// terminal stage — the first exclusive terminal alone, else all of them —
// never the emitter itself.
func (ch *chain) route(from *unitRec) []*unitRec {
	if next := slices.Index(ch.interposers, from) + 1; next < len(ch.interposers) {
		return ch.interposers[next : next+1]
	}
	for i, rec := range ch.exclusive {
		if rec != from {
			return ch.exclusive[i : i+1]
		}
	}
	if i := slices.Index(ch.terminals, from); i >= 0 {
		return slices.Concat(ch.terminals[:i], ch.terminals[i+1:])
	}
	return ch.terminals
}

// linkSet appends the links the chain stands for in the MANETKit CF's
// architecture meta-model: heads to the first interposer, interposer to
// interposer, the last stage to each terminal.
func (ch *chain) linkSet(links []kernel.BindingInfo) []kernel.BindingInfo {
	heads := ch.heads
	link := func(from, to *unitRec) {
		links = append(links, kernel.BindingInfo{From: from.name, Receptacle: "REvents", To: to.name, Interface: "IEventSink"})
	}
	if n := len(ch.interposers); n > 0 {
		for _, h := range heads {
			link(h, ch.interposers[0])
		}
		for i := 1; i < n; i++ {
			link(ch.interposers[i-1], ch.interposers[i])
		}
		heads = ch.interposers[n-1:]
	}
	for _, h := range heads {
		for _, t := range ch.terminals {
			link(h, t)
		}
	}
	return links
}
