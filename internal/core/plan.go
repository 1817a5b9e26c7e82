package core

import (
	"slices"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
)

// The dispatch plan is the RCU half of the Framework Manager: every topology
// mutation (Deploy, Undeploy, Rewire, SetTuple, concurrency-model changes
// funnelled through Rewire) re-derives the chains it touched, compiles them
// into an immutable plan and publishes it via atomic.Pointer. The
// steady-state emit path then routes with two map probes over immutable data
// — no manager mutex, no per-emission target-list rebuild — while
// reconfiguration stays correct because nothing reachable from a plan is
// mutated after publication: readers see either the whole old topology or
// the whole new one. The chains a rewire did not touch keep their typePlan,
// which successive dispatch plans therefore share.

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

// typePlan is the compiled route for one concrete event type. Routing depends
// on the emitter only through its position in the interposer chain and the
// skip-self rule at the terminal stage, so perFrom holds the chain's members;
// any other emitter (pure providers, context pollers, tests) takes def.
type typePlan struct {
	perFrom map[string][]*unitRec
	def     []*unitRec
}

// dispatchPlan is one immutable compilation of the whole event topology.
type dispatchPlan struct {
	byType map[event.Type]*typePlan
}

// emptyPlan routes nothing; it is published at construction so emit never
// sees a nil plan.
var emptyPlan = &dispatchPlan{byType: map[event.Type]*typePlan{}}

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
		ch.plan = ch.compile()
	}
	return ch
}

// compile resolves the chain's routes per member at derivation time.
func (ch *chain) compile() *typePlan {
	tp := &typePlan{
		perFrom: make(map[string][]*unitRec, len(ch.interposers)+len(ch.terminals)),
		def:     ch.route(nil),
	}
	for _, rec := range ch.interposers {
		tp.perFrom[rec.name] = ch.route(rec)
	}
	for _, rec := range ch.terminals {
		tp.perFrom[rec.name] = ch.route(rec)
	}
	return tp
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
