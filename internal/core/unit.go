// Package core is MANETKit itself (§4 of the paper): the MANETKit CF and
// its Framework Manager, the generic ManetProtocol CF with its ManetControl
// machinery (event registry, demux, event sources and handlers, push/pop),
// the automatic event-tuple composition mechanism, the pluggable
// concurrency models, and reconfiguration enactment.
//
// The composition model is two-level:
//
//   - Coarse grained: CFS units (protocol implementations and the System
//     CF) declare <required-events, provided-events> tuples; the Framework
//     Manager derives and maintains the binding topology from them (§4.2),
//     including broadcast fan-out, exclusive receive and interposition of
//     units that both provide and require an event type.
//
//   - Fine grained: within a ManetProtocol CF, Control/Forward/State
//     elements and plug-in Event Handlers/Sources are OpenCom components
//     that can be inspected and swapped at runtime (§4.5).
package core

import (
	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// Unit is a CFS unit participating in event-tuple composition: every
// ManetProtocol CF and the System CF are Units. A Unit is an OpenCom
// component, declares an event tuple, processes events delivered to it,
// and exposes the critical section the Framework Manager serialises
// delivery and reconfiguration through.
type Unit interface {
	kernel.Component

	// Tuple returns the unit's current <required, provided> declaration.
	Tuple() event.Tuple
	// Accept processes one event. The Framework Manager calls it with the
	// unit's critical section held, so implementations are single-threaded.
	// ev is lent for the call: a borrowed event is recycled once its last
	// delivery returns.
	Accept(ev *event.Event) error
	// Section returns the unit's critical-section mutex.
	Section() *TicketMutex
	// Attach is called when the unit is deployed into a Manager, giving it
	// its emission path; Detach on undeployment.
	Attach(env *Env)
	Detach()
}

// Env is the deployment environment a Manager hands to its units: identity,
// time, and the emission path back into the framework.
type Env struct {
	// Node is the local node address.
	Node mnet.Addr
	// Clock is the deployment's time source.
	Clock vclock.Clock
	// Ontology is the deployment's event-type hierarchy.
	Ontology *event.Ontology
	// mgr is the Framework Manager the unit rec is deployed in: it routes
	// the unit's emissions, resolves co-deployed units for direct calls
	// (§4.2: "out of band" interaction via the interface meta-model) and
	// re-derives the topology when the unit's tuple changes.
	mgr *Manager
	rec *unitRec
	// metrics and obs carry the Manager's registry and instrument bundle
	// into the deployed units; obs is nil without a telemetry bus, metrics
	// without a registry.
	metrics *metrics.Registry
	obs     *observer
}

// Metrics returns the deployment's metrics registry (nil when disabled; a
// nil registry hands out nil histograms).
func (e *Env) Metrics() *metrics.Registry { return e.metrics }

// Emit routes ev from the unit this environment was built for through the
// Framework Manager's binding topology; trace spans name that unit. When
// tracing is enabled and the event carries a PacketBB message without an
// explicit correlation ID (forwarded or received messages), the Manager
// derives the ID from the message identity so every span downstream
// carries it; the plan's telemetry gate keeps the dormant path
// allocation-free.
func (e *Env) Emit(ev *event.Event) { e.emitSettled(ev) }

// emitSettled is Emit reporting whether the emission settled (Manager.emit).
func (e *Env) emitSettled(ev *event.Event) bool {
	if ev.Time.IsZero() {
		ev.Time = e.Clock.Now()
	}
	return e.mgr.emit(e.rec, ev)
}

// Unit resolves a co-deployed unit by name for direct calls.
func (e *Env) Unit(name string) (Unit, bool) { return e.mgr.Unit(name) }

// QueryUnit finds interface T on a co-deployed unit via the interface
// meta-model — the paper's direct-call path for e.g. reading another
// protocol's State element.
func QueryUnit[T any](e *Env, name string) (T, bool) {
	var zero T
	u, ok := e.mgr.Unit(name)
	if !ok {
		return zero, false
	}
	return kernel.Query[T](u)
}
