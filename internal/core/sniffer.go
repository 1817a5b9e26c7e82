package core

import (
	"fmt"

	"manetkit/internal/event"
)

// NewSniffer builds a diagnostic unit that observes every event flowing
// through the deployment it is deployed into — the packet-capture analogue
// at the framework layer. It declares a required-events set of just
// event.Any, so the ontology routes every concrete type to it; it provides
// nothing, so it never perturbs the topology.
//
// fn runs inside the sniffer's own critical section (not the observed
// protocols'), so a slow observer cannot distort protocol atomicity —
// though under the single-threaded model it still shares the one delivery
// thread. Like a handler, fn may use ev only until it returns, and copies
// what it keeps.
func NewSniffer(name string, fn func(ev *event.Event)) (*Protocol, error) {
	if name == "" {
		name = "sniffer"
	}
	p := NewProtocol(name)
	p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.Any}}})
	if err := p.AddHandler(NewHandler(name+"-tap", event.Any, func(ctx *Context, ev *event.Event) error {
		fn(ev)
		return nil
	})); err != nil {
		return nil, fmt.Errorf("core: sniffer handler: %w", err)
	}
	return p, nil
}
