package core

import (
	"manetkit/internal/event"
)

// acceptPlan is the Protocol-side half of the RCU dispatch design: everything
// Accept needs per event — the environment, the instrument bundle, a pooled
// Context, the handler list and per-event-type matched-handler tables — is
// compiled whenever the handler set or deployment changes and published via
// atomic.Pointer. The demux then runs without p.mu, without copying the
// handler slice, and without re-matching patterns against the ontology.
type acceptPlan struct {
	env *Env
	obs *protoObs
	// ctx is the pooled handler context; it is immutable (protocol + env),
	// so one value serves every delivery under this plan.
	ctx *Context
	ont *event.Ontology
	// ontVersion pins the ontology revision byType was computed against;
	// Accept rebuilds lazily when RegisterType has re-shaped the hierarchy.
	ontVersion uint64
	// handlers is the registration-order handler list, for events whose type
	// the ontology has never seen (matched by identity/Any on the fly).
	handlers []Handler
	// byType maps every ontology-known event type to the handlers whose
	// pattern it matches, in registration order.
	byType map[event.Type][]Handler
}

// rebuildAcceptPlan recompiles and publishes the accept plan; it returns the
// new plan (nil when the protocol is not deployed).
func (p *Protocol) rebuildAcceptPlan() *acceptPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rebuildAcceptPlanLocked()
}

func (p *Protocol) rebuildAcceptPlanLocked() *acceptPlan {
	if p.env == nil {
		p.plan.Store(nil)
		return nil
	}
	ont := p.env.Ontology
	plan := &acceptPlan{
		env:        p.env,
		obs:        p.obs,
		ctx:        &Context{proto: p, env: p.env},
		ont:        ont,
		ontVersion: ont.Version(),
		handlers:   append([]Handler(nil), p.handlers...),
	}
	types := ont.Types()
	plan.byType = make(map[event.Type][]Handler, len(types))
	for _, t := range types {
		var matched []Handler
		for _, h := range plan.handlers {
			if ont.Matches(t, h.Pattern()) {
				matched = append(matched, h)
			}
		}
		plan.byType[t] = matched
	}
	p.plan.Store(plan)
	return plan
}

// ctxFor returns the plan's pooled Context when it belongs to env, avoiding a
// per-call allocation on timer and lifecycle paths. The fallback is only
// reached mid-rewire, when the plan is stale.
func (p *Protocol) ctxFor(env *Env) *Context {
	if plan := p.plan.Load(); plan != nil && plan.env == env {
		return plan.ctx
	}
	return &Context{proto: p, env: env}
}
