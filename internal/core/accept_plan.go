package core

import (
	"manetkit/internal/event"
)

// acceptPlan is the Protocol-side half of the RCU dispatch design: everything
// Accept needs per event — the environment, the instrument bundle, a pooled
// Context, the handler list and the matched-handler table — is compiled
// whenever the handler set or deployment changes and published via
// atomic.Pointer. The demux then runs without p.mu, without copying the
// handler slice, and, for a type some handler matches, without hashing a
// string or re-matching patterns against the ontology.
type acceptPlan struct {
	env *Env
	obs *observer // the deployment's bundle, read here on every delivery
	// ctx is the pooled handler context; it is immutable (protocol + env),
	// so one value serves every delivery under this plan.
	ctx *Context
	ont *event.Ontology
	// ontVersion pins the ontology revision matched was computed against;
	// Accept rebuilds lazily when RegisterType has re-shaped the hierarchy.
	ontVersion uint64
	// handlers is the registration-order handler list, matched on the fly
	// against a type matched has no row for: one no handler's pattern
	// matches, or one the ontology had not seen at compilation.
	handlers []Handler
	// matched has a row for each ontology-known type some handler's pattern
	// matches, in ontology order: rows[lo:hi], in registration order.
	matched []handlerRow
	rows    []Handler
	traced  bool // the bus's gate when published; a flip republishes
}

// handlerRow is one row of an accept plan's matched-handler table.
type handlerRow struct {
	t      event.Type
	lo, hi int32
}

// matchedFor returns the handlers compiled for t; ok is false when matched
// has no row for it.
func (plan *acceptPlan) matchedFor(t event.Type) (handlers []Handler, ok bool) {
	for i := range plan.matched {
		if r := &plan.matched[i]; r.t == t {
			return plan.rows[r.lo:r.hi], true
		}
	}
	return nil, false
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
		obs:        p.env.obs,
		ctx:        &Context{proto: p, env: p.env},
		ont:        ont,
		ontVersion: ont.Version(),
		handlers:   p.handlers,
		traced:     p.env.obs.active(),
	}
	// Collect on the stack, then copy into tables sized to fit.
	var matchedBuf [32]handlerRow
	var rowsBuf [128]Handler
	matched, rows := matchedBuf[:0], rowsBuf[:0]
	for _, t := range ont.Types() {
		lo := int32(len(rows))
		for _, h := range plan.handlers {
			if ont.Matches(t, h.Pattern()) {
				rows = append(rows, h)
			}
		}
		if hi := int32(len(rows)); hi > lo {
			matched = append(matched, handlerRow{t: t, lo: lo, hi: hi})
		}
	}
	plan.matched = append(make([]handlerRow, 0, len(matched)), matched...)
	plan.rows = append(make([]Handler, 0, len(rows)), rows...)
	p.plan.Store(plan)
	return plan
}

// retrace republishes a shallow copy of the accept plan with the bus's gate.
func (p *Protocol) retrace() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan := p.plan.Load(); plan != nil && plan.traced != plan.obs.active() {
		next := *plan
		next.traced = !plan.traced
		p.plan.Store(&next)
	}
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
