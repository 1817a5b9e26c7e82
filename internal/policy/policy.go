// Package policy closes the paper's reconfiguration control loop (§4.5):
// MANETKit itself provides context monitoring and reconfiguration
// enactment, and "leaves the decision making to higher-level software",
// suggesting event-condition-action rules fed from context information.
// This package is that higher-level software: a small ECA rule engine that
// subscribes to a deployment's context concentrator, maintains rolling
// metrics, and fires reconfiguration actions — the combination the paper
// describes as "a complete reconfigurable system" (and lists as future
// work in §7).
package policy

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
)

// Metrics are the rolling aggregates rules can condition on, maintained
// from the context events observed so far.
type Metrics struct {
	// BatteryFraction is the last reported battery level (1.0 before any
	// report).
	BatteryFraction float64
	// Neighbors estimates the current neighbourhood size (appearances
	// minus losses).
	Neighbors int
	// MeanLinkQuality averages the last link-quality report per neighbour.
	MeanLinkQuality float64
	// LinkBreaks counts LINK_BREAK events.
	LinkBreaks uint64
	// RouteDiscoveries counts NO_ROUTE events (reactive discovery load).
	RouteDiscoveries uint64
	// EventCounts tallies every observed context/routing event by type.
	EventCounts map[event.Type]uint64
}

func (m *Metrics) clone() Metrics {
	c := *m
	c.EventCounts = make(map[event.Type]uint64, len(m.EventCounts))
	for k, v := range m.EventCounts {
		c.EventCounts[k] = v
	}
	return c
}

// Rule is one event-condition-action rule.
type Rule struct {
	// Name identifies the rule in the firing log.
	Name string
	// When filters triggering events (may be abstract, e.g. event.Context).
	When event.Type
	// Condition decides whether to fire given the triggering event and the
	// current metrics. A nil Condition always fires.
	Condition func(ev *event.Event, m Metrics) bool
	// Action enacts the reconfiguration.
	Action func() error
	// Cooldown suppresses re-firing for the given duration (0: no limit).
	Cooldown time.Duration
	// Once disables the rule after its first firing.
	Once bool
}

// Firing records one rule activation.
type Firing struct {
	Rule string
	At   time.Time
	Err  error
}

// Engine evaluates ECA rules over one node's context stream.
type Engine struct {
	mgr *core.Manager

	mu        sync.Mutex
	rules     []*ruleState
	metrics   Metrics
	linkQ     map[mnet.Addr]float64
	firings   []Firing
	suspended bool
}

type ruleState struct {
	rule      Rule
	lastFired time.Time
	hasFired  bool
	disabled  bool
}

// New attaches an engine to a deployment's context concentrator. The
// engine observes every event the concentrator sees (event.Any).
func New(mgr *core.Manager) *Engine {
	e := &Engine{
		mgr:   mgr,
		linkQ: make(map[mnet.Addr]float64),
	}
	e.metrics.BatteryFraction = 1.0
	e.metrics.EventCounts = make(map[event.Type]uint64)
	mgr.SubscribeContext(event.Any, e.observe)
	return e
}

// AddRule registers a rule. Rules are evaluated in registration order.
func (e *Engine) AddRule(r Rule) error {
	if r.Name == "" || r.Action == nil || r.When == "" {
		return fmt.Errorf("policy: rule needs a name, a trigger type and an action")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, &ruleState{rule: r})
	return nil
}

// Suspend pauses rule evaluation (metrics keep updating).
func (e *Engine) Suspend(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.suspended = on
}

// Metrics returns a snapshot of the rolling aggregates.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics.clone()
}

// Firings returns the rule activation log.
func (e *Engine) Firings() []Firing {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Firing(nil), e.firings...)
}

// observe folds one context event into the metrics and evaluates rules.
func (e *Engine) observe(ev *event.Event) {
	e.mu.Lock()
	e.metrics.EventCounts[ev.Type]++
	switch ev.Type {
	case event.PowerStatus:
		if ev.Power != nil {
			e.metrics.BatteryFraction = ev.Power.Fraction
		}
	case event.NhoodChange:
		if ev.Nhood != nil {
			switch ev.Nhood.Kind {
			case event.NeighborAppeared:
				e.metrics.Neighbors++
			case event.NeighborLost:
				if e.metrics.Neighbors > 0 {
					e.metrics.Neighbors--
				}
				delete(e.linkQ, ev.Nhood.Neighbor)
			}
		}
	case event.LinkInfo:
		if ev.Link != nil {
			e.linkQ[ev.Link.Neighbor] = ev.Link.Quality
			// Float addition is order-sensitive: sum in address order so a
			// seed replays to the same bits.
			nbs := make([]mnet.Addr, 0, len(e.linkQ))
			for nb := range e.linkQ {
				nbs = append(nbs, nb)
			}
			slices.SortFunc(nbs, mnet.Addr.Compare)
			total := 0.0
			for _, nb := range nbs {
				total += e.linkQ[nb]
			}
			e.metrics.MeanLinkQuality = total / float64(len(e.linkQ))
		}
	case event.LinkBreak:
		e.metrics.LinkBreaks++
	case event.NoRoute:
		e.metrics.RouteDiscoveries++
	}
	if e.suspended {
		e.mu.Unlock()
		return
	}
	now := e.mgr.Clock().Now()
	snapshot := e.metrics.clone()
	type pending struct {
		rs *ruleState
	}
	var due []pending
	for _, rs := range e.rules {
		if rs.disabled {
			continue
		}
		if !e.mgr.Ontology().Matches(ev.Type, rs.rule.When) {
			continue
		}
		if rs.rule.Cooldown > 0 && rs.hasFired && now.Sub(rs.lastFired) < rs.rule.Cooldown {
			continue
		}
		if rs.rule.Condition != nil && !rs.rule.Condition(ev, snapshot) {
			continue
		}
		rs.hasFired = true
		rs.lastFired = now
		if rs.rule.Once {
			rs.disabled = true
		}
		due = append(due, pending{rs: rs})
	}
	e.mu.Unlock()

	// Actions run outside the engine lock: they typically reconfigure the
	// deployment, which re-enters the framework.
	for _, p := range due {
		err := p.rs.rule.Action()
		e.mu.Lock()
		e.firings = append(e.firings, Firing{Rule: p.rs.rule.Name, At: now, Err: err})
		e.mu.Unlock()
	}
}
