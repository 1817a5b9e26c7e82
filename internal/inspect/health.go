package inspect

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/metrics"
	"manetkit/internal/route"
	"manetkit/internal/telemetry"
)

// Level grades a health finding.
type Level string

// Finding severities. LevelOK is never attached to a finding; it is the
// resting state of a tracked unit between findings.
const (
	LevelOK   Level = "ok"
	LevelWarn Level = "warn"
	LevelCrit Level = "critical"
)

// rank orders severities for worst-of aggregation.
func rank(l Level) int {
	switch l {
	case LevelWarn:
		return 1
	case LevelCrit:
		return 2
	default:
		return 0
	}
}

// Finding is one watchdog observation.
type Finding struct {
	Node   string `json:"node,omitempty"`
	Unit   string `json:"unit,omitempty"`
	Check  string `json:"check"`
	Level  Level  `json:"level"`
	Detail string `json:"detail"`
}

// UnitState is the tracked health state of one location (node, node/unit
// or unit) across checks: its current level, when it last changed (on the
// virtual clock) and how many level transitions it has been through — the
// data behind "degraded for 3.2s, flapped 4x".
type UnitState struct {
	// Key is the location: node, node/unit or bare unit name.
	Key string `json:"key"`
	// Level is the worst finding level of the last check (LevelOK when the
	// location was clean).
	Level Level `json:"level"`
	// Since is the virtual-clock offset of the last level transition.
	Since time.Duration `json:"since_ns"`
	// Flaps counts level transitions since the location was first tracked.
	Flaps int `json:"flaps"`
}

// Transition is one health level change, published on the telemetry
// health stream the moment a Check detects it.
type Transition struct {
	// T is the virtual-clock offset of the check that saw the change.
	T time.Duration `json:"t_ns"`
	// Key is the location whose level changed.
	Key string `json:"key"`
	// From and To are the previous and new levels.
	From Level `json:"from"`
	To   Level `json:"to"`
	// Flaps is the location's transition count including this one.
	Flaps int `json:"flaps"`
}

// Report is the health roll-up of one Monitor.Check pass: empty findings
// means every watchdog was satisfied.
type Report struct {
	// T is the virtual-clock offset of the check.
	T        time.Duration `json:"t_ns"`
	Findings []Finding     `json:"findings"`
	// States carries the tracked per-location health states (every
	// location that has ever had a finding), sorted by key.
	States []UnitState `json:"states,omitempty"`
}

// Healthy reports whether the check produced no findings.
func (r Report) Healthy() bool { return len(r.Findings) == 0 }

// String renders the report as one line per finding (or "healthy"),
// followed by the degraded-state roll-up ("warn for 3.2s, flapped 4x").
func (r Report) String() string {
	var b strings.Builder
	if r.Healthy() {
		fmt.Fprintf(&b, "t=%s healthy\n", r.T)
	} else {
		fmt.Fprintf(&b, "t=%s %d findings\n", r.T, len(r.Findings))
		for _, f := range r.Findings {
			loc := f.Node
			if f.Unit != "" {
				loc += "/" + f.Unit
			}
			fmt.Fprintf(&b, "  [%s] %-18s %-22s %s\n", f.Level, f.Check, loc, f.Detail)
		}
	}
	for _, s := range r.States {
		if s.Level == LevelOK && s.Flaps == 0 {
			continue
		}
		if s.Level == LevelOK {
			fmt.Fprintf(&b, "  state %-22s recovered %s ago (flapped %dx)\n", s.Key, r.T-s.Since, s.Flaps)
			continue
		}
		fmt.Fprintf(&b, "  state %-22s %s for %s (flapped %dx)\n", s.Key, s.Level, r.T-s.Since, s.Flaps)
	}
	return b.String()
}

// Watchdog thresholds, implementation choices.
const (
	// queueWatermark flags dedicated-queue depths at or above half the
	// queue's bound.
	queueWatermark = core.DedicatedQueueBound / 2
	// dropRatio flags a node whose dropped/emitted ratio over the check
	// window exceeds it.
	dropRatio = 0.5
	// churnThreshold flags a node observing more neighbourhood changes
	// than it within one check window.
	churnThreshold = 16
)

// Target is one node under health watch: its manager and, optionally, the
// protocol route tables to check for staleness.
type Target struct {
	Node string
	Mgr  *core.Manager
	// Tables maps a protocol name to its route table; stale-route checks
	// are skipped when empty.
	Tables map[string]*route.Table
}

type watched struct {
	Target
	last    core.ManagerStats
	hasLast bool
	churn   int
}

// Monitor rolls per-unit watchdogs over the existing observability
// surfaces into a health report: dedicated-queue watermarks and overflow
// (metrics gauges/counters), dispatch-progress stalls and drop ratios
// (manager counters between successive checks), route-table staleness
// (valid entries whose every path has expired) and neighbour churn
// (NHOOD_CHANGE events per check window). It owns no goroutines — call
// Check from wherever paces the deployment (a timer, an HTTP handler, the
// end of a chaos run).
type Monitor struct {
	epoch time.Time
	reg   *metrics.Registry
	bus   *telemetry.Bus

	mu          sync.Mutex
	targets     []*watched
	lastDropped map[string]uint64
	states      map[string]*UnitState
}

// NewMonitor creates a monitor reading cluster-wide instruments from reg
// (nil disables the metrics-based checks). Report timestamps are offsets
// from epoch. Every level transition is published on bus (StreamHealth,
// kind = the level reached, node = the location key) in sorted key order
// per check, outside the monitor's lock; a nil bus publishes nothing.
func NewMonitor(epoch time.Time, reg *metrics.Registry, bus *telemetry.Bus) *Monitor {
	return &Monitor{
		epoch:       epoch,
		reg:         reg,
		bus:         bus,
		lastDropped: make(map[string]uint64),
		states:      make(map[string]*UnitState),
	}
}

// Watch adds a node to the monitor and subscribes to its neighbourhood
// change events for churn accounting.
func (m *Monitor) Watch(t Target) {
	if t.Node == "" && t.Mgr != nil {
		t.Node = t.Mgr.Node().String()
	}
	w := &watched{Target: t}
	m.mu.Lock()
	m.targets = append(m.targets, w)
	m.mu.Unlock()
	if t.Mgr != nil {
		t.Mgr.SubscribeContext(event.NhoodChange, func(*event.Event) {
			m.mu.Lock()
			w.churn++
			m.mu.Unlock()
		})
	}
}

// Check runs every watchdog once against the current state, using now (the
// deployment's virtual clock) for route-expiry evaluation, and resets the
// per-window accounting. Findings are sorted for deterministic output.
func (m *Monitor) Check(now time.Time) Report {
	r := Report{T: now.Sub(m.epoch)}

	// Cluster-wide queue watermarks and overflow from the metric registry.
	if m.reg != nil {
		snap := m.reg.Snapshot()
		m.mu.Lock()
		for name, depth := range snap.Gauges {
			unit, ok := strings.CutPrefix(name, "core_dedicated_depth:")
			if !ok {
				continue
			}
			if depth >= queueWatermark {
				r.Findings = append(r.Findings, Finding{
					Unit: unit, Check: "queue-watermark", Level: LevelWarn,
					Detail: fmt.Sprintf("dedicated queue depth %d >= watermark %d", depth, queueWatermark),
				})
			}
		}
		for name, count := range snap.Counters {
			unit, ok := strings.CutPrefix(name, "core_dedicated_dropped:")
			if !ok {
				continue
			}
			if prev := m.lastDropped[unit]; count > prev {
				r.Findings = append(r.Findings, Finding{
					Unit: unit, Check: "queue-overflow", Level: LevelWarn,
					Detail: fmt.Sprintf("%d deliveries dropped by queue overflow since last check", count-prev),
				})
			}
			m.lastDropped[unit] = count
		}
		m.mu.Unlock()
	}

	m.mu.Lock()
	targets := append([]*watched(nil), m.targets...)
	m.mu.Unlock()
	for _, w := range targets {
		m.checkTarget(w, now, &r)
	}

	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Unit < b.Unit
	})
	r.States, _ = m.advanceStates(&r)
	return r
}

// findingKey is the location a finding is tracked under: node, node/unit
// or bare unit.
func findingKey(f Finding) string {
	loc := f.Node
	if f.Unit != "" {
		if loc != "" {
			loc += "/"
		}
		loc += f.Unit
	}
	return loc
}

// advanceStates folds one check's findings into the per-location state
// machine: a location's level is the worst of its findings this pass
// (LevelOK when clean), every level change bumps its flap counter and
// resets its Since timestamp, and each change is published on the bus in
// sorted key order. Locations are tracked from their first finding on,
// so recoveries are visible as explicit ok states.
func (m *Monitor) advanceStates(r *Report) ([]UnitState, []Transition) {
	worst := make(map[string]Level, len(r.Findings))
	for _, f := range r.Findings {
		key := findingKey(f)
		if rank(f.Level) > rank(worst[key]) {
			worst[key] = f.Level
		}
	}
	m.mu.Lock()
	for key := range worst {
		if m.states[key] == nil {
			m.states[key] = &UnitState{Key: key, Level: LevelOK, Since: r.T}
		}
	}
	keys := make([]string, 0, len(m.states))
	for key := range m.states {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	states := make([]UnitState, 0, len(keys))
	var trans []Transition
	for _, key := range keys {
		st := m.states[key]
		level := worst[key]
		if level == "" {
			level = LevelOK
		}
		if level != st.Level {
			st.Flaps++
			trans = append(trans, Transition{T: r.T, Key: key, From: st.Level, To: level, Flaps: st.Flaps})
			st.Level = level
			st.Since = r.T
		}
		states = append(states, *st)
	}
	m.mu.Unlock()
	if m.bus.Active() {
		for _, t := range trans {
			m.bus.PublishAt(t.T, telemetry.StreamHealth, string(t.To), t.Key, t)
		}
	}
	return states, trans
}

func (m *Monitor) checkTarget(w *watched, now time.Time, r *Report) {
	m.mu.Lock()
	churn := w.churn
	w.churn = 0
	m.mu.Unlock()
	if churn > churnThreshold {
		r.Findings = append(r.Findings, Finding{
			Node: w.Node, Check: "neighbor-churn", Level: LevelWarn,
			Detail: fmt.Sprintf("%d neighbourhood changes this window (threshold %d)", churn, churnThreshold),
		})
	}

	if w.Mgr != nil {
		s := w.Mgr.Stats()
		m.mu.Lock()
		last, hasLast := w.last, w.hasLast
		w.last, w.hasLast = s, true
		m.mu.Unlock()
		if hasLast {
			dEmit := s.Emitted - last.Emitted
			dDeliv := s.Delivered - last.Delivered
			dDrop := s.Dropped - last.Dropped
			// Stall: routable events kept arriving but none were delivered.
			if dDeliv == 0 && dEmit > dDrop {
				r.Findings = append(r.Findings, Finding{
					Node: w.Node, Check: "dispatch-stall", Level: LevelCrit,
					Detail: fmt.Sprintf("%d events emitted this window, none delivered", dEmit),
				})
			}
			if dEmit > 0 {
				if ratio := float64(dDrop) / float64(dEmit); ratio > dropRatio {
					r.Findings = append(r.Findings, Finding{
						Node: w.Node, Check: "drop-rate", Level: LevelWarn,
						Detail: fmt.Sprintf("%.0f%% of %d emitted events dropped this window", 100*ratio, dEmit),
					})
				}
			}
		}
	}

	protos := make([]string, 0, len(w.Tables))
	for name := range w.Tables {
		protos = append(protos, name)
	}
	sort.Strings(protos)
	for _, proto := range protos {
		tbl := w.Tables[proto]
		if tbl == nil {
			continue
		}
		stale := 0
		for _, e := range tbl.Entries() {
			if !e.Valid {
				continue
			}
			if _, ok := e.Best(now); !ok {
				stale++
			}
		}
		if stale > 0 {
			r.Findings = append(r.Findings, Finding{
				Node: w.Node, Unit: proto, Check: "route-staleness", Level: LevelWarn,
				Detail: fmt.Sprintf("%d valid routes whose every path has expired", stale),
			})
		}
	}
}
