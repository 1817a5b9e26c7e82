package core

// The observability bundle: the telemetry bus and the node's name, resolved
// once, when the Manager is constructed, and kept as plain pointers so the
// hot paths (emit, deliver, Accept) never look them up. The Manager hands
// its bundle to every unit it deploys. Counts are not instruments: the
// registry reads them from ManagerStats and the units' own Stats. Without
// a bus the bundle itself is nil, making the entire instrumented path a
// single nil check — the property the overhead guard test pins down. A
// span site tests active (one atomic load) before it reads the clock or
// builds the span.

import (
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/pool"
	"manetkit/internal/telemetry"
)

// observer is a deployment's instrument bundle.
type observer struct {
	bus     *telemetry.Bus
	nodeStr string
}

// newObserver returns nil when the deployment has no bus.
func newObserver(node mnet.Addr, bus *telemetry.Bus) *observer {
	if bus == nil {
		return nil
	}
	return &observer{bus: bus, nodeStr: node.String()}
}

// active reports whether a span recorded now would be kept: one nil check
// and, with a bus, one atomic load. Span sites test it before they read
// the clock or build the span.
func (o *observer) active() bool { return o != nil && o.bus.Active() }

// watchQueue reports a dedicated pool's queue depth and overflow count to
// reg under the unit's name until the returned func is called; the count
// stays with the registry after that.
func watchQueue(reg *metrics.Registry, name string, p *pool.Pool) (unwatch func()) {
	depth := reg.AttachGauge("core_dedicated_depth:"+name, func() int64 { return int64(p.Stats().Queued) })
	dropped := reg.Attach(func(emit func(string, uint64)) {
		emit("core_dedicated_dropped:"+name, p.Stats().Dropped)
	})
	return func() {
		depth()
		dropped()
	}
}
