package core

// Observability bundles: histograms are resolved once, when a Manager or
// Protocol is constructed/attached, and kept as plain pointers so the hot
// paths (emit, deliver, Accept) never touch the registry. Counts are not
// instruments: the registry reads them from ManagerStats and the units'
// own Stats. When both the metrics registry and the telemetry bus are
// absent the bundle itself is nil, making the entire instrumented path a
// single nil check — the property the overhead guard test pins down. A
// span site tests the bus's Active (one atomic load) before it reads the
// clock or builds the span.

import (
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/pool"
	"manetkit/internal/telemetry"
)

// managerObs is the Framework Manager's instrument bundle.
type managerObs struct {
	bus     *telemetry.Bus
	nodeStr string

	rewireLat  *metrics.Histogram // deployment-clock time to re-derive the topology
	ticketWait *metrics.Histogram // deployment-clock time a shepherd waited on its ticket
}

// newManagerObs returns nil when observability is fully disabled.
func newManagerObs(node mnet.Addr, reg *metrics.Registry, bus *telemetry.Bus) *managerObs {
	if reg == nil && bus == nil {
		return nil
	}
	return &managerObs{
		bus:        bus,
		nodeStr:    node.String(),
		rewireLat:  reg.Histogram("core_rewire_latency"),
		ticketWait: reg.Histogram("core_ticket_wait"),
	}
}

// protoObs is a Protocol's instrument bundle, rebuilt on every Attach.
type protoObs struct {
	bus        *telemetry.Bus
	nodeStr    string
	handlerLat *metrics.Histogram // deployment-clock time per handler invocation
}

// newProtoObs returns nil when the deployment carries no observability.
func newProtoObs(env *Env) *protoObs {
	if env == nil || (env.metrics == nil && env.bus == nil) {
		return nil
	}
	return &protoObs{
		bus:        env.bus,
		nodeStr:    env.Node.String(),
		handlerLat: env.metrics.Histogram("core_handler_latency"),
	}
}

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
