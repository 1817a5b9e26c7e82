package emunet

import (
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
)

// netObs bundles the medium's telemetry bus and histogram, resolved once
// in SetMetrics / SetTelemetry so the per-frame paths never consult the
// registry. A nil bundle (observability disabled) costs one nil check per
// frame, a dormant bus one atomic load more. The medium's counts are not
// instruments: the registry reads them from Stats and EngineStats
// (readMetrics).
type netObs struct {
	reg *metrics.Registry
	bus *telemetry.Bus

	linkDelay *metrics.Histogram // per-delivery scheduled link delay
}

func newNetObs(reg *metrics.Registry, bus *telemetry.Bus) *netObs {
	if reg == nil && bus == nil {
		return nil
	}
	return &netObs{reg: reg, bus: bus, linkDelay: reg.Histogram("net_link_delay")}
}

// SetMetrics attaches a metrics registry to the medium. Call it once,
// before traffic starts.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.setObs(reg, n.observer().bus)
	reg.Attach(n.readMetrics)
}

// SetTelemetry hands the medium a telemetry bus (nil detaches, unless a
// metrics registry is still installed): it records a span per frame sent,
// dropped and delivered, and publishes one StreamEngine event per
// committed engine epoch. Call before traffic starts.
func (n *Network) SetTelemetry(b *telemetry.Bus) { n.setObs(n.observer().reg, b) }

// observer returns a copy of the current bundle (empty when there is none).
func (n *Network) observer() netObs {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.obs == nil {
		return netObs{}
	}
	return *n.obs
}

// setObs installs the bundle for reg and b. The registry reads the medium
// under n.mu, so the bundle's histogram is resolved outside it.
func (n *Network) setObs(reg *metrics.Registry, b *telemetry.Bus) {
	obs := newNetObs(reg, b)
	n.mu.Lock()
	n.obs = obs
	n.mu.Unlock()
}

// readMetrics reports the medium's Stats and the event core's EngineStats
// to a metrics registry.
func (n *Network) readMetrics(emit func(name string, v uint64)) {
	s := n.Stats()
	emit("net_tx_frames", s.TxFrames)
	emit("net_rx_frames", s.RxFrames)
	emit("net_dropped_loss", s.DroppedLoss)
	emit("net_dropped_nolink", s.DroppedNoLink)
	emit("net_rx_corrupted", s.RxCorrupted)
	eng, _ := n.EngineStats()
	emit("net_engine_epochs", eng.Epochs)
	emit("net_engine_epoch_events", eng.Events)
}

// traceTo renders a frame destination for spans.
func traceTo(dst mnet.Addr) string {
	if dst.IsBroadcast() {
		return "bcast"
	}
	return dst.String()
}
