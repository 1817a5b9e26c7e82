package emunet

import (
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/trace"
)

// netObs bundles the medium's tracer and histogram, resolved once in
// SetMetrics / SetTracer so the per-frame paths never consult the
// registry. A nil bundle (observability disabled) costs one nil check per
// frame. The medium's counts are not instruments: the registry reads them
// from Stats and EngineStats (readMetrics).
type netObs struct {
	reg    *metrics.Registry
	tracer *trace.Tracer

	linkDelay *metrics.Histogram // per-delivery scheduled link delay
}

func newNetObs(reg *metrics.Registry, tr *trace.Tracer) *netObs {
	if reg == nil && tr == nil {
		return nil
	}
	return &netObs{reg: reg, tracer: tr, linkDelay: reg.Histogram("net_link_delay")}
}

// SetMetrics attaches a metrics registry to the medium. Call it once,
// before traffic starts.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.setObs(reg, n.observer().tracer)
	reg.Attach(n.readMetrics)
}

// SetTracer attaches a span tracer to the medium (nil detaches, unless a
// metrics registry is still installed). Call before traffic starts.
func (n *Network) SetTracer(tr *trace.Tracer) { n.setObs(n.observer().reg, tr) }

// observer returns a copy of the current bundle (empty when there is none).
func (n *Network) observer() netObs {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.obs == nil {
		return netObs{}
	}
	return *n.obs
}

// setObs installs the bundle for reg and tr. The registry reads the medium
// under n.mu, so the bundle's histogram is resolved outside it.
func (n *Network) setObs(reg *metrics.Registry, tr *trace.Tracer) {
	obs := newNetObs(reg, tr)
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
