package emunet

import (
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
)

// SetMetrics attaches a metrics registry to the medium. The medium's
// counts are not instruments: the registry reads them from Stats and
// EngineStats (readMetrics). Call it once, before traffic starts.
func (n *Network) SetMetrics(reg *metrics.Registry) { reg.Attach(n.readMetrics) }

// SetTelemetry hands the medium a telemetry bus (nil detaches): it records
// a span per frame sent, dropped and delivered, and publishes one
// StreamEngine event per committed engine epoch. Without a bus each span
// site costs one nil check, with a dormant one an atomic load more. Call
// before traffic starts.
func (n *Network) SetTelemetry(b *telemetry.Bus) {
	n.mu.Lock()
	n.bus = b
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
