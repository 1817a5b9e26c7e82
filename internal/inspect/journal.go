package inspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/telemetry"
)

// Entry is one journalled reconfiguration: the virtual-clock offset at
// which a node's topology was re-derived, a derived reason, and the
// structural delta against the node's previous snapshot.
type Entry struct {
	// T is the virtual-clock offset from the journal's epoch.
	T time.Duration `json:"t_ns"`
	// Node is the reconfigured node's address.
	Node string `json:"node"`
	// Reason classifies the delta: "deploy:<units>", "undeploy:<units>",
	// "model:<old -> new>", "retuple:<units>", "recompose:<units>" or
	// "rewire".
	Reason string `json:"reason"`
	Delta  Delta  `json:"delta"`
}

// Journal records every topology re-derivation of the managers it watches
// as a timestamped snapshot diff — the replayable audit trail of serial
// protocol switches and hybrid reconfigurations. All timestamps come from
// each manager's own (virtual) clock, so journals are deterministic per
// (composition, seed).
//
// Guarantees: entries appear in hook-invocation order; every entry's delta
// is computed against the same node's previous snapshot (the baseline is
// taken when Watch is called); re-derivations that produce no structural
// change are elided. A Journal is safe for concurrent use by multiple
// managers.
type Journal struct {
	epoch time.Time
	bus   *telemetry.Bus

	mu      sync.Mutex
	prev    map[string]NodeSnapshot
	entries []Entry
}

// NewJournal creates a journal whose entry timestamps are offsets from
// epoch (use the deployment's clock epoch, e.g. testbed.Epoch). Every
// entry is also published on bus (StreamJournal, kind = the reason) in
// append order; a nil bus publishes nothing. The bus must share epoch.
func NewJournal(epoch time.Time, bus *telemetry.Bus) *Journal {
	return &Journal{epoch: epoch, bus: bus, prev: make(map[string]NodeSnapshot)}
}

// Watch hooks the manager's rewire notification: the current architecture
// becomes the node's baseline and every subsequent re-derivation appends a
// delta entry. Watching a manager replaces any previously installed rewire
// hook.
func (j *Journal) Watch(m *core.Manager) {
	base := CaptureNode(m)
	j.mu.Lock()
	j.prev[base.Node] = base
	j.mu.Unlock()
	m.SetRewireHook(func() { j.record(m) })
}

func (j *Journal) record(m *core.Manager) {
	now := m.Clock().Now()
	snap := CaptureNode(m)
	j.mu.Lock()
	defer j.mu.Unlock()
	d := DiffNode(j.prev[snap.Node], snap)
	d.Node = snap.Node
	j.prev[snap.Node] = snap
	if d.Empty() {
		return
	}
	e := Entry{
		T:      now.Sub(j.epoch),
		Node:   snap.Node,
		Reason: reasonFor(d),
		Delta:  d,
	}
	j.entries = append(j.entries, e)
	if j.bus.Active() {
		j.bus.PublishAt(e.T, telemetry.StreamJournal, e.Reason, e.Node, e)
	}
}

// reasonFor classifies a delta by its most significant change.
func reasonFor(d Delta) string {
	switch {
	case len(d.AddedUnits) > 0:
		return "deploy:" + strings.Join(d.AddedUnits, ",")
	case len(d.RemovedUnits) > 0:
		return "undeploy:" + strings.Join(d.RemovedUnits, ",")
	case d.ModelChange != "":
		return "model:" + d.ModelChange
	case len(d.TupleChanged) > 0:
		return "retuple:" + strings.Join(d.TupleChanged, ",")
	case len(d.ComponentsChanged) > 0:
		return "recompose:" + strings.Join(d.ComponentsChanged, ",")
	default:
		return "rewire"
	}
}

// Len returns the number of journalled entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Entries copies out the journal in append order.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Entry(nil), j.entries...)
}

// JSON serializes the journal deterministically as one entry per line.
func (j *Journal) JSON() ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range j.Entries() {
		line, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// String renders the journal as a human-readable reconfiguration log.
func (j *Journal) String() string {
	var b strings.Builder
	for _, e := range j.Entries() {
		fmt.Fprintf(&b, "%12s  %-12s %-24s %s\n", e.T, e.Node, e.Reason, e.Delta.String())
	}
	return b.String()
}
