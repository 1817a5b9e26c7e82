// Package inspect is MANETKit's runtime-introspection layer: it turns the
// reflective architecture meta-model (§4.2, the deployed units and the
// bindings the Framework Manager derives from their event tuples) into
// artifacts an operator can diff, render and correlate without reading
// source code.
//
// Four facilities, all consuming existing reflective surfaces:
//
//   - meta-model snapshots (this file, dot.go): the live deployment —
//     nodes × CFs × units × event-tuple bindings × concurrency model —
//     serialized to deterministic JSON and Graphviz DOT;
//   - structural diffs (diff.go): Diff(a, b) names inserted/removed units
//     and changed bindings between two snapshots;
//   - the rewire journal (journal.go): every topology re-derivation
//     appends a virtual-clock-timestamped snapshot diff, so serial
//     protocol switches replay as a sequence of graph deltas;
//   - causal packet paths (paths.go) and per-unit health (health.go) over
//     the trace and metrics layers.
//
// Everything is deterministic under the virtual clock: the same
// (composition, seed) yields byte-identical snapshot JSON, journals and
// path reconstructions — the property the inspect tests pin.
package inspect

import (
	"bytes"
	"encoding/json"
	"sort"

	"manetkit/internal/core"
)

// UnitSnapshot describes one deployed CFS unit: its event tuple, its
// concurrency placement and (for ManetProtocol CFs) its inner composition.
type UnitSnapshot struct {
	Name string `json:"name"`
	// Required lists the unit's required event types in declaration order;
	// exclusive-receive requirements carry a "!" suffix.
	Required []string `json:"required,omitempty"`
	// Provided lists the unit's provided event types in declaration order.
	Provided []string `json:"provided,omitempty"`
	// Dedicated marks units running the thread-per-ManetProtocol model.
	Dedicated bool `json:"dedicated,omitempty"`
	// Started reports lifecycle state for ManetProtocol CFs.
	Started bool `json:"started,omitempty"`
	// Components lists the unit's inner CF composition (handlers, sources,
	// C/F/S elements) in registration order; empty for non-CF units or
	// sealed deployments.
	Components []string `json:"components,omitempty"`
}

// BindingSnapshot is one receptacle-to-interface binding from the MANETKit
// CF's architecture meta-model — one link of the derived event-delivery
// topology.
type BindingSnapshot struct {
	From       string `json:"from"`
	Receptacle string `json:"receptacle"`
	To         string `json:"to"`
	Interface  string `json:"interface"`
}

// NodeSnapshot is one node's deployment: its concurrency model, units in
// deployment order and the derived bindings (sorted).
type NodeSnapshot struct {
	Node     string            `json:"node"`
	Model    string            `json:"model"`
	Units    []UnitSnapshot    `json:"units"`
	Bindings []BindingSnapshot `json:"bindings,omitempty"`
}

// Snapshot is a whole deployment: every node's meta-model, sorted by node
// address string so the serialization is order-independent.
type Snapshot struct {
	Nodes []NodeSnapshot `json:"nodes"`
}

// CaptureNode reads one Manager's reflective surfaces into a NodeSnapshot.
// It takes the manager's internal locks through the public accessors, so it
// must not be called while holding them (the rewire hook runs outside the
// lock for exactly this reason).
func CaptureNode(m *core.Manager) NodeSnapshot {
	ns := NodeSnapshot{
		Node:  m.Node().String(),
		Model: m.Model().String(),
	}
	for _, name := range m.Units() {
		u, ok := m.Unit(name)
		if !ok {
			continue // undeployed between Units() and Unit()
		}
		us := UnitSnapshot{Name: name, Dedicated: m.DedicatedThread(name)}
		t := u.Tuple()
		for _, r := range t.Required {
			s := string(r.Type)
			if r.Exclusive {
				s += "!"
			}
			us.Required = append(us.Required, s)
		}
		for _, p := range t.Provided {
			us.Provided = append(us.Provided, string(p))
		}
		if p, ok := u.(*core.Protocol); ok {
			us.Started = p.Started()
			us.Components = append(us.Components, p.CF().Arch().Components...)
		}
		ns.Units = append(ns.Units, us)
	}
	for _, b := range m.Arch().Bindings {
		ns.Bindings = append(ns.Bindings, BindingSnapshot{
			From: b.From, Receptacle: b.Receptacle, To: b.To, Interface: b.Interface,
		})
	}
	return ns
}

// Capture snapshots a whole deployment from its managers.
func Capture(mgrs ...*core.Manager) Snapshot {
	var s Snapshot
	for _, m := range mgrs {
		s.Nodes = append(s.Nodes, CaptureNode(m))
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].Node < s.Nodes[j].Node })
	return s
}

func sortBindings(bs []BindingSnapshot) {
	sort.Slice(bs, func(i, j int) bool {
		a, b := bs[i], bs[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Receptacle != b.Receptacle {
			return a.Receptacle < b.Receptacle
		}
		return a.Interface < b.Interface
	})
}

// JSON serializes the snapshot deterministically: fixed field order, sorted
// nodes and bindings, two-space indent, trailing newline. Two captures of
// identical deployments are byte-identical.
func (s Snapshot) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseSnapshot inverts JSON, so a snapshot round-trips losslessly through
// its serialized form (the property the DOT round-trip test pins).
func ParseSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}
