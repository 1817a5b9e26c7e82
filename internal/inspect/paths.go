package inspect

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"manetkit/internal/telemetry"
)

// Hop is one link traversal of a correlated message: the frame-tx on the
// sending node matched to the frame-rx on the receiving node, with the
// virtual-clock latency between them.
type Hop struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Tx and Rx are virtual-clock offsets of the matched frame-tx and
	// frame-rx spans.
	Tx time.Duration `json:"tx_ns"`
	Rx time.Duration `json:"rx_ns"`
	// Latency is Rx - Tx: the per-hop link delay the medium applied.
	Latency time.Duration `json:"latency_ns"`
}

// Path is the end-to-end reconstruction of one correlated message: every
// hop it took across the network, stitched from the trace spans of all
// nodes. A flooded RREQ yields one Path whose hops form the flood tree; the
// unicast RREP yields another whose hops form the reply chain.
type Path struct {
	Corr string `json:"corr"`
	// Origin is the node that first touched the message (usually its
	// originator's emit span).
	Origin string `json:"origin"`
	// Start and End bound the message's lifetime in the trace.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Hops are the completed link traversals in arrival order.
	Hops []Hop `json:"hops,omitempty"`
	// Drops counts frame-drop spans (loss, no link) for this message.
	Drops int `json:"drops,omitempty"`
	// Spans is the total number of trace spans carrying this correlation
	// ID (emit, dispatch, handle and frame spans across all nodes).
	Spans int `json:"spans"`
}

// Correlate stitches the spans of a whole cluster (one shared bus's
// Bus.Spans) into per-message causal paths. Spans with an empty correlation ID are ignored.
// Each frame-rx is matched to the latest preceding frame-tx with the same
// correlation ID on the sending node, which handles both unicast chains and
// broadcast fan-out (one tx, many rx). The result is ordered by first
// appearance in the trace, so it is deterministic for a deterministic
// trace.
func Correlate(spans []telemetry.Span) []Path {
	groups := make(map[string][]telemetry.Span)
	var order []string
	for _, s := range spans {
		if s.Corr == "" {
			continue
		}
		if _, ok := groups[s.Corr]; !ok {
			order = append(order, s.Corr)
		}
		groups[s.Corr] = append(groups[s.Corr], s)
	}
	out := make([]Path, 0, len(order))
	for _, corr := range order {
		out = append(out, correlateOne(corr, groups[corr]))
	}
	return out
}

func correlateOne(corr string, spans []telemetry.Span) Path {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].T != spans[j].T {
			return spans[i].T < spans[j].T
		}
		return spans[i].Seq < spans[j].Seq
	})
	p := Path{
		Corr:   corr,
		Origin: spans[0].Node,
		Start:  spans[0].T,
		End:    spans[len(spans)-1].T,
		Spans:  len(spans),
	}
	txByNode := make(map[string][]telemetry.Span)
	for _, s := range spans {
		switch s.Kind {
		case telemetry.KindFrameTx:
			txByNode[s.Node] = append(txByNode[s.Node], s)
		case telemetry.KindFrameDrop:
			p.Drops++
		case telemetry.KindFrameRx:
			txs := txByNode[s.From]
			// Latest tx on the sending node at or before the rx.
			best := -1
			for i, tx := range txs {
				if tx.T <= s.T {
					best = i
				}
			}
			if best < 0 {
				continue // rx without a visible tx (trace truncation)
			}
			tx := txs[best]
			p.Hops = append(p.Hops, Hop{
				From: s.From, To: s.Node,
				Tx: tx.T, Rx: s.T, Latency: s.T - tx.T,
			})
		}
	}
	return p
}

// Tree renders the path's hops as the message's propagation tree rooted at
// its origin: a flooded RREQ shows its actual flood tree, a unicast RREP a
// single chain. Hops into already-visited nodes are printed (they are real
// redundant arrivals) but not expanded.
func (p Path) Tree() string {
	children := make(map[string][]Hop)
	for _, h := range p.Hops {
		children[h.From] = append(children[h.From], h)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  spans=%d drops=%d  t=%s..%s\n", p.Corr, p.Spans, p.Drops, p.Start, p.End)
	visited := map[string]bool{p.Origin: true}
	var walk func(node string, depth int)
	walk = func(node string, depth int) {
		for _, h := range children[node] {
			fmt.Fprintf(&b, "%s%s -> %s  (+%s)\n",
				strings.Repeat("  ", depth+1), h.From, h.To, h.Latency)
			if !visited[h.To] {
				visited[h.To] = true
				walk(h.To, depth+1)
			}
		}
	}
	walk(p.Origin, 0)
	return b.String()
}

// RenderPaths renders up to limit reconstructed paths as propagation trees
// (limit <= 0 renders all), noting how many were elided.
func RenderPaths(paths []Path, limit int) string {
	var b strings.Builder
	n := len(paths)
	if limit > 0 && limit < n {
		n = limit
	}
	for i := 0; i < n; i++ {
		b.WriteString(paths[i].Tree())
	}
	if n < len(paths) {
		fmt.Fprintf(&b, "... %d more paths elided\n", len(paths)-n)
	}
	return b.String()
}
