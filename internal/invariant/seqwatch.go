package invariant

import (
	"fmt"
	"sync"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/system"
)

// seqKind distinguishes the sequence-number spaces the watcher tracks.
type seqKind uint8

const (
	seqHeader  seqKind = iota // message-header SeqNum per (originator, type)
	seqOrigSeq                // DYMO/AODV ATLVOrigSeq per originator address
)

type seqKey struct {
	orig mnet.Addr
	typ  packetbb.MsgType
	kind seqKind
}

// SeqWatcher is the live monotonic-sequence-number invariant: installed as
// the medium tap (Network.SetTap(w.Observe)), it reads every delivered
// control frame through the transmission's shared decode
// (system.DecodeControl) and checks that each originator's sequence
// numbers — the message-header SeqNum and the DYMO/AODV originator sequence
// number TLV — never move backwards.
//
// Only first-hop transmissions (frame source == message originator) are
// checked: forwarded copies legitimately carry old numbers. Corrupted
// frames (Frame.Corrupted, the FCS-would-have-failed marker) are ignored,
// as are frames that fail to decode. A step back of up to seqTolerance
// absorbs reorder jitter; wraparound near 0xffff is allowed. Call Forget
// when a node legitimately reboots with state loss.
type SeqWatcher struct {
	mu     sync.Mutex
	last   map[seqKey]uint16
	frames uint64
	violas []Violation
}

// seqTolerance is how far a sequence number may step back (reorder
// allowance) before it counts as a violation.
const seqTolerance = 16

// NewSeqWatcher returns a watcher.
func NewSeqWatcher() *SeqWatcher {
	return &SeqWatcher{last: make(map[seqKey]uint16)}
}

// Observe is the medium-tap entry point: Network.SetTap(w.Observe).
func (w *SeqWatcher) Observe(f emunet.Frame, receiver mnet.Addr) {
	if f.Corrupted {
		return
	}
	pkt, err := system.DecodeControl(f)
	if err != nil {
		return // a data frame, or mangled in flight: the decoder-robustness fuzzers own that
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frames++
	for i := range pkt.Messages {
		m := &pkt.Messages[i]
		if !m.HasOriginator || m.Originator != f.Src {
			continue // forwarded copy: old numbers are legitimate
		}
		if m.HasSeqNum {
			w.observeLocked(seqKey{m.Originator, m.Type, seqHeader}, m.SeqNum,
				fmt.Sprintf("%v %v header seq", m.Originator, m.Type))
		}
		for bi := range m.AddrBlocks {
			b := &m.AddrBlocks[bi]
			for ai, addr := range b.Addrs {
				if addr != m.Originator {
					continue
				}
				tlv, ok := b.AddrTLVFor(packetbb.ATLVOrigSeq, ai)
				if !ok {
					continue
				}
				seq, err := packetbb.ParseU16(tlv.Value)
				if err != nil {
					continue
				}
				w.observeLocked(seqKey{addr, m.Type, seqOrigSeq}, seq,
					fmt.Sprintf("%v %v originator seq", addr, m.Type))
			}
		}
	}
}

func (w *SeqWatcher) observeLocked(k seqKey, cur uint16, what string) {
	last, seen := w.last[k]
	if !seen {
		w.last[k] = cur
		return
	}
	delta := cur - last // uint16 arithmetic: wraparound-aware
	switch {
	case delta == 0:
		// Duplicate delivery: fine.
	case delta < 0x8000:
		w.last[k] = cur // moved forward (possibly wrapping)
	default:
		if back := last - cur; back > seqTolerance {
			w.violas = append(w.violas, Violation{
				Checker: "monotonic-seq",
				Node:    k.orig,
				Detail:  fmt.Sprintf("%s went backwards: %d after %d", what, cur, last),
			})
		}
	}
}

// Forget clears the watcher's memory of an originator — call it when the
// node legitimately restarts with state loss, which may reset its counters.
func (w *SeqWatcher) Forget(orig mnet.Addr) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k := range w.last {
		if k.orig == orig {
			delete(w.last, k)
		}
	}
}

// Frames returns how many control frames the watcher has decoded.
func (w *SeqWatcher) Frames() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames
}

// Violations returns the breaches observed so far, sorted.
func (w *SeqWatcher) Violations() []Violation {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := append([]Violation(nil), w.violas...)
	SortViolations(out)
	return out
}
