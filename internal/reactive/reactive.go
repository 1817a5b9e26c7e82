// Package reactive is what the reactive protocols (AODV, DYMO, ZRP) share
// of route discovery, and the duplicate set the MPR and gossip flooders
// share with them. The data — a hold-time duplicate set, a pending-discovery
// table and a 16-bit sequence counter — are plain values. State bundles them
// with the route table under the one lock a protocol's S element embeds, and
// Discovery owns the lifecycle: it starts a discovery, arms and runs the
// retry timer, gives up or completes, refreshes routes in use, hands link
// loss to the protocol, sweeps and stops. A protocol keeps only its message
// rules (Rules): the request it sends, its retry policy and what a lost
// link invalidates.
package reactive

import (
	"time"

	"manetkit/internal/flat"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// DupHold is how long a duplicate-set entry outlives its latest sighting.
// A set swept every P therefore holds at most rate × (DupHold + P) entries
// under a steady flood of distinct messages.
const DupHold = 30 * time.Second

// Key identifies a flooded message: its originator and sequence number.
type Key struct {
	Orig mnet.Addr
	Seq  uint16
}

// pack folds k into the set's 8-byte table key: Orig above Seq.
func (k Key) pack() uint64 { return uint64(k.Orig.Uint32())<<16 | uint64(k.Seq) }

func unpack(p uint64) Key { return Key{Orig: mnet.AddrFrom(uint32(p >> 16)), Seq: uint16(p)} }

// DupSet holds each recently seen message's latest sighting. The zero value
// is an empty set. A sighting is kept as nanoseconds past base, the time of
// the Seen that found the set empty, taken with Sub so a clock's monotonic
// reading is kept. The set is one flat table of 16-byte {key, sighting}
// slots that hold no pointer, so the collector skips its contents.
type DupSet struct {
	seen flat.Table[uint64, int64]
	base time.Time
}

// Seen records k as seen at now and reports whether it was already present.
// It is one probe sequence, whether or not k is held.
func (s *DupSet) Seen(k Key, now time.Time) bool {
	if s.seen.Len() == 0 {
		s.base = now
	}
	at, dup := s.seen.Upsert(k.pack())
	*at = int64(now.Sub(s.base))
	return dup
}

// Has reports whether k is held, without recording a sighting.
func (s *DupSet) Has(k Key) bool {
	_, ok := s.seen.Get(k.pack())
	return ok
}

// Len returns the number of entries held.
func (s *DupSet) Len() int { return s.seen.Len() }

// Sweep drops every entry last seen more than hold before now, passing each
// dropped key to dropped when it is non-nil. It works in place.
func (s *DupSet) Sweep(now time.Time, hold time.Duration, dropped func(Key)) {
	if s.seen.Len() == 0 {
		return
	}
	at := int64(now.Sub(s.base))
	s.seen.DeleteFunc(func(p uint64, t int64) bool {
		if at-t <= int64(hold) {
			return false
		}
		if dropped != nil {
			dropped(unpack(p))
		}
		return true
	})
}

// discovery is one pending route discovery.
type discovery struct {
	tries   int          // attempts sent so far
	ttl     uint8        // hop limit of the latest attempt
	timer   vclock.Timer // the latest attempt's retry timer
	started time.Time
}

// Discoveries is the pending-discovery table, keyed by destination. Make it
// with make.
type Discoveries map[mnet.Addr]*discovery

// Start opens a discovery for dst at now, or returns false if one is pending.
func (t Discoveries) Start(dst mnet.Addr, now time.Time) bool {
	if _, ok := t[dst]; ok {
		return false
	}
	t[dst] = &discovery{started: now}
	return true
}

// Arm records that attempt went out with hop limit ttl and that timer
// retries it. If the discovery has ended meanwhile, it stops timer instead.
func (t Discoveries) Arm(dst mnet.Addr, attempt int, ttl uint8, timer vclock.Timer) {
	if d, ok := t[dst]; ok {
		d.tries, d.ttl, d.timer = attempt, ttl, timer
	} else {
		timer.Stop()
	}
}

// Due reports whether attempt is still dst's latest one, with the hop limit
// it went out with; a stale retry timer gets false.
func (t Discoveries) Due(dst mnet.Addr, attempt int) (ttl uint8, ok bool) {
	d, ok := t[dst]
	if !ok || d.tries != attempt {
		return 0, false
	}
	return d.ttl, true
}

// GiveUp abandons dst's discovery.
func (t Discoveries) GiveUp(dst mnet.Addr) { delete(t, dst) }

// Complete ends dst's discovery, stopping its retry timer, and returns when
// it started; ok is false if none was pending.
func (t Discoveries) Complete(dst mnet.Addr) (started time.Time, ok bool) {
	d, ok := t[dst]
	if !ok {
		return time.Time{}, false
	}
	if d.timer != nil {
		d.timer.Stop()
	}
	delete(t, dst)
	return d.started, true
}

// StopAll abandons every pending discovery and stops its timer.
func (t Discoveries) StopAll() {
	for dst, d := range t {
		if d.timer != nil {
			d.timer.Stop()
		}
		delete(t, dst)
	}
}

// Seq is a node's 16-bit sequence number. It never issues 0, which the
// protocols' messages read as "unknown".
type Seq uint16

// Next advances the counter, skipping 0, and returns the new value.
func (s *Seq) Next() uint16 {
	*s++
	if *s == 0 {
		*s = 1
	}
	return uint16(*s)
}
