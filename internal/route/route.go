// Package route provides the routing-table building blocks listed among
// MANETKit's reusable components (Table 3 of the paper): a protocol-facing
// RIB template with prefix matching, lifetimes and multipath entries, and a
// simulated kernel FIB standing in for the OS forwarding table that the
// System CF's State element manipulates.
package route

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// Path is one next-hop alternative towards a destination. Multipath DYMO
// (§5.2) stores several link-disjoint paths per entry; the base protocols
// store exactly one.
type Path struct {
	NextHop mnet.Addr
	Metric  int       // hop count
	Expires time.Time // zero means no expiry
}

// Entry is one RIB route.
type Entry struct {
	Dst   mnet.Prefix
	Paths []Path
	// SeqNum is the destination sequence number (loop freedom in DYMO).
	SeqNum uint16
	// Valid distinguishes usable routes from invalidated ones retained for
	// their sequence numbers.
	Valid bool
	// Proto names the owning protocol ("olsr", "dymo", …).
	Proto string

	// mark is the ReplaceProto sweep generation that last confirmed this
	// entry as desired; entries owned by the sweeping protocol whose mark is
	// stale at the end of a sweep have vanished and are removed.
	mark uint64
}

// Best returns the lowest-metric unexpired path at time now.
func (e *Entry) Best(now time.Time) (Path, bool) {
	best := -1
	for i, p := range e.Paths {
		if !p.Expires.IsZero() && !p.Expires.After(now) {
			continue
		}
		if best < 0 || p.Metric < e.Paths[best].Metric {
			best = i
		}
	}
	if best < 0 {
		return Path{}, false
	}
	return e.Paths[best], true
}

// ErrNoRoute is returned by lookups that find no usable route.
var ErrNoRoute = errors.New("route: no route to destination")

// ChangeKind classifies RIB change notifications.
type ChangeKind uint8

// RIB change kinds.
const (
	Added ChangeKind = iota + 1
	Updated
	Invalidated
	Removed
)

// Table is the RIB template: thread-safe, lifetime-aware, with
// longest-prefix-match lookup and change notification. Construct with
// NewTable.
type Table struct {
	clock vclock.Clock

	mu       sync.Mutex
	entries  map[mnet.Prefix]*Entry
	onChange func(ChangeKind, Entry)
	fib      *FIB
	fibDev   string

	// Batch diff-install state: the mark generation distinguishes entries
	// touched by the current ReplaceProto sweep, and the scratch slices are
	// reused across sweeps so a no-op recompute stays allocation-free.
	markGen uint64
	removed []mnet.Prefix
}

// NewTable returns an empty RIB on the given clock. A routing CF passes nil
// and binds the table to its deployment with Bind.
func NewTable(clock vclock.Clock) *Table {
	return &Table{clock: clock, entries: make(map[mnet.Prefix]*Entry)}
}

// Bind gives a table built without a clock its clock and mirrors it into f
// under device, as SyncFIB does; a nil f mirrors nothing. Only the first
// Bind takes effect: a table that has a clock keeps its clock and mirror.
func (t *Table) Bind(clock vclock.Clock, f *FIB, device string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock != nil {
		return
	}
	t.clock = clock
	t.syncFIBLocked(f, device)
}

// SyncFIB mirrors every valid best path into the simulated kernel FIB under
// the given device name, the way the System CF State element pushes routes
// into the OS (§4.3). Pass nil to stop mirroring.
func (t *Table) SyncFIB(f *FIB, device string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.syncFIBLocked(f, device)
}

func (t *Table) syncFIBLocked(f *FIB, device string) {
	t.fib = f
	t.fibDev = device
	if f == nil {
		return
	}
	for _, e := range t.entries {
		t.mirrorLocked(e)
	}
}

// OnChange installs a change listener invoked (without the table lock held
// by value snapshot) after each mutation. Pass nil to remove.
func (t *Table) OnChange(fn func(ChangeKind, Entry)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onChange = fn
}

// Upsert installs or replaces the route for e.Dst. It returns the change
// kind that occurred.
func (t *Table) Upsert(e Entry) ChangeKind {
	if len(e.Paths) == 0 {
		e.Valid = false
	}
	t.mu.Lock()
	_, existed := t.entries[e.Dst]
	stored := e
	stored.Paths = append([]Path(nil), e.Paths...)
	t.entries[e.Dst] = &stored
	t.mirrorLocked(&stored)
	fn := t.onChange
	t.mu.Unlock()

	kind := Added
	if existed {
		kind = Updated
	}
	if fn != nil {
		fn(kind, stored)
	}
	return kind
}

// AddPath adds (or refreshes) one path on an existing entry, creating the
// entry if needed — the multipath accumulation primitive.
func (t *Table) AddPath(dst mnet.Prefix, proto string, seq uint16, p Path) {
	t.mu.Lock()
	e, ok := t.entries[dst]
	if !ok {
		e = &Entry{Dst: dst, Proto: proto, SeqNum: seq, Valid: true}
		t.entries[dst] = e
	}
	e.SeqNum = seq
	e.Valid = true
	replaced := false
	for i := range e.Paths {
		if e.Paths[i].NextHop == p.NextHop {
			e.Paths[i] = p
			replaced = true
			break
		}
	}
	if !replaced {
		e.Paths = append(e.Paths, p)
	}
	t.mirrorLocked(e)
	fn := t.onChange
	snapshot := *e
	snapshot.Paths = append([]Path(nil), e.Paths...)
	t.mu.Unlock()
	if fn != nil {
		fn(Updated, snapshot)
	}
}

// Lookup performs longest-prefix-match over valid entries and returns the
// matched entry's best path.
func (t *Table) Lookup(dst mnet.Addr) (Entry, Path, error) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var bestEntry *Entry
	bestBits := -1
	for _, e := range t.entries {
		if !e.Valid || !e.Dst.Contains(dst) || e.Dst.Bits <= bestBits {
			continue
		}
		if _, ok := e.Best(now); !ok {
			continue
		}
		bestEntry = e
		bestBits = e.Dst.Bits
	}
	if bestEntry == nil {
		return Entry{}, Path{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
	}
	p, _ := bestEntry.Best(now)
	out := *bestEntry
	out.Paths = append([]Path(nil), bestEntry.Paths...)
	return out, p, nil
}

// Get returns the entry for an exact destination prefix.
func (t *Table) Get(dst mnet.Prefix) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[dst]
	if !ok {
		return Entry{}, false
	}
	out := *e
	out.Paths = append([]Path(nil), e.Paths...)
	return out, true
}

// Invalidate marks the route unusable but keeps it (with its sequence
// number) for loop-freedom checks. It reports whether a valid route was
// present.
func (t *Table) Invalidate(dst mnet.Prefix) bool {
	t.mu.Lock()
	e, ok := t.entries[dst]
	if !ok || !e.Valid {
		t.mu.Unlock()
		return false
	}
	e.Valid = false
	t.mirrorLocked(e)
	fn := t.onChange
	snapshot := *e
	t.mu.Unlock()
	if fn != nil {
		fn(Invalidated, snapshot)
	}
	return true
}

// InvalidatePath drops the path through nextHop from the entry for dst,
// invalidating the entry when its last path goes. It reports whether the
// entry remains valid.
func (t *Table) InvalidatePath(dst mnet.Prefix, nextHop mnet.Addr) (remains bool) {
	t.mu.Lock()
	e, ok := t.entries[dst]
	if !ok {
		t.mu.Unlock()
		return false
	}
	kept := e.Paths[:0]
	for _, p := range e.Paths {
		if p.NextHop != nextHop {
			kept = append(kept, p)
		}
	}
	e.Paths = kept
	if len(e.Paths) == 0 {
		e.Valid = false
	}
	remains = e.Valid
	t.mirrorLocked(e)
	fn := t.onChange
	snapshot := *e
	snapshot.Paths = append([]Path(nil), e.Paths...)
	t.mu.Unlock()
	if fn != nil {
		kind := Updated
		if !remains {
			kind = Invalidated
		}
		fn(kind, snapshot)
	}
	return remains
}

// InvalidateVia invalidates every route whose best path uses nextHop —
// the route-invalidation sweep run on link-break events. It returns the
// affected destinations.
func (t *Table) InvalidateVia(nextHop mnet.Addr) []mnet.Prefix {
	t.mu.Lock()
	var affected []mnet.Prefix
	for dst, e := range t.entries {
		if !e.Valid {
			continue
		}
		uses := false
		for _, p := range e.Paths {
			if p.NextHop == nextHop {
				uses = true
				break
			}
		}
		if uses {
			affected = append(affected, dst)
		}
	}
	t.mu.Unlock()
	sort.Slice(affected, func(i, j int) bool { return affected[i].Addr.Less(affected[j].Addr) })
	for _, dst := range affected {
		t.InvalidatePath(dst, nextHop)
	}
	return affected
}

// Remove deletes the entry entirely.
func (t *Table) Remove(dst mnet.Prefix) bool {
	t.mu.Lock()
	e, ok := t.entries[dst]
	if !ok {
		t.mu.Unlock()
		return false
	}
	delete(t.entries, dst)
	if t.fib != nil {
		t.fib.Del(dst)
	}
	fn := t.onChange
	snapshot := *e
	t.mu.Unlock()
	if fn != nil {
		fn(Removed, snapshot)
	}
	return true
}

// ExtendLifetime pushes the expiry of every path through nextHop (or all
// paths when nextHop is the zero Addr) on the entry for dst out to at least
// now+d. Reactive protocols call this on ROUTE_UPDATE events.
func (t *Table) ExtendLifetime(dst mnet.Prefix, nextHop mnet.Addr, d time.Duration) bool {
	deadline := t.clock.Now().Add(d)
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[dst]
	if !ok || !e.Valid {
		return false
	}
	touched := false
	for i := range e.Paths {
		if !nextHop.IsUnspecified() && e.Paths[i].NextHop != nextHop {
			continue
		}
		if e.Paths[i].Expires.IsZero() || e.Paths[i].Expires.Before(deadline) {
			e.Paths[i].Expires = deadline
		}
		touched = true
	}
	return touched
}

// PurgeExpired drops expired paths and invalidates entries left with none.
// It returns the number of entries invalidated.
func (t *Table) PurgeExpired() int {
	now := t.clock.Now()
	t.mu.Lock()
	var dead []mnet.Prefix
	for dst, e := range t.entries {
		if !e.Valid {
			continue
		}
		kept := e.Paths[:0]
		for _, p := range e.Paths {
			if p.Expires.IsZero() || p.Expires.After(now) {
				kept = append(kept, p)
			}
		}
		e.Paths = kept
		if len(e.Paths) == 0 {
			dead = append(dead, dst)
		}
	}
	t.mu.Unlock()
	sort.Slice(dead, func(i, j int) bool { return dead[i].Addr.Less(dead[j].Addr) })
	for _, dst := range dead {
		t.Invalidate(dst)
	}
	return len(dead)
}

// Entries returns all entries (valid and invalid) sorted by destination.
func (t *Table) Entries() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		c := *e
		c.Paths = append([]Path(nil), e.Paths...)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dst.Addr != out[j].Dst.Addr {
			return out[i].Dst.Addr.Less(out[j].Dst.Addr)
		}
		return out[i].Dst.Bits < out[j].Dst.Bits
	})
	return out
}

// ValidCount returns the number of valid entries.
func (t *Table) ValidCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if e.Valid {
			n++
		}
	}
	return n
}

// Clear removes every entry (protocol shutdown).
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for dst := range t.entries {
		if t.fib != nil {
			t.fib.Del(dst)
		}
		delete(t.entries, dst)
	}
}

// ProtoRoute is one desired route in the batch diff-install API
// (ReplaceProto / ApplyProto / RefreshProto): a flat single-path value — no
// per-entry slice — so protocols can assemble whole desired route sets in
// reusable scratch buffers without allocating.
type ProtoRoute struct {
	Dst     mnet.Prefix
	NextHop mnet.Addr
	Metric  int       // hop count
	Expires time.Time // zero means no expiry
}

// ReplaceStats reports what a batch diff-install actually did. A recompute
// that changed nothing shows up as pure Refreshed/Kept counts: no change
// callbacks fired, no FIB writes issued.
type ReplaceStats struct {
	Added     int // entries created
	Updated   int // entries whose path, metric or validity actually changed
	Refreshed int // identical but for lifetime: expiry advanced in place, silently
	Kept      int // RefreshProto only: an existing better-or-equal route was kept
	Removed   int // ReplaceProto/ApplyProto: proto-owned entries absent from desired
}

// changeRec is a deferred change notification, collected under the table
// lock and fired after it is released.
type changeRec struct {
	kind ChangeKind
	snap Entry
}

// ReplaceProto atomically diff-installs the authoritative route set for
// proto — the install half of an incremental route recompute. Entries whose
// path actually changed are upserted; entries identical but for lifetime
// have their expiry advanced in place without firing the change callback or
// re-mirroring the FIB; entries owned by proto that are absent from desired
// are removed (other protocols' entries are never touched). The change
// stream therefore carries only real routing changes: a full recompute that
// alters nothing is completely silent and allocation-free.
//
// Desired entries are single-path; multipath accumulation stays on AddPath.
func (t *Table) ReplaceProto(proto string, desired []ProtoRoute) ReplaceStats {
	return t.installBatch(proto, desired, nil, installReplace)
}

// ApplyProto is ReplaceProto for a caller that knows what changed: set
// holds only the routes that are new or differ from what proto last
// installed, and del the destinations proto no longer wants. set runs
// through ReplaceProto's per-entry loop; del replaces its scan for unmarked
// entries, is sorted in place the same way, and skips any destination set
// just wrote or proto does not own. Given the same table, set and del that
// are the changed and vanished part of a desired set, ApplyProto issues
// exactly the FIB operations and change notifications ReplaceProto would,
// in the same order.
func (t *Table) ApplyProto(proto string, set []ProtoRoute, del []mnet.Prefix) ReplaceStats {
	return t.installBatch(proto, set, del, installApply)
}

// RefreshProto is the non-authoritative variant of ReplaceProto used by
// periodic refreshes that do not own the whole table (ZRP's intrazone IARP
// refresh): nothing is removed, and a desired route only displaces an
// existing valid one when it is strictly better (lower metric) — otherwise
// the existing route is kept and its path lifetimes are extended to at
// least the desired expiry.
func (t *Table) RefreshProto(proto string, desired []ProtoRoute) ReplaceStats {
	return t.installBatch(proto, desired, nil, installRefresh)
}

// installMode selects where a batch install's removals come from.
type installMode uint8

const (
	installRefresh installMode = iota // keep-better, nothing removed
	installReplace                    // remove proto's entries the batch did not mark
	installApply                      // remove the caller's list
)

func (t *Table) installBatch(proto string, desired []ProtoRoute, del []mnet.Prefix, mode installMode) ReplaceStats {
	var stats ReplaceStats
	replace := mode != installRefresh
	now := t.clock.Now()
	t.mu.Lock()
	t.markGen++
	gen := t.markGen
	fn := t.onChange
	var changes []changeRec
	for i := range desired {
		d := &desired[i]
		e, ok := t.entries[d.Dst]
		if !ok {
			e = &Entry{
				Dst:   d.Dst,
				Paths: []Path{{NextHop: d.NextHop, Metric: d.Metric, Expires: d.Expires}},
				Valid: true,
				Proto: proto,
				mark:  gen,
			}
			t.entries[d.Dst] = e
			t.mirrorLocked(e)
			stats.Added++
			if fn != nil {
				changes = append(changes, changeRec{Added, snapshotEntry(e)})
			}
			continue
		}
		e.mark = gen
		if !replace && e.Valid {
			// Keep-better: an existing route at least as short stays; only
			// its lifetimes stretch to cover the refresh horizon.
			if best, has := e.Best(now); has && best.Metric <= d.Metric {
				for pi := range e.Paths {
					if e.Paths[pi].Expires.IsZero() || e.Paths[pi].Expires.Before(d.Expires) {
						e.Paths[pi].Expires = d.Expires
					}
				}
				stats.Kept++
				continue
			}
		}
		if e.Valid && e.Proto == proto && len(e.Paths) == 1 &&
			e.Paths[0].NextHop == d.NextHop && e.Paths[0].Metric == d.Metric {
			// Same route: advance the lifetime in place. The FIB carries no
			// expiry and listeners see no routing change, so both stay quiet.
			if replace || d.Expires.After(e.Paths[0].Expires) {
				e.Paths[0].Expires = d.Expires
			}
			stats.Refreshed++
			continue
		}
		// The route genuinely changed: rewrite the entry in place, reusing
		// its path slice when possible.
		kind := Updated
		if !e.Valid {
			kind = Added
		}
		e.Proto = proto
		e.Valid = true
		e.SeqNum = 0
		if cap(e.Paths) > 0 {
			e.Paths = e.Paths[:1]
			e.Paths[0] = Path{NextHop: d.NextHop, Metric: d.Metric, Expires: d.Expires}
		} else {
			e.Paths = []Path{{NextHop: d.NextHop, Metric: d.Metric, Expires: d.Expires}}
		}
		t.mirrorLocked(e)
		stats.Updated++
		if fn != nil {
			changes = append(changes, changeRec{kind, snapshotEntry(e)})
		}
	}
	removed := del
	if mode == installReplace {
		removed = t.removed[:0]
		for dst, e := range t.entries {
			if e.Proto == proto && e.mark != gen {
				removed = append(removed, dst)
			}
		}
		t.removed = removed[:0]
	}
	if len(removed) > 0 {
		sortPrefixes(removed)
		for _, dst := range removed {
			e, ok := t.entries[dst]
			if !ok || e.Proto != proto || e.mark == gen {
				continue
			}
			delete(t.entries, dst)
			if t.fib != nil {
				t.fib.Del(dst)
			}
			stats.Removed++
			if fn != nil {
				changes = append(changes, changeRec{Removed, snapshotEntry(e)})
			}
		}
	}
	t.mu.Unlock()
	for i := range changes {
		fn(changes[i].kind, changes[i].snap)
	}
	return stats
}

// snapshotEntry deep-copies an entry for a change notification. Caller
// holds t.mu.
func snapshotEntry(e *Entry) Entry {
	snap := *e
	snap.Paths = append([]Path(nil), e.Paths...)
	return snap
}

// sortPrefixes orders prefixes by (address, length) — the table's canonical
// order, keeping removal notifications deterministic.
func sortPrefixes(ps []mnet.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr != ps[j].Addr {
			return ps[i].Addr.Less(ps[j].Addr)
		}
		return ps[i].Bits < ps[j].Bits
	})
}

// mirrorLocked pushes the entry's current best path into the FIB (or
// removes it). Caller holds t.mu.
func (t *Table) mirrorLocked(e *Entry) {
	if t.fib == nil {
		return
	}
	if !e.Valid {
		t.fib.Del(e.Dst)
		return
	}
	p, ok := e.Best(t.clock.Now())
	if !ok {
		t.fib.Del(e.Dst)
		return
	}
	t.fib.Set(FIBRoute{Dst: e.Dst, NextHop: p.NextHop, Metric: p.Metric, Device: t.fibDev, Proto: e.Proto})
}
