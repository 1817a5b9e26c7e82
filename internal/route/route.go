// Package route provides the routing-table building blocks listed among
// MANETKit's reusable components (Table 3 of the paper): a protocol-facing
// RIB template of host routes with lifetimes and multipath entries, and a
// simulated kernel FIB standing in for the OS forwarding table that the
// System CF's State element manipulates. Both hold host routes only: every
// protocol routes to node addresses, and an Entry, FIBRoute or ProtoRoute
// whose Dst is not a /32 panics when stored.
package route

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"manetkit/internal/flat"
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
	Dst   mnet.Prefix // a host prefix
	Paths []Path
	// SeqNum is the destination sequence number (loop freedom in DYMO).
	SeqNum uint16
	// Valid distinguishes usable routes from invalidated ones retained for
	// their sequence numbers.
	Valid bool
	// Proto names the owning protocol ("olsr", "dymo", …).
	Proto string
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

// never is the stored expiry of a path that does not expire: a zero
// Path.Expires at the API edge.
const never = math.MaxInt64

// ribPath is a Path as the table stores it: 16 bytes, no pointer. exp is
// the expiry in nanoseconds past the table's base, or never. Metrics are
// hop counts and are held as int32.
type ribPath struct {
	nextHop mnet.Addr
	metric  int32
	exp     int64
}

// ribEntry is an Entry as the table stores it: 40 bytes, no pointer. The
// first path is inline; an entry with more than one (multipath DYMO) keeps
// the rest in Table.more. proto indexes Table.names.
type ribEntry struct {
	ribPath        // the first path, while npaths > 0
	mark    uint64 // ReplaceProto sweep generation that last confirmed it
	dst     mnet.Addr
	seq     uint16
	proto   uint16
	npaths  uint8 // paths held, counted up to 2; the rest are in Table.more
	valid   bool
}

// Table is the RIB template: thread-safe, lifetime-aware, and mirrored
// into a FIB when one is bound. Construct with NewTable.
//
// Routes are stored at their working size, as the FIB stores its own: one
// pointer-free record per destination in a dense slice, indexed by
// address. Lifetimes are int64 nanoseconds past a per-table base;
// time.Time appears only at the API edge.
type Table struct {
	clock vclock.Clock

	mu     sync.Mutex
	recs   []ribEntry
	index  flat.Table[uint32, int32] // destination → its record in recs
	more   map[mnet.Addr][]ribPath
	names  []string // interned Proto strings
	fib    *FIB
	fibDev string

	// base anchors every stored expiry, which is the expiry minus base
	// (taken with Sub, so a clock's monotonic reading is kept). The first
	// time the table converts fixes it. baseN is base as a reading of the
	// clock (vclock.Clock.Nanos), fixed by the first nowKey (keyed).
	base    time.Time
	baseSet bool
	baseN   int64
	keyed   bool

	// Batch diff-install state: the mark generation distinguishes entries
	// touched by the current ReplaceProto sweep, and the scratch slice is
	// reused across sweeps so a no-op recompute stays allocation-free.
	markGen uint64
	removed []mnet.Addr
}

// NewTable returns an empty RIB on the given clock. A routing CF passes nil
// and binds the table to its deployment with Bind.
func NewTable(clock vclock.Clock) *Table {
	return &Table{clock: clock}
}

// since converts x to the stored expiry form. Called with t.mu held.
func (t *Table) since(x time.Time) int64 {
	if x.IsZero() {
		return never
	}
	if !t.baseSet {
		t.base, t.baseSet = x, true
	}
	return expiry(int64(x.Sub(t.base)))
}

// expiry stores an offset from base: saturated, it is still not "none".
func expiry(d int64) int64 { return min(d, never-1) }

// nowKey is since(t.clock.Now()) from one integer reading of the clock,
// without time.Time arithmetic: exact while the clock is within the
// Duration range of base. Called with t.mu held.
func (t *Table) nowKey() int64 {
	n := t.clock.Nanos()
	if !t.keyed {
		t.since(t.clock.Origin().Add(time.Duration(n))) // fixes base on a first conversion
		t.baseN, t.keyed = int64(t.base.Sub(t.clock.Origin())), true
	}
	return expiry(vclock.AddSat(n, time.Duration(-t.baseN)))
}

// at converts a stored expiry back to the time it stands for.
func (t *Table) at(k int64) time.Time {
	if k == never {
		return time.Time{}
	}
	return t.base.Add(time.Duration(k))
}

// before is time.Time's a.IsZero() || a.Before(b) on stored expiries: a
// path without expiry always counts as earlier, a zero b as the earliest.
func before(a, b int64) bool { return a == never || b != never && a < b }

// after is time.Time's a.After(b) on stored expiries, where the zero time
// (never) comes first.
func after(a, b int64) bool { return a != never && (b == never || a > b) }

// path converts a path to its stored form. Called with t.mu held.
func (t *Table) path(nextHop mnet.Addr, metric int, expires time.Time) ribPath {
	return ribPath{nextHop: nextHop, metric: int32(metric), exp: t.since(expires)}
}

// intern returns proto's index in t.names, adding it on first sight.
// Called with t.mu held.
func (t *Table) intern(proto string) uint16 {
	if i := slices.Index(t.names, proto); i >= 0 {
		return uint16(i)
	}
	if len(t.names) > math.MaxUint16 {
		panic("route: table holds more than 65536 distinct protocol names")
	}
	t.names = append(t.names, proto)
	return uint16(len(t.names) - 1)
}

// find returns dst's record, or nil. The pointer is valid until the next
// insert or remove. Called with t.mu held.
func (t *Table) find(dst mnet.Addr) *ribEntry {
	if i, ok := t.index.Get(dst.Uint32()); ok {
		return &t.recs[i]
	}
	return nil
}

// insert adds an empty record for dst, which must be absent, and returns
// it. Called with t.mu held.
func (t *Table) insert(dst mnet.Addr) *ribEntry {
	t.index.Set(dst.Uint32(), int32(len(t.recs)))
	t.recs = append(t.recs, ribEntry{dst: dst})
	return &t.recs[len(t.recs)-1]
}

// remove deletes dst's record and its FIB route: the last record moves
// into its place. Called with t.mu held.
func (t *Table) remove(dst mnet.Addr) {
	if t.fib != nil {
		t.fib.Del(dst)
	}
	delete(t.more, dst)
	i, ok := t.index.Get(dst.Uint32())
	if !ok {
		return
	}
	last := int32(len(t.recs) - 1)
	if i != last {
		t.recs[i] = t.recs[last]
		t.index.Set(t.recs[i].dst.Uint32(), i)
	}
	t.recs = t.recs[:last]
	t.index.Delete(dst.Uint32())
}

// rest returns r's paths past the first. Called with t.mu held.
func (t *Table) rest(r *ribEntry) []ribPath {
	if r.npaths < 2 {
		return nil
	}
	return t.more[r.dst]
}

// setPaths stores ps as r's paths; ps[1:] is kept, not copied. Called with
// t.mu held.
func (t *Table) setPaths(r *ribEntry, ps []ribPath) {
	if r.npaths > 1 && len(ps) < 2 {
		delete(t.more, r.dst)
	}
	r.npaths = uint8(min(len(ps), 2))
	r.ribPath = ribPath{}
	if len(ps) > 0 {
		r.ribPath = ps[0]
	}
	if len(ps) > 1 {
		if t.more == nil {
			t.more = make(map[mnet.Addr][]ribPath)
		}
		t.more[r.dst] = ps[1:]
	}
}

// setOne stores p as r's only path. Called with t.mu held.
func (t *Table) setOne(r *ribEntry, p ribPath) {
	if r.npaths > 1 {
		delete(t.more, r.dst)
	}
	r.ribPath, r.npaths = p, 1
}

// dropPaths removes r's paths for which drop reports true, keeping the rest
// in order. It reports whether any went. Called with t.mu held.
func (t *Table) dropPaths(r *ribEntry, drop func(ribPath) bool) bool {
	rest := t.rest(r)
	if r.npaths == 0 || !drop(r.ribPath) && !slices.ContainsFunc(rest, drop) {
		return false
	}
	if r.npaths == 1 {
		t.setPaths(r, nil)
	} else {
		t.setPaths(r, slices.DeleteFunc(append([]ribPath{r.ribPath}, rest...), drop))
	}
	return true
}

// best is Entry.Best on a record. Called with t.mu held.
func (t *Table) best(r *ribEntry, nowK int64) (ribPath, bool) {
	var best ribPath
	found := false
	consider := func(p ribPath) {
		if expired(p.exp, nowK) {
			return
		}
		if !found || p.metric < best.metric {
			best, found = p, true
		}
	}
	if r.npaths > 0 {
		consider(r.ribPath)
	}
	for _, p := range t.rest(r) {
		consider(p)
	}
	return best, found
}

// apiPath converts a stored path back to a Path. Called with t.mu held.
func (t *Table) apiPath(p ribPath) Path {
	return Path{NextHop: p.nextHop, Metric: int(p.metric), Expires: t.at(p.exp)}
}

// snapshot rebuilds the Entry r stores. Called with t.mu held.
func (t *Table) snapshot(r *ribEntry) Entry {
	e := Entry{Dst: mnet.HostPrefix(r.dst), SeqNum: r.seq, Valid: r.valid, Proto: t.names[r.proto]}
	if r.npaths > 0 {
		rest := t.rest(r)
		e.Paths = make([]Path, 0, 1+len(rest))
		e.Paths = append(e.Paths, t.apiPath(r.ribPath))
		for _, p := range rest {
			e.Paths = append(e.Paths, t.apiPath(p))
		}
	}
	return e
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
	for i := range t.recs {
		t.mirrorLocked(&t.recs[i])
	}
}

// Upsert installs or replaces the route for e.Dst, which must be a host
// prefix.
func (t *Table) Upsert(e Entry) {
	if len(e.Paths) == 0 {
		e.Valid = false
	}
	dst := hostKey(e.Dst)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.find(dst)
	if r == nil {
		r = t.insert(dst)
	}
	if len(e.Paths) == 1 {
		t.setOne(r, t.path(e.Paths[0].NextHop, e.Paths[0].Metric, e.Paths[0].Expires))
	} else {
		ps := make([]ribPath, len(e.Paths))
		for i, p := range e.Paths {
			ps[i] = t.path(p.NextHop, p.Metric, p.Expires)
		}
		t.setPaths(r, ps)
	}
	r.seq, r.valid, r.proto, r.mark = e.SeqNum, e.Valid, t.intern(e.Proto), 0
	t.mirrorLocked(r)
}

// AddPath adds (or refreshes) one path on an existing entry, creating the
// entry if needed — the multipath accumulation primitive.
func (t *Table) AddPath(dst mnet.Addr, proto string, seq uint16, p Path) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.find(dst)
	if r == nil {
		r = t.insert(dst)
		r.proto = t.intern(proto)
	}
	r.seq = seq
	r.valid = true
	rp := t.path(p.NextHop, p.Metric, p.Expires)
	rest := t.rest(r)
	switch i := slices.IndexFunc(rest, func(q ribPath) bool { return q.nextHop == p.NextHop }); {
	case r.npaths > 0 && r.nextHop == p.NextHop:
		r.ribPath = rp
	case i >= 0:
		rest[i] = rp
	case r.npaths == 0:
		t.setOne(r, rp)
	default:
		t.setPaths(r, append(append([]ribPath{r.ribPath}, rest...), rp))
	}
	t.mirrorLocked(r)
}

// Lookup returns dst's entry and its best path, if the entry is valid and
// has an unexpired path.
func (t *Table) Lookup(dst mnet.Addr) (Entry, Path, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nowK := t.nowKey()
	if r := t.find(dst); r != nil && r.valid {
		if p, ok := t.best(r, nowK); ok {
			return t.snapshot(r), t.apiPath(p), nil
		}
	}
	return Entry{}, Path{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
}

// Get returns the entry for dst.
func (t *Table) Get(dst mnet.Addr) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.find(dst)
	if r == nil {
		return Entry{}, false
	}
	return t.snapshot(r), true
}

// Invalidate marks the route unusable but keeps it (with its sequence
// number) for loop-freedom checks. It reports whether a valid route was
// present.
func (t *Table) Invalidate(dst mnet.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.find(dst)
	if r == nil || !r.valid {
		return false
	}
	r.valid = false
	t.mirrorLocked(r)
	return true
}

// InvalidatePath drops the path through nextHop from the entry for dst,
// invalidating the entry when its last path goes. It reports whether the
// entry remains valid.
func (t *Table) InvalidatePath(dst, nextHop mnet.Addr) (remains bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.find(dst)
	if r == nil {
		return false
	}
	t.dropPaths(r, func(p ribPath) bool { return p.nextHop == nextHop })
	t.settle(r)
	return r.valid
}

// InvalidateVia drops the path through nextHop from every valid route that
// has one, invalidating a route left with none — the route-invalidation
// sweep run on link-break events. It returns the affected destinations in
// address order.
func (t *Table) InvalidateVia(nextHop mnet.Addr) []mnet.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	via := func(p ribPath) bool { return p.nextHop == nextHop }
	var affected []mnet.Addr
	for i := range t.recs {
		if r := &t.recs[i]; r.valid && t.dropPaths(r, via) {
			t.settle(r)
			affected = append(affected, r.dst)
		}
	}
	slices.SortFunc(affected, mnet.Addr.Compare)
	return affected
}

// settle invalidates r if it has no path left and mirrors it. Called with
// t.mu held.
func (t *Table) settle(r *ribEntry) {
	if r.npaths == 0 {
		r.valid = false
	}
	t.mirrorLocked(r)
}

// ExtendLifetime pushes the expiry of every path through nextHop (or all
// paths when nextHop is the zero Addr) on the entry for dst out to at least
// now+d. Reactive protocols call this on ROUTE_UPDATE events: it is one
// index probe and an in-place write, and a FIB write only when it revives
// an expired path the FIB does not hold as the best.
func (t *Table) ExtendLifetime(dst, nextHop mnet.Addr, d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.find(dst)
	if r == nil || !r.valid || r.npaths == 0 {
		return false
	}
	nowK := t.nowKey()
	dk := expiry(vclock.AddSat(nowK, d))
	everyHop := nextHop.IsUnspecified()
	touched, revived := false, false
	if everyHop || r.nextHop == nextHop {
		revived = extend(&r.ribPath, dk, nowK)
		touched = true
	}
	rest := t.rest(r)
	for i := range rest {
		if p := &rest[i]; everyHop || p.nextHop == nextHop {
			revived = extend(p, dk, nowK) || revived
			touched = true
		}
	}
	if revived {
		t.reviveLocked(r, nowK)
	}
	return touched
}

// extend pushes p's expiry out to at least exp and reports whether that
// revived it: expired at nowK before, live after.
func extend(p *ribPath, exp, nowK int64) bool {
	was := expired(p.exp, nowK)
	if before(p.exp, exp) {
		p.exp = exp
	}
	return was && !expired(p.exp, nowK)
}

// expired reports whether a path expiring at exp is dead at nowK.
func expired(exp, nowK int64) bool { return exp != never && exp <= nowK }

// reviveLocked mirrors r after an extension revived one of its paths. A
// path that expired without a purge dropping it may have been mirrored
// away meanwhile (a later mutation mirrored a worse best, or none), so the
// FIB can disagree with the best path now; it is written only where it
// does. Called with t.mu held.
func (t *Table) reviveLocked(r *ribEntry, nowK int64) {
	if p, ok := t.best(r, nowK); ok && t.fib != nil && r.valid {
		t.fib.set(t.fibRoute(r, p), true)
	}
}

// PurgeExpired drops expired paths from valid entries, invalidates an entry
// left with none and mirrors every entry that lost a path, and no other
// entry, into the FIB. It returns the number of entries invalidated.
func (t *Table) PurgeExpired() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	nowK := t.nowKey()
	gone := func(p ribPath) bool { return expired(p.exp, nowK) }
	dead := 0
	for i := range t.recs {
		if r := &t.recs[i]; r.valid && t.dropPaths(r, gone) {
			t.settle(r)
			if !r.valid {
				dead++
			}
		}
	}
	return dead
}

// Entries returns all entries (valid and invalid) sorted by destination.
func (t *Table) Entries() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, len(t.recs))
	for i := range t.recs {
		out[i] = t.snapshot(&t.recs[i])
	}
	slices.SortFunc(out, func(a, b Entry) int { return a.Dst.Addr.Compare(b.Dst.Addr) })
	return out
}

// ValidCount returns the number of valid entries.
func (t *Table) ValidCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.recs {
		if t.recs[i].valid {
			n++
		}
	}
	return n
}

// Clear removes every entry (protocol shutdown).
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fib != nil {
		for i := range t.recs {
			t.fib.Del(t.recs[i].dst)
		}
	}
	t.recs = t.recs[:0]
	t.index.Clear()
	clear(t.more)
}

// ProtoRoute is one desired route in the batch diff-install API
// (ReplaceProto / ApplyProto / RefreshProto): a flat single-path value — no
// per-entry slice — so protocols can assemble whole desired route sets in
// reusable scratch buffers without allocating.
type ProtoRoute struct {
	Dst     mnet.Prefix // a host prefix
	NextHop mnet.Addr
	Metric  int       // hop count
	Expires time.Time // zero means no expiry
}

// ReplaceStats reports what a batch diff-install actually did. A recompute
// that changed nothing shows up as pure Refreshed/Kept counts and issues
// no FIB operation.
type ReplaceStats struct {
	Added     int // entries created
	Updated   int // entries whose path, metric or validity actually changed
	Refreshed int // identical but for lifetime: expiry advanced in place, silently
	Kept      int // RefreshProto only: an existing better-or-equal route was kept
	Removed   int // ReplaceProto/ApplyProto: proto-owned entries absent from desired
}

// ReplaceProto atomically diff-installs the authoritative route set for
// proto — the install half of an incremental route recompute. Entries whose
// path actually changed are upserted and mirrored; entries identical but
// for lifetime have their expiry advanced in place without a FIB
// operation; entries owned by proto that are absent from desired are
// removed (other protocols' entries are never touched). The FIB therefore
// sees only real routing changes: a full recompute that alters nothing
// issues no FIB operation and allocates nothing.
//
// Desired entries are single-path; multipath accumulation stays on AddPath.
func (t *Table) ReplaceProto(proto string, desired []ProtoRoute) ReplaceStats {
	return t.installBatch(proto, desired, nil, installReplace)
}

// ApplyProto is ReplaceProto for a caller that knows what changed: set
// holds only the routes that are new or differ from what proto last
// installed, and del the destinations proto no longer wants. set runs
// through ReplaceProto's per-entry loop; del replaces its scan for unmarked
// entries, is sorted in place into address order, and skips any
// destination set just wrote or proto does not own. Given the same table,
// set and del that are the changed and vanished part of a desired set,
// ApplyProto issues exactly the FIB operations ReplaceProto would, in the
// same order.
func (t *Table) ApplyProto(proto string, set []ProtoRoute, del []mnet.Addr) ReplaceStats {
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

func (t *Table) installBatch(proto string, desired []ProtoRoute, del []mnet.Addr, mode installMode) ReplaceStats {
	var stats ReplaceStats
	replace := mode != installRefresh
	t.mu.Lock()
	defer t.mu.Unlock()
	nowK := t.nowKey()
	t.markGen++
	gen := t.markGen
	owner := t.intern(proto)
	for i := range desired {
		d := &desired[i]
		p := t.path(d.NextHop, d.Metric, d.Expires)
		dst := hostKey(d.Dst)
		r := t.find(dst)
		if r == nil {
			r = t.insert(dst)
			r.ribPath, r.npaths, r.valid, r.proto, r.mark = p, 1, true, owner, gen
			t.mirrorLocked(r)
			stats.Added++
			continue
		}
		r.mark = gen
		if !replace && r.valid {
			// Keep-better: an existing route at least as short stays; only
			// its lifetimes stretch to cover the refresh horizon.
			if best, has := t.best(r, nowK); has && best.metric <= p.metric {
				revived := false
				if r.npaths > 0 {
					revived = extend(&r.ribPath, p.exp, nowK)
				}
				rest := t.rest(r)
				for pi := range rest {
					revived = extend(&rest[pi], p.exp, nowK) || revived
				}
				if revived {
					t.reviveLocked(r, nowK)
				}
				stats.Kept++
				continue
			}
		}
		if r.valid && r.proto == owner && r.npaths == 1 &&
			r.nextHop == p.nextHop && r.metric == p.metric {
			// Same route: advance the lifetime in place. The FIB carries no
			// expiry, so it is written only if this revives an expired path.
			was := expired(r.exp, nowK)
			if replace || after(p.exp, r.exp) {
				r.exp = p.exp
			}
			if was && !expired(r.exp, nowK) {
				t.reviveLocked(r, nowK)
			}
			stats.Refreshed++
			continue
		}
		// The route genuinely changed: rewrite the record in place.
		r.proto, r.valid, r.seq = owner, true, 0
		t.setOne(r, p)
		t.mirrorLocked(r)
		stats.Updated++
	}
	removed := del
	if mode == installReplace {
		removed = t.removed[:0]
		for i := range t.recs {
			if r := &t.recs[i]; r.proto == owner && r.mark != gen {
				removed = append(removed, r.dst)
			}
		}
		t.removed = removed[:0]
	}
	if len(removed) > 0 {
		slices.SortFunc(removed, mnet.Addr.Compare)
		for _, dst := range removed {
			r := t.find(dst)
			if r == nil || r.proto != owner || r.mark == gen {
				continue
			}
			t.remove(dst)
			stats.Removed++
		}
	}
	return stats
}

// mirrorLocked pushes the record's current best path into the FIB (or
// removes it). Caller holds t.mu.
func (t *Table) mirrorLocked(r *ribEntry) {
	if t.fib == nil {
		return
	}
	if !r.valid {
		t.fib.Del(r.dst)
		return
	}
	p, ok := t.best(r, t.nowKey())
	if !ok {
		t.fib.Del(r.dst)
		return
	}
	t.fib.Set(t.fibRoute(r, p))
}

// fibRoute is the FIB route for r's path p. Called with t.mu held.
func (t *Table) fibRoute(r *ribEntry, p ribPath) FIBRoute {
	return FIBRoute{Dst: mnet.HostPrefix(r.dst), NextHop: p.nextHop, Metric: int(p.metric), Device: t.fibDev, Proto: t.names[r.proto]}
}
