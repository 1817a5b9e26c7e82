package route

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// refTable is the RIB the packed table replaced: a map of *Entry, one
// heap-allocated path slice per route, time.Time lifetimes. It carries the
// packed table's deterministic order (InvalidateVia's address order) and is
// the reference FuzzTable holds the packed table to.
type refTable struct {
	clock   vclock.Clock
	entries map[mnet.Addr]*refEntry
	fib     *FIB
	fibDev  string
	markGen uint64
}

type refEntry struct {
	Entry
	mark uint64
}

func newRefTable(clock vclock.Clock) *refTable {
	return &refTable{clock: clock, entries: make(map[mnet.Addr]*refEntry)}
}

func (e *refEntry) snapshot() Entry {
	snap := e.Entry
	snap.Paths = append([]Path(nil), e.Paths...)
	return snap
}

func (t *refTable) SyncFIB(f *FIB, device string) {
	t.fib, t.fibDev = f, device
	for _, e := range t.entries {
		t.mirror(e)
	}
}

func (t *refTable) mirror(e *refEntry) {
	if t.fib == nil {
		return
	}
	if !e.Valid {
		t.fib.Del(e.Dst.Addr)
		return
	}
	p, ok := e.Best(t.clock.Now())
	if !ok {
		t.fib.Del(e.Dst.Addr)
		return
	}
	t.fib.Set(FIBRoute{Dst: e.Dst, NextHop: p.NextHop, Metric: p.Metric, Device: t.fibDev, Proto: e.Proto})
}

func (t *refTable) Upsert(e Entry) {
	if len(e.Paths) == 0 {
		e.Valid = false
	}
	stored := &refEntry{Entry: e}
	stored.Paths = append([]Path(nil), e.Paths...)
	t.entries[e.Dst.Addr] = stored
	t.mirror(stored)
}

func (t *refTable) AddPath(dst mnet.Addr, proto string, seq uint16, p Path) {
	e, ok := t.entries[dst]
	if !ok {
		e = &refEntry{Entry: Entry{Dst: mnet.HostPrefix(dst), Proto: proto, SeqNum: seq, Valid: true}}
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
	t.mirror(e)
}

func (t *refTable) Lookup(dst mnet.Addr) (Entry, Path, error) {
	if e, ok := t.entries[dst]; ok && e.Valid {
		if p, ok := e.Best(t.clock.Now()); ok {
			return e.snapshot(), p, nil
		}
	}
	return Entry{}, Path{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
}

func (t *refTable) Get(dst mnet.Addr) (Entry, bool) {
	e, ok := t.entries[dst]
	if !ok {
		return Entry{}, false
	}
	return e.snapshot(), true
}

func (t *refTable) Invalidate(dst mnet.Addr) bool {
	e, ok := t.entries[dst]
	if !ok || !e.Valid {
		return false
	}
	e.Valid = false
	t.mirror(e)
	return true
}

func (t *refTable) InvalidatePath(dst mnet.Addr, nextHop mnet.Addr) bool {
	e, ok := t.entries[dst]
	if !ok {
		return false
	}
	e.Paths = slices.DeleteFunc(e.Paths, func(p Path) bool { return p.NextHop == nextHop })
	if len(e.Paths) == 0 {
		e.Valid = false
	}
	t.mirror(e)
	return e.Valid
}

func (t *refTable) InvalidateVia(nextHop mnet.Addr) []mnet.Addr {
	var affected []mnet.Addr
	for dst, e := range t.entries {
		if e.Valid && slices.ContainsFunc(e.Paths, func(p Path) bool { return p.NextHop == nextHop }) {
			affected = append(affected, dst)
		}
	}
	slices.SortFunc(affected, mnet.Addr.Compare)
	for _, dst := range affected {
		t.InvalidatePath(dst, nextHop)
	}
	return affected
}

func (t *refTable) ExtendLifetime(dst mnet.Addr, nextHop mnet.Addr, d time.Duration) bool {
	deadline := t.clock.Now().Add(d)
	e, ok := t.entries[dst]
	if !ok || !e.Valid {
		return false
	}
	touched, revived := false, false
	for i := range e.Paths {
		if !nextHop.IsUnspecified() && e.Paths[i].NextHop != nextHop {
			continue
		}
		was := refExpired(e.Paths[i], t.clock.Now())
		if e.Paths[i].Expires.IsZero() || e.Paths[i].Expires.Before(deadline) {
			e.Paths[i].Expires = deadline
		}
		revived = revived || was && !refExpired(e.Paths[i], t.clock.Now())
		touched = true
	}
	if revived {
		t.revive(e)
	}
	return touched
}

func refExpired(p Path, now time.Time) bool { return !p.Expires.IsZero() && !p.Expires.After(now) }

// revive mirrors e after a lifetime extension brought one of its expired
// paths back, writing the FIB only when the route it holds is not e's best
// path.
func (t *refTable) revive(e *refEntry) {
	p, ok := e.Best(t.clock.Now())
	if t.fib == nil || !e.Valid || !ok {
		return
	}
	want := FIBRoute{Dst: e.Dst, NextHop: p.NextHop, Metric: p.Metric, Device: t.fibDev, Proto: e.Proto}
	if !slices.Contains(t.fib.List(), want) {
		t.fib.Set(want)
	}
}

func (t *refTable) PurgeExpired() int {
	now := t.clock.Now()
	dead := 0
	for _, e := range t.entries {
		if !e.Valid {
			continue
		}
		n := len(e.Paths)
		e.Paths = slices.DeleteFunc(e.Paths, func(p Path) bool { return !p.Expires.IsZero() && !p.Expires.After(now) })
		if len(e.Paths) == n {
			continue
		}
		if len(e.Paths) == 0 {
			e.Valid = false
			dead++
		}
		t.mirror(e)
	}
	return dead
}

func (t *refTable) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.snapshot())
	}
	slices.SortFunc(out, func(a, b Entry) int { return a.Dst.Addr.Compare(b.Dst.Addr) })
	return out
}

func (t *refTable) ValidCount() int {
	n := 0
	for _, e := range t.entries {
		if e.Valid {
			n++
		}
	}
	return n
}

func (t *refTable) Clear() {
	for dst := range t.entries {
		if t.fib != nil {
			t.fib.Del(dst)
		}
		delete(t.entries, dst)
	}
}

func (t *refTable) installBatch(proto string, desired []ProtoRoute, del []mnet.Addr, mode installMode) ReplaceStats {
	var stats ReplaceStats
	replace := mode != installRefresh
	now := t.clock.Now()
	t.markGen++
	gen := t.markGen
	for i := range desired {
		d := &desired[i]
		e, ok := t.entries[d.Dst.Addr]
		if !ok {
			e = &refEntry{Entry: Entry{Dst: d.Dst, Paths: []Path{{NextHop: d.NextHop, Metric: d.Metric, Expires: d.Expires}}, Valid: true, Proto: proto}, mark: gen}
			t.entries[d.Dst.Addr] = e
			t.mirror(e)
			stats.Added++
			continue
		}
		e.mark = gen
		if !replace && e.Valid {
			if best, has := e.Best(now); has && best.Metric <= d.Metric {
				revived := false
				for pi := range e.Paths {
					was := refExpired(e.Paths[pi], now)
					if e.Paths[pi].Expires.IsZero() || e.Paths[pi].Expires.Before(d.Expires) {
						e.Paths[pi].Expires = d.Expires
					}
					revived = revived || was && !refExpired(e.Paths[pi], now)
				}
				if revived {
					t.revive(e)
				}
				stats.Kept++
				continue
			}
		}
		if e.Valid && e.Proto == proto && len(e.Paths) == 1 &&
			e.Paths[0].NextHop == d.NextHop && e.Paths[0].Metric == d.Metric {
			was := refExpired(e.Paths[0], now)
			if replace || d.Expires.After(e.Paths[0].Expires) {
				e.Paths[0].Expires = d.Expires
			}
			if was && !refExpired(e.Paths[0], now) {
				t.revive(e)
			}
			stats.Refreshed++
			continue
		}
		e.Proto, e.Valid, e.SeqNum = proto, true, 0
		e.Paths = []Path{{NextHop: d.NextHop, Metric: d.Metric, Expires: d.Expires}}
		t.mirror(e)
		stats.Updated++
	}
	removed := del
	if mode == installReplace {
		removed = nil
		for dst, e := range t.entries {
			if e.Proto == proto && e.mark != gen {
				removed = append(removed, dst)
			}
		}
	}
	slices.SortFunc(removed, mnet.Addr.Compare)
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
	}
	return stats
}

// entryString renders an entry with its lifetimes as offsets from epoch,
// so two tables' entries compare by what they say, not by how a time.Time
// happens to be held.
func entryString(e Entry) string {
	s := fmt.Sprintf("%v seq=%d valid=%v proto=%q", e.Dst, e.SeqNum, e.Valid, e.Proto)
	if e.Paths == nil {
		return s + " paths=nil"
	}
	for _, p := range e.Paths {
		s += " " + pathString(p)
	}
	return s
}

func pathString(p Path) string {
	exp := "never"
	if !p.Expires.IsZero() {
		exp = p.Expires.Sub(epoch).String()
	}
	return fmt.Sprintf("[%v m%d %s]", p.NextHop, p.Metric, exp)
}

// FuzzTable drives random sequences of every RIB mutation, over a few host
// routes and with the clock advancing, against refTable, and
// compares after every step: each call's result, Entries, ValidCount,
// Lookup over the address set, and the mirrored FIB's List and Ops. After a
// purge it also checks the FIB against the table itself, which a fault the
// reference shares cannot pass: every valid entry's best path is its FIB
// route, and no invalid entry has one. Each step is three bytes: an
// operation, a destination byte and an argument byte.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0x05, 0, 2, 0x16, 5, 0, 0, 3, 1, 0, 8, 0, 0})
	f.Add([]byte{2, 1, 0x05, 2, 1, 0x16, 2, 1, 0x27, 4, 1, 0x16, 7, 1, 0x31, 13, 0, 40, 8, 0, 0})
	f.Add([]byte{9, 0x3f, 0x12, 9, 0x3e, 0x12, 10, 0x1d, 0x25, 11, 0xff, 0x31, 12, 0, 0, 9, 0x3f, 0x40})
	f.Add([]byte{0, 8, 0x11, 0, 9, 0x12, 0, 10, 0x23, 0, 11, 0x05, 5, 0, 1, 6, 9, 0, 15, 10, 0})
	f.Add([]byte{1, 3, 0x35, 1, 4, 0x00, 2, 3, 0x26, 13, 0, 25, 8, 0, 0, 13, 0, 90, 8, 0, 0, 14, 0, 1})
	// Five routes through one next hop and one through another: the link
	// break takes the five, and the purge expires the survivor.
	f.Add([]byte{0, 1, 0x11, 0, 2, 0x12, 0, 3, 0x11, 0, 4, 0x11, 0, 5, 0x11, 0, 0, 0x11, 5, 0, 1, 13, 0, 200, 8, 0, 0})
	// Two paths to one host, the better one expiring first: the purge
	// leaves the entry valid on the other.
	f.Add([]byte{2, 1, 0x11, 2, 1, 0x3a, 13, 0, 20, 8, 0, 0})
	// An extension revives an expired better path after a third path made
	// the entry mirror a worse one (TestExtendRevivalRemirrorsBest).
	f.Add([]byte{2, 1, 0x11, 2, 1, 0x3a, 13, 0, 20, 2, 1, 0x3b, 7, 1, 0x3d, 8, 0, 0})
	// An extension revives a single path that a SyncFIB had mirrored away
	// while it was expired (TestExtendRevivalRestoresFIBRoute).
	f.Add([]byte{0, 1, 0x10, 13, 0, 20, 14, 0, 0, 7, 1, 0x3c, 8, 0, 0})

	hosts := []mnet.Addr{}
	for i := uint32(0); i < 8; i++ {
		hosts = append(hosts, mnet.AddrFrom(0x0a000000+i))
	}
	dstOf := func(a byte) mnet.Addr { return hosts[a&7] }
	hopOf := func(b byte) mnet.Addr { return mnet.AddrFrom(0x0a000100 + uint32(b&3)) }
	probes := append(slices.Clone(hosts), mnet.AddrFrom(0x0a000009), mnet.AddrFrom(0x0a0000ff), mnet.AddrFrom(0x0a010001), mnet.AddrFrom(0x0b000001))
	protos := []string{"olsr", "dymo"}

	f.Fuzz(func(t *testing.T, ops []byte) {
		clk := vclock.NewVirtual(epoch)
		pathOf := func(b byte) Path {
			var exp time.Time
			if k := b >> 4 & 3; k > 0 {
				exp = clk.Now().Add(time.Duration(k*k) * 10 * time.Millisecond)
			}
			return Path{NextHop: hopOf(b), Metric: 1 + int(b>>2&3), Expires: exp}
		}
		desiredOf := func(mask, b byte) []ProtoRoute {
			var ds []ProtoRoute
			for i := 0; i < 8; i++ {
				if mask&(1<<i) != 0 {
					p := pathOf(b + byte(i))
					ds = append(ds, ProtoRoute{Dst: mnet.HostPrefix(dstOf(byte(i))), NextHop: p.NextHop, Metric: p.Metric, Expires: p.Expires})
				}
			}
			return ds
		}
		tb, ref := NewTable(clk), newRefTable(clk)
		fib, refFIB := NewFIB(), NewFIB()
		tb.SyncFIB(fib, "emu0")
		ref.SyncFIB(refFIB, "emu0")

		for step := 0; len(ops) >= 3; step++ {
			op, a, b := ops[0]%16, ops[1], ops[2]
			ops = ops[3:]
			dst, hop, proto := dstOf(a), hopOf(b), protos[b>>6&1]
			var got, want any
			switch op {
			case 0:
				e := Entry{Dst: mnet.HostPrefix(dst), Paths: []Path{pathOf(b)}, SeqNum: uint16(b), Valid: true, Proto: proto}
				tb.Upsert(e)
				ref.Upsert(e)
			case 1: // no path, or two
				e := Entry{Dst: mnet.HostPrefix(dst), SeqNum: uint16(a), Valid: b&1 == 0, Proto: proto}
				if b&2 != 0 {
					e.Paths = []Path{pathOf(b), pathOf(b + 0x15)}
				}
				tb.Upsert(e)
				ref.Upsert(e)
			case 2:
				tb.AddPath(dst, proto, uint16(b), pathOf(b))
				ref.AddPath(dst, proto, uint16(b), pathOf(b))
			case 3:
				got, want = tb.Invalidate(dst), ref.Invalidate(dst)
			case 4:
				got, want = tb.InvalidatePath(dst, hop), ref.InvalidatePath(dst, hop)
			case 5:
				got, want = fmt.Sprint(tb.InvalidateVia(hop)), fmt.Sprint(ref.InvalidateVia(hop))
			case 6: // a removal alone
				del := []mnet.Addr{dst}
				got, want = tb.ApplyProto(proto, nil, del), ref.installBatch(proto, nil, del, installApply)
			case 7:
				if b&0x80 != 0 {
					hop = mnet.Addr{}
				}
				d := time.Duration(b&0x3c) * time.Millisecond
				got, want = tb.ExtendLifetime(dst, hop, d), ref.ExtendLifetime(dst, hop, d)
			case 8:
				got, want = tb.PurgeExpired(), ref.PurgeExpired()
			case 9:
				ds := desiredOf(a, b)
				got, want = tb.ReplaceProto(proto, ds), ref.installBatch(proto, ds, nil, installReplace)
			case 10:
				ds := desiredOf(a&0x0f, b)
				del := func() []mnet.Addr {
					var del []mnet.Addr
					for i := 0; i < 4; i++ {
						if a&(0x10<<i) != 0 {
							del = append(del, dstOf(byte(i*3)+b))
						}
					}
					return del
				}
				got, want = tb.ApplyProto(proto, ds, del()), ref.installBatch(proto, ds, del(), installApply)
			case 11:
				ds := desiredOf(a, b)
				got, want = tb.RefreshProto(proto, ds), ref.installBatch(proto, ds, nil, installRefresh)
			case 12:
				tb.Clear()
				ref.Clear()
			case 13:
				clk.Advance(time.Duration(b) * time.Millisecond)
			case 14:
				tb.SyncFIB(fib, "emu0")
				ref.SyncFIB(refFIB, "emu0")
			case 15:
				e, ok := tb.Get(dst)
				re, rok := ref.Get(dst)
				got, want = fmt.Sprint(entryString(e), ok), fmt.Sprint(entryString(re), rok)
			}
			if got != want {
				t.Fatalf("step %d: op %d on %v returned %v, reference %v", step, op, dst, got, want)
			}
			es, res := tb.Entries(), ref.Entries()
			if !slices.EqualFunc(es, res, func(x, y Entry) bool { return entryString(x) == entryString(y) }) {
				t.Fatalf("step %d: op %d: Entries\n%v\nreference\n%v", step, op, es, res)
			}
			if tb.ValidCount() != ref.ValidCount() {
				t.Fatalf("step %d: ValidCount %d, reference %d", step, tb.ValidCount(), ref.ValidCount())
			}
			if !slices.Equal(fib.List(), refFIB.List()) || fib.Ops() != refFIB.Ops() {
				t.Fatalf("step %d: op %d: FIB %v (%d ops)\nreference %v (%d ops)", step, op, fib.List(), fib.Ops(), refFIB.List(), refFIB.Ops())
			}
			if op == 8 {
				checkPurgedFIB(t, step, es, fib, clk.Now())
			}
			for _, d := range probes {
				e, p, err := tb.Lookup(d)
				re, rp, rerr := ref.Lookup(d)
				if entryString(e) != entryString(re) || pathString(p) != pathString(rp) || fmt.Sprint(err) != fmt.Sprint(rerr) {
					t.Fatalf("step %d: Lookup(%v) = %s %s %v\nreference %s %s %v", step, d, entryString(e), pathString(p), err, entryString(re), pathString(rp), rerr)
				}
			}
		}
	})
}

// checkPurgedFIB requires fib to hold, for each of es, the entry's best path
// at now if it is valid and has one, and nothing otherwise.
func checkPurgedFIB(t *testing.T, step int, es []Entry, fib *FIB, now time.Time) {
	t.Helper()
	held := make(map[mnet.Prefix]FIBRoute)
	for _, r := range fib.List() {
		held[r.Dst] = r
	}
	for _, e := range es {
		r, ok := held[e.Dst]
		best, has := e.Best(now)
		if !e.Valid || !has {
			if ok {
				t.Fatalf("step %d: purge left %s in the FIB as %+v", step, entryString(e), r)
			}
			continue
		}
		if !ok || r.NextHop != best.NextHop || r.Metric != best.Metric {
			t.Fatalf("step %d: FIB route %+v, %v for %s; best path %s", step, r, ok, entryString(e), pathString(best))
		}
	}
}
