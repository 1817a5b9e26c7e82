package route

import (
	"slices"
	"sort"
	"sync"

	"manetkit/internal/flat"
	"manetkit/internal/mnet"
)

// hostBits is the prefix length of a host route.
const hostBits = 8 * mnet.AddrLen

// FIBRoute is one forwarding entry in the simulated kernel table.
type FIBRoute struct {
	Dst     mnet.Prefix
	NextHop mnet.Addr
	Metric  int
	Device  string
	Proto   string
}

// fibEntry is a FIBRoute as the table stores it: 16 bytes, no pointer. The
// destination is the key it is stored under, and dev and proto index the
// FIB's names.
type fibEntry struct {
	nextHop    mnet.Addr
	dev, proto uint16
	metric     int
}

// FIB simulates the kernel forwarding table. The System CF State element
// exposes it to protocols ("operations to manipulate the kernel routing
// table", §4.3), and the packet filter consults it to forward data packets.
type FIB struct {
	mu    sync.Mutex
	host  flat.Table[uint32, fibEntry] // host routes, keyed by destination
	wide  map[mnet.Prefix]fibEntry     // every other prefix length (HNA prefixes)
	names []string                     // interned Device and Proto strings
	ops   uint64                       // mutations applied (Set + successful Del)
}

// NewFIB returns an empty forwarding table.
func NewFIB() *FIB {
	return &FIB{wide: make(map[mnet.Prefix]fibEntry)}
}

// intern returns name's index in f.names, adding it on first sight. Called
// with f.mu held. A replaced route finds its names already held.
func (f *FIB) intern(name string) uint16 {
	if i := slices.Index(f.names, name); i >= 0 {
		return uint16(i)
	}
	if len(f.names) > 0xffff {
		panic("route: FIB holds more than 65536 distinct device and protocol names")
	}
	f.names = append(f.names, name)
	return uint16(len(f.names) - 1)
}

// route rebuilds the FIBRoute e stores for dst. Called with f.mu held.
func (f *FIB) route(dst mnet.Prefix, e fibEntry) FIBRoute {
	return FIBRoute{Dst: dst, NextHop: e.nextHop, Metric: e.metric, Device: f.names[e.dev], Proto: f.names[e.proto]}
}

// Set installs or replaces the route for r.Dst.
func (f *FIB) Set(r FIBRoute) { f.set(r, false) }

// set is Set. With ifChanged it leaves a route equal to r alone and counts
// no op.
func (f *FIB) set(r FIBRoute, ifChanged bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := fibEntry{nextHop: r.NextHop, dev: f.intern(r.Device), proto: f.intern(r.Proto), metric: r.Metric}
	if r.Dst.Bits == hostBits {
		old, ok := f.host.Upsert(r.Dst.Addr.Uint32())
		if ifChanged && ok && *old == e {
			return
		}
		*old = e
	} else {
		if old, ok := f.wide[r.Dst]; ifChanged && ok && old == e {
			return
		}
		f.wide[r.Dst] = e
	}
	f.ops++
}

// Del removes the route for dst. It reports whether a route was present.
func (f *FIB) Del(dst mnet.Prefix) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ok bool
	if dst.Bits == hostBits {
		ok = f.host.Delete(dst.Addr.Uint32())
	} else {
		_, ok = f.wide[dst]
		delete(f.wide, dst)
	}
	if ok {
		f.ops++
	}
	return ok
}

// Ops returns the number of mutations applied to the table since creation.
// Diff-install correctness tests use it to prove a steady-state recompute
// leaves the kernel table untouched.
func (f *FIB) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Lookup performs longest-prefix-match forwarding resolution. A host route
// is the longest match there can be, so it is tried first; only on a miss
// are the shorter prefixes scanned. Among equally long matches the lowest
// base address wins.
func (f *FIB) Lookup(dst mnet.Addr) (FIBRoute, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.host.Get(dst.Uint32()); ok {
		return f.route(mnet.HostPrefix(dst), e), true
	}
	best := mnet.Prefix{Bits: -1}
	var bestE fibEntry
	for p, e := range f.wide {
		if p.Contains(dst) && (p.Bits > best.Bits || p.Bits == best.Bits && p.Addr.Less(best.Addr)) {
			best, bestE = p, e
		}
	}
	if best.Bits < 0 {
		return FIBRoute{}, false
	}
	return f.route(best, bestE), true
}

// List returns all forwarding entries sorted by destination.
func (f *FIB) List() []FIBRoute {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FIBRoute, 0, f.host.Len()+len(f.wide))
	f.host.Range(func(a uint32, e fibEntry) {
		out = append(out, f.route(mnet.HostPrefix(mnet.AddrFrom(a)), e))
	})
	for p, e := range f.wide {
		out = append(out, f.route(p, e))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dst.Addr != out[j].Dst.Addr {
			return out[i].Dst.Addr.Less(out[j].Dst.Addr)
		}
		return out[i].Dst.Bits < out[j].Dst.Bits
	})
	return out
}

// Len returns the number of forwarding entries.
func (f *FIB) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.host.Len() + len(f.wide)
}

// FlushProto removes every route owned by the named protocol — used when a
// protocol is undeployed. It returns the number removed.
func (f *FIB) FlushProto(proto string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := slices.Index(f.names, proto)
	if idx < 0 {
		return 0
	}
	n := f.host.DeleteFunc(func(_ uint32, e fibEntry) bool { return int(e.proto) == idx })
	for p, e := range f.wide {
		if int(e.proto) == idx {
			delete(f.wide, p)
			n++
		}
	}
	return n
}
