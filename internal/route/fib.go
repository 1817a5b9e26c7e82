package route

import (
	"fmt"
	"slices"
	"sync"

	"manetkit/internal/flat"
	"manetkit/internal/mnet"
)

// hostBits is the prefix length of a host route.
const hostBits = 8 * mnet.AddrLen

// hostKey returns the address a route's Dst names. The tables hold host
// routes only, so any other prefix length panics.
func hostKey(dst mnet.Prefix) mnet.Addr {
	if dst.Bits != hostBits {
		panic(fmt.Sprintf("route: %v is not a host route; the tables hold /%d destinations only", dst, hostBits))
	}
	return dst.Addr
}

// FIBRoute is one forwarding entry in the simulated kernel table.
type FIBRoute struct {
	Dst     mnet.Prefix // a host prefix
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
	mu     sync.Mutex
	routes flat.Table[uint32, fibEntry] // keyed by destination
	names  []string                     // interned Device and Proto strings
	ops    uint64                       // mutations applied (Set + successful Del)
}

// NewFIB returns an empty forwarding table.
func NewFIB() *FIB { return &FIB{} }

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
func (f *FIB) route(dst mnet.Addr, e fibEntry) FIBRoute {
	return FIBRoute{Dst: mnet.HostPrefix(dst), NextHop: e.nextHop, Metric: e.metric, Device: f.names[e.dev], Proto: f.names[e.proto]}
}

// Set installs or replaces the route for r.Dst, which must be a host
// prefix.
func (f *FIB) Set(r FIBRoute) { f.set(r, false) }

// set is Set. With ifChanged it leaves a route equal to r alone and counts
// no op.
func (f *FIB) set(r FIBRoute, ifChanged bool) {
	dst := hostKey(r.Dst)
	f.mu.Lock()
	defer f.mu.Unlock()
	e := fibEntry{nextHop: r.NextHop, dev: f.intern(r.Device), proto: f.intern(r.Proto), metric: r.Metric}
	old, ok := f.routes.Upsert(dst.Uint32())
	if ifChanged && ok && *old == e {
		return
	}
	*old = e
	f.ops++
}

// Del removes the route for dst. It reports whether a route was present.
func (f *FIB) Del(dst mnet.Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	ok := f.routes.Delete(dst.Uint32())
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

// Lookup returns the forwarding entry for dst: one probe of the table.
func (f *FIB) Lookup(dst mnet.Addr) (FIBRoute, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.routes.Get(dst.Uint32())
	if !ok {
		return FIBRoute{}, false
	}
	return f.route(dst, e), true
}

// List returns all forwarding entries sorted by destination.
func (f *FIB) List() []FIBRoute {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FIBRoute, 0, f.routes.Len())
	f.routes.Range(func(a uint32, e fibEntry) {
		out = append(out, f.route(mnet.AddrFrom(a), e))
	})
	slices.SortFunc(out, func(a, b FIBRoute) int { return a.Dst.Addr.Compare(b.Dst.Addr) })
	return out
}

// Len returns the number of forwarding entries.
func (f *FIB) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.routes.Len()
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
	return f.routes.DeleteFunc(func(_ uint32, e fibEntry) bool { return int(e.proto) == idx })
}
