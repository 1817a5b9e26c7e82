package route

import (
	"sort"
	"sync"

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

// FIB simulates the kernel forwarding table. The System CF State element
// exposes it to protocols ("operations to manipulate the kernel routing
// table", §4.3), and the packet filter consults it to forward data packets.
type FIB struct {
	mu     sync.Mutex
	routes map[mnet.Prefix]FIBRoute
	wide   int    // routes that are not host routes (HNA prefixes)
	ops    uint64 // mutations applied (Set + successful Del)
}

// NewFIB returns an empty forwarding table.
func NewFIB() *FIB {
	return &FIB{routes: make(map[mnet.Prefix]FIBRoute)}
}

// Set installs or replaces the route for r.Dst.
func (f *FIB) Set(r FIBRoute) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.routes[r.Dst]; !ok && r.Dst.Bits != hostBits {
		f.wide++
	}
	f.routes[r.Dst] = r
	f.ops++
}

// Del removes the route for dst. It reports whether a route was present.
func (f *FIB) Del(dst mnet.Prefix) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.routes[dst]
	delete(f.routes, dst)
	if ok {
		f.ops++
		if dst.Bits != hostBits {
			f.wide--
		}
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
// is the longest match there can be, so it is tried first, and the table is
// scanned only while it holds a shorter prefix that could match instead.
func (f *FIB) Lookup(dst mnet.Addr) (FIBRoute, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.routes[mnet.HostPrefix(dst)]; ok || f.wide == 0 {
		return r, ok
	}
	var best FIBRoute
	bestBits := -1
	for _, r := range f.routes {
		if r.Dst.Contains(dst) && r.Dst.Bits > bestBits {
			best = r
			bestBits = r.Dst.Bits
		}
	}
	return best, bestBits >= 0
}

// List returns all forwarding entries sorted by destination.
func (f *FIB) List() []FIBRoute {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FIBRoute, 0, len(f.routes))
	for _, r := range f.routes {
		out = append(out, r)
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
	return len(f.routes)
}

// FlushProto removes every route owned by the named protocol — used when a
// protocol is undeployed. It returns the number removed.
func (f *FIB) FlushProto(proto string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for dst, r := range f.routes {
		if r.Proto == proto {
			delete(f.routes, dst)
			n++
			if dst.Bits != hostBits {
				f.wide--
			}
		}
	}
	return n
}
