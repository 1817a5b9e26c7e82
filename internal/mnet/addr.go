// Package mnet defines the elementary network types shared by every layer
// of MANETKit: node addresses, prefixes and related helpers.
//
// MANETKit deployments identify nodes by a 4-byte address in the style of
// IPv4. The address doubles as the node identity on the emulated medium
// (package emunet) and as the originator/target address carried inside
// PacketBB messages (package packetbb).
package mnet

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// AddrLen is the length in bytes of a MANETKit node address.
const AddrLen = 4

// Addr is a 4-byte node address. The zero value is the unspecified address.
type Addr [AddrLen]byte

// Broadcast is the link-local broadcast address: frames sent to it are
// delivered to every in-range node.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff}

// AddrFrom builds an address from a 32-bit integer in big-endian order.
// AddrFrom(0x0a000001) is "10.0.0.1".
func AddrFrom(u uint32) Addr {
	return Addr{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}
}

// Uint32 returns the address as a big-endian 32-bit integer.
func (a Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IsBroadcast reports whether a is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// IsUnspecified reports whether a is the zero address.
func (a Addr) IsUnspecified() bool { return a == Addr{} }

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	var b strings.Builder
	b.Grow(15)
	for i, octet := range a {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(int(octet)))
	}
	return b.String()
}

// ErrBadAddr reports a malformed textual address.
var ErrBadAddr = errors.New("mnet: malformed address")

// ParseAddr parses a dotted-quad address such as "10.0.0.7".
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != AddrLen {
		return Addr{}, fmt.Errorf("%w: %q", ErrBadAddr, s)
	}
	var a Addr
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return Addr{}, fmt.Errorf("%w: %q", ErrBadAddr, s)
		}
		a[i] = byte(n)
	}
	return a, nil
}

// MustParseAddr is ParseAddr for tests and tables of literals; it panics on
// malformed input.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Less imposes a total order on addresses (lexicographic, i.e. numeric on
// the big-endian value). Used to keep route and neighbour tables in a
// deterministic iteration order.
func (a Addr) Less(b Addr) bool { return a.Uint32() < b.Uint32() }

// Compare orders addresses as Less does, in the form slices.SortFunc takes:
// slices.SortFunc(addrs, mnet.Addr.Compare).
func (a Addr) Compare(b Addr) int { return cmp.Compare(a.Uint32(), b.Uint32()) }

// Prefix is an address prefix: a base address plus a prefix length in bits.
// A host route has Bits == 32, and the routing tables hold nothing else.
type Prefix struct {
	Addr Addr
	Bits int
}

// HostPrefix returns the /32 prefix covering exactly addr.
func HostPrefix(addr Addr) Prefix { return Prefix{Addr: addr, Bits: 8 * AddrLen} }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(p.Bits)
}
