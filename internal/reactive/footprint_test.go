package reactive

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"manetkit/internal/mnet"
)

// holdsPointers reports whether a value of type t contains a pointer the
// collector would have to scan.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return true
	}
	return false
}

// liveHeap returns the bytes in use on the heap after two full collections;
// the second frees what the first only moved to sync.Pool victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestDupSetHoldsNoPointers(t *testing.T) {
	slots, _ := reflect.TypeOf(DupSet{}.seen).FieldByName("slots")
	if slot := slots.Type.Elem(); holdsPointers(slot) {
		t.Fatalf("the duplicate set's slot %v holds pointers the collector scans", slot)
	}
}

// TestDupSetBytesPerEntry pins the footprint of a set the size one node of
// a 144-node OLSR flood holds: about 1 200 entries. Eight sets are built so
// the heap's background noise is spread thin.
func TestDupSetBytesPerEntry(t *testing.T) {
	const n, limit = 1200, 40
	before := liveHeap()
	var sets [8]DupSet
	for j := range sets {
		for i := 0; i < n; i++ {
			sets[j].Seen(Key{Orig: mnet.AddrFrom(0x0a000000 + uint32(i/16)), Seq: uint16(i % 16)}, epoch.Add(time.Duration(i)*time.Millisecond))
		}
	}
	per := float64(liveHeap()-before) / float64(n*len(sets))
	runtime.KeepAlive(&sets)
	t.Logf("%d entries: %.1f B each", n, per)
	if per > limit {
		t.Fatalf("%d entries cost %.1f B each, want at most %d", n, per, limit)
	}
}

func TestDupSetAllocs(t *testing.T) {
	var s DupSet
	k := Key{Orig: mnet.AddrFrom(0x0a000001), Seq: 7}
	for i := 0; i < 64; i++ {
		s.Seen(Key{Orig: mnet.AddrFrom(0x0a000100 + uint32(i)), Seq: 1}, epoch)
	}
	s.Seen(k, epoch)
	now := epoch.Add(time.Second)
	if n := testing.AllocsPerRun(100, func() { s.Seen(k, now) }); n != 0 {
		t.Errorf("Seen of a held key allocates %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Sweep(now, DupHold, nil) }); n != 0 {
		t.Errorf("Sweep with nothing expired allocates %.1f times", n)
	}
	if s.Len() != 65 {
		t.Fatalf("Len = %d after the runs, want 65", s.Len())
	}
}

// forgedOrigins returns n originator addresses of each shape an attacker
// picking them against the duplicate set might send: addresses that share
// their low 20 bits, multiples of 2^16, and sequential addresses.
func forgedOrigins(n int) map[string][]mnet.Addr {
	out := make(map[string][]mnet.Addr)
	for i := uint32(0); i < uint32(n); i++ {
		out["shared low 20 bits"] = append(out["shared low 20 bits"], mnet.AddrFrom(i<<20|0x0abcd))
		out["multiples of 2^16"] = append(out["multiples of 2^16"], mnet.AddrFrom(i<<16))
		out["sequential"] = append(out["sequential"], mnet.AddrFrom(0x0a000000+i))
	}
	return out
}

// TestForgedKeysKeepProbeChainsShort: 4 096 forged originators of each
// shape keep every look-up in the duplicate set to a short probe chain.
// The table is half full; the three shapes read 15 to 19 slots, about what
// random keys give.
func TestForgedKeysKeepProbeChainsShort(t *testing.T) {
	const n, limit = 4096, 24
	for shape, origins := range forgedOrigins(n) {
		var s DupSet
		for _, o := range origins {
			s.Seen(Key{Orig: o, Seq: 1}, epoch)
		}
		if s.Len() != n {
			t.Fatalf("%s: %d entries held, want %d", shape, s.Len(), n)
		}
		got := s.seen.LongestChain()
		t.Logf("%s: longest probe chain %d", shape, got)
		if got > limit {
			t.Errorf("%s: a look-up probes up to %d slots, want at most %d", shape, got, limit)
		}
	}
}
