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
	m := reflect.TypeOf(DupSet{}.seen)
	if holdsPointers(m.Key()) || holdsPointers(m.Elem()) {
		t.Fatalf("the duplicate set's %v holds pointers the collector scans", m)
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
