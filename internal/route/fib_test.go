package route

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

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

// slotType returns the slot type of a flat.Table.
func slotType(table any) reflect.Type {
	slots, _ := reflect.TypeOf(table).FieldByName("slots")
	return slots.Type.Elem()
}

func TestFIBHoldsNoPointers(t *testing.T) {
	if typ := slotType(NewFIB().routes); holdsPointers(typ) {
		t.Fatalf("the FIB's %v holds pointers the collector scans", typ)
	}
}

// TestFIBBytesPerRoute pins the footprint of the table one node of a
// 144-node OLSR flood holds: a host route to every other node. Eight tables
// are built so the heap's background noise is spread thin.
func TestFIBBytesPerRoute(t *testing.T) {
	const n, limit = 143, 80
	before := liveHeap()
	var fibs [8]*FIB
	for j := range fibs {
		fibs[j] = NewFIB()
		for i := 0; i < n; i++ {
			fibs[j].Set(FIBRoute{
				Dst:     mnet.HostPrefix(mnet.AddrFrom(0x0a000100 + uint32(i))),
				NextHop: mnet.AddrFrom(0x0a000001 + uint32(i%4)),
				Metric:  1 + i%11,
				Device:  "emu0",
				Proto:   "olsr",
			})
		}
	}
	per := float64(liveHeap()-before) / float64(n*len(fibs))
	runtime.KeepAlive(&fibs)
	t.Logf("%d host routes: %.1f B each", n, per)
	if per > limit {
		t.Fatalf("%d host routes cost %.1f B each, want at most %d", n, per, limit)
	}
}

func TestFIBAllocs(t *testing.T) {
	f := NewFIB()
	for i := 0; i < 32; i++ {
		f.Set(FIBRoute{Dst: mnet.HostPrefix(mnet.AddrFrom(0x0a000100 + uint32(i))), NextHop: mnet.AddrFrom(0x0a000001), Device: "emu0", Proto: "olsr"})
	}
	hit, miss := mnet.AddrFrom(0x0a000105), mnet.AddrFrom(0x0c000001)
	replace := FIBRoute{Dst: mnet.HostPrefix(hit), NextHop: mnet.AddrFrom(0x0a000003), Metric: 4, Device: "emu0", Proto: "olsr"}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Lookup hit", func() { f.Lookup(hit) }},
		{"Lookup miss", func() { f.Lookup(miss) }},
		{"Set of a held destination", func() { f.Set(replace) }},
	} {
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("%s allocates %.1f times", tc.name, n)
		}
	}
	if r, ok := f.Lookup(hit); !ok || r != replace {
		t.Fatalf("Lookup(%v) = %+v, %v; want %+v", hit, r, ok, replace)
	}
}

// FuzzFIB drives random Set, Del and FlushProto sequences against a
// map[mnet.Addr]FIBRoute reference — the representation the packed table
// replaced — and compares Lookup over the whole address space, List, Len
// and Ops after every step. Each step is three bytes: an operation, an
// address byte and an argument byte.
func FuzzFIB(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 3, 1, 0x10, 9, 2, 1, 0, 4, 0, 1})
	f.Add([]byte{1, 0x11, 2, 1, 0x12, 2, 1, 0x11, 0x22, 0, 0x11, 5, 3, 0, 2, 2, 0x11, 3})
	f.Add([]byte{1, 0, 0, 1, 0, 0x36, 0, 7, 7, 5, 0, 1, 2, 7, 0, 3, 0, 0, 3, 0, 4, 3, 0, 1})
	f.Add([]byte{1, 0x21, 1, 1, 0x25, 1, 1, 0x2f, 0x14, 0, 0x23, 6, 2, 0x21, 1, 1, 0x25, 0x51})
	// A route replaced under another device and protocol stays one entry:
	// flushing its old protocol leaves it, flushing the new one removes it.
	f.Add([]byte{0, 5, 0, 1, 5, 0x18, 3, 0, 0, 3, 0, 1, 0, 0x25, 0x30, 2, 0x25, 0})
	// Deleting what is absent changes nothing and counts no op; flushing a
	// protocol the table never held removes nothing.
	f.Add([]byte{2, 5, 0, 6, 0x21, 1, 3, 0, 3, 0, 5, 0, 2, 5, 0, 2, 5, 0, 6, 0x21, 1, 3, 0, 3})

	devs := []string{"emu0", "emu1"}
	protos := []string{"olsr", "dymo", "aodv", "zrp"}
	// 64 hosts in four /16s, so keys share low bytes.
	addrOf := func(x byte) mnet.Addr { return mnet.AddrFrom(0x0a000000 | uint32(x>>4&3)<<16 | uint32(x&15)) }
	f.Fuzz(func(t *testing.T, ops []byte) {
		fib := NewFIB()
		ref := make(map[mnet.Addr]FIBRoute)
		var refOps uint64
		for step := 0; len(ops) >= 3; step++ {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			dst := addrOf(a)
			switch op % 4 {
			case 0, 1:
				r := FIBRoute{Dst: mnet.HostPrefix(dst), NextHop: addrOf(b), Metric: int(b) - 100, Device: devs[b>>3&1], Proto: protos[b>>4&3]}
				fib.Set(r)
				ref[dst] = r
				refOps++
			case 2:
				_, want := ref[dst]
				if got := fib.Del(dst); got != want {
					t.Fatalf("step %d: Del(%v) = %v, want %v", step, dst, got, want)
				}
				if want {
					delete(ref, dst)
					refOps++
				}
			case 3:
				proto := protos[b&3]
				want := 0
				for p, r := range ref {
					if r.Proto == proto {
						delete(ref, p)
						want++
					}
				}
				if got := fib.FlushProto(proto); got != want {
					t.Fatalf("step %d: FlushProto(%s) = %d, want %d", step, proto, got, want)
				}
			}

			list := make([]FIBRoute, 0, len(ref))
			for _, r := range ref {
				list = append(list, r)
			}
			slices.SortFunc(list, func(a, b FIBRoute) int { return a.Dst.Addr.Compare(b.Dst.Addr) })
			if got := fib.List(); !slices.Equal(got, list) {
				t.Fatalf("step %d: List = %+v\nwant %+v", step, got, list)
			}
			if fib.Len() != len(ref) || fib.Ops() != refOps {
				t.Fatalf("step %d: Len %d, Ops %d; want %d, %d", step, fib.Len(), fib.Ops(), len(ref), refOps)
			}
			for x := 0; x < 64; x++ {
				d := addrOf(byte(x))
				got, ok := fib.Lookup(d)
				want, wantOK := ref[d]
				if ok != wantOK || got != want {
					t.Fatalf("step %d: Lookup(%v) = %+v, %v; want %+v, %v", step, d, got, ok, want, wantOK)
				}
			}
		}
	})
}
