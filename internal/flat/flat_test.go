package flat

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// check verifies the table's invariants: the count matches the occupied
// slots, the load stays at most three quarters, and every key is reachable
// from its home without crossing a free slot.
func check[K Key, V any](t *testing.T, tb *Table[K, V]) {
	t.Helper()
	held := 0
	mask := len(tb.slots) - 1
	for i, s := range tb.slots {
		if s.key == 0 {
			continue
		}
		held++
		for j := tb.home(s.key); j != i; j = (j + 1) & mask {
			if tb.slots[j].key == 0 {
				t.Fatalf("key %#x at slot %d: free slot %d on its chain from home %d", s.key, i, j, tb.home(s.key))
			}
		}
	}
	if held != tb.n {
		t.Fatalf("%d occupied slots, n = %d", held, tb.n)
	}
	if 4*tb.n > 3*len(tb.slots) {
		t.Fatalf("%d keys in %d slots: over three quarters full", tb.n, len(tb.slots))
	}
}

// homedAt returns count keys above from whose home in a table of size slots
// is at.
func homedAt(size, at, count int, from uint32) []uint32 {
	probe := Table[uint32, int]{slots: make([]slot[uint32, int], size), shift: uint8(64 - bits.TrailingZeros(uint(size)))}
	var out []uint32
	for k := from; len(out) < count; k++ {
		if probe.home(k) == at {
			out = append(out, k)
		}
	}
	return out
}

func TestZeroAndAllOnesKeys(t *testing.T) {
	var a Table[uint32, int32]
	var b Table[uint64, int64]
	for i, k := range []uint32{0, math.MaxUint32} {
		a.Set(k, int32(i+1))
		b.Set(uint64(k), int64(i+1))
		b.Set(math.MaxUint64-uint64(i), int64(i+10))
	}
	if v, ok := a.Get(0); !ok || v != 1 {
		t.Fatalf("Get(0) = %d, %v; want 1, true", v, ok)
	}
	if v, ok := a.Get(math.MaxUint32); !ok || v != 2 {
		t.Fatalf("Get(MaxUint32) = %d, %v; want 2, true", v, ok)
	}
	if v, ok := b.Get(math.MaxUint64); !ok || v != 10 {
		t.Fatalf("Get(MaxUint64) = %d, %v; want 10, true", v, ok)
	}
	if a.Len() != 2 || b.Len() != 4 {
		t.Fatalf("Len = %d, %d; want 2, 4", a.Len(), b.Len())
	}
	if p, found := a.Upsert(0); !found || *p != 1 {
		t.Fatalf("Upsert(0) of a held zero key = %d, %v", *p, found)
	}
	var keys []uint32
	a.Range(func(k uint32, _ int32) { keys = append(keys, k) })
	if !slices.Equal(keys, []uint32{0, math.MaxUint32}) {
		t.Fatalf("Range visited %v, want the zero key first, then MaxUint32", keys)
	}
	if !a.Delete(0) || a.Delete(0) {
		t.Fatal("Delete(0) did not report the zero key held exactly once")
	}
	if _, ok := a.Get(0); ok || a.Len() != 1 {
		t.Fatalf("zero key still held after Delete, Len %d", a.Len())
	}
	if n := b.DeleteFunc(func(k uint64, _ int64) bool { return k == 0 || k == math.MaxUint64 }); n != 2 {
		t.Fatalf("DeleteFunc removed %d keys, want 2", n)
	}
	if _, ok := b.Get(0); ok {
		t.Fatal("DeleteFunc left the zero key")
	}
	check(t, &a)
	check(t, &b)
}

// TestDeleteWrapsPastTheEnd: three keys homed at the last slot of an
// eight-slot table occupy slots 7, 0 and 1; deleting the first must shift
// the other two back across the end of the array.
func TestDeleteWrapsPastTheEnd(t *testing.T) {
	var tb Table[uint32, int]
	keys := homedAt(minSlots, minSlots-1, 3, 1)
	for i, k := range keys {
		tb.Set(k, i)
	}
	if len(tb.slots) != minSlots || tb.slots[minSlots-1].key != keys[0] || tb.slots[0].key != keys[1] || tb.slots[1].key != keys[2] {
		t.Fatalf("set-up: keys %v not at slots 7, 0, 1", keys)
	}
	if !tb.Delete(keys[0]) {
		t.Fatal("Delete missed a held key")
	}
	check(t, &tb)
	if tb.slots[minSlots-1].key != keys[1] || tb.slots[0].key != keys[2] || tb.slots[1].key != 0 {
		t.Fatalf("after the delete slots 7, 0, 1 hold %#x, %#x, %#x; want %#x, %#x, free",
			tb.slots[minSlots-1].key, tb.slots[0].key, tb.slots[1].key, keys[1], keys[2])
	}
	for i, k := range keys[1:] {
		if v, ok := tb.Get(k); !ok || v != i+1 {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", k, v, ok, i+1)
		}
	}
}

// TestGrowWhileAChainIsOpen fills an eight-slot table to its limit with
// keys that share one home, so the next insertion probes the whole chain
// before it must grow; a held key's Upsert at the limit must not grow.
func TestGrowWhileAChainIsOpen(t *testing.T) {
	var tb Table[uint32, int]
	keys := homedAt(minSlots, 2, 7, 1)
	for i, k := range keys[:6] {
		tb.Set(k, i)
	}
	if p, found := tb.Upsert(keys[5]); !found || *p != 5 || len(tb.slots) != minSlots {
		t.Fatalf("Upsert of a held key at the limit: %d, %v, %d slots", *p, found, len(tb.slots))
	}
	p, found := tb.Upsert(keys[6])
	if found {
		t.Fatal("Upsert reported a new key held")
	}
	*p = 6
	if len(tb.slots) != 2*minSlots {
		t.Fatalf("%d slots after the seventh key, want %d", len(tb.slots), 2*minSlots)
	}
	check(t, &tb)
	for i, k := range keys {
		if v, ok := tb.Get(k); !ok || v != i {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
}

// TestDeleteFuncCallsDropOncePerKey removes every third key of a table
// whose chains wrap past the end and checks drop saw each key once.
func TestDeleteFuncCallsDropOncePerKey(t *testing.T) {
	var tb Table[uint64, uint64]
	keys := []uint64{0, math.MaxUint64}
	for _, k := range homedAt(64, 63, 6, 1) {
		keys = append(keys, uint64(k))
	}
	for k := uint64(1 << 40); len(keys) < 48; k += 1 << 16 {
		keys = append(keys, k)
	}
	for i, k := range keys {
		tb.Set(k, uint64(i))
	}
	if len(tb.slots) != 64 || tb.slots[0].key == 0 {
		t.Fatalf("set-up: %d slots, slot 0 free: no chain wraps", len(tb.slots))
	}
	calls := make(map[uint64]int)
	n := tb.DeleteFunc(func(k, v uint64) bool {
		calls[k]++
		return v%3 == 0
	})
	if n != 16 {
		t.Fatalf("DeleteFunc removed %d keys, want 16", n)
	}
	for i, k := range keys {
		if calls[k] != 1 {
			t.Errorf("drop saw key %#x %d times, want once", k, calls[k])
		}
		if _, ok := tb.Get(k); ok != (i%3 != 0) {
			t.Errorf("key %#x (value %d) held = %v after DeleteFunc", k, i, ok)
		}
	}
	if len(calls) != len(keys) {
		t.Errorf("drop saw %d distinct keys, want %d", len(calls), len(keys))
	}
	check(t, &tb)
}

func TestTableAllocs(t *testing.T) {
	var tb Table[uint32, int32]
	for k := uint32(0); k < 100; k++ {
		tb.Set(k, int32(k))
	}
	if n := testing.AllocsPerRun(100, func() {
		p, _ := tb.Upsert(50)
		*p++
		tb.Get(500)
		tb.Delete(7)
		tb.Set(7, 7)
		tb.DeleteFunc(func(k uint32, _ int32) bool { return false })
	}); n != 0 {
		t.Fatalf("look-ups, a delete and a re-insert allocate %.1f times", n)
	}
}

// FuzzFlatTable drives random Upsert, Get, Delete, DeleteFunc and Clear
// sequences on a Table against a Go map and compares Len, every key's
// value and Range's contents after every step, with the invariants check
// verifies. Each step is two bytes: an operation and a key selector. The
// keys are few and include 0 and the all-ones key, so chains collide, wrap
// and shift.
func FuzzFlatTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 0, 1, 1, 2, 1})
	f.Add([]byte{0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 3, 1, 1, 5, 2, 3})
	f.Add([]byte{0, 0x10, 0, 0x11, 0, 0x12, 4, 0, 0, 0x13, 3, 2, 2, 0x13})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 3, 0})

	keyOf := func(b byte) uint32 {
		switch b % 8 {
		case 0:
			return 0
		case 1:
			return math.MaxUint32
		case 2:
			return uint32(b) << 16 // multiples of 2^16
		case 3:
			return uint32(b)<<20 | 0xabcde // a shared low 20 bits
		}
		return uint32(b % 48) // sequential
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tb Table[uint32, uint32]
		ref := make(map[uint32]uint32)
		for step := 0; len(ops) >= 2; step++ {
			op, sel := ops[0], ops[1]
			ops = ops[2:]
			k := keyOf(sel)
			v := uint32(step)
			switch op % 5 {
			case 0:
				p, found := tb.Upsert(k)
				want, held := ref[k]
				if found != held || found && *p != want || !found && *p != 0 {
					t.Fatalf("step %d: Upsert(%#x) = %d, %v; want %d, %v", step, k, *p, found, want, held)
				}
				*p = v
				ref[k] = v
			case 1:
				got, ok := tb.Get(k)
				want, held := ref[k]
				if ok != held || got != want {
					t.Fatalf("step %d: Get(%#x) = %d, %v; want %d, %v", step, k, got, ok, want, held)
				}
			case 2:
				_, held := ref[k]
				if got := tb.Delete(k); got != held {
					t.Fatalf("step %d: Delete(%#x) = %v, want %v", step, k, got, held)
				}
				delete(ref, k)
			case 3:
				calls := make(map[uint32]int)
				m := uint32(sel%4 + 2)
				got := tb.DeleteFunc(func(k, v uint32) bool {
					calls[k]++
					if ref[k] != v {
						t.Fatalf("step %d: DeleteFunc saw %#x = %d, want %d", step, k, v, ref[k])
					}
					return (k+v)%m == 0
				})
				want := 0
				for k, v := range ref {
					if calls[k] != 1 {
						t.Fatalf("step %d: drop saw %#x %d times, want once", step, k, calls[k])
					}
					if (k+v)%m == 0 {
						delete(ref, k)
						want++
					}
				}
				if got != want || len(calls) != len(ref)+want {
					t.Fatalf("step %d: DeleteFunc removed %d, saw %d keys; want %d of %d", step, got, len(calls), want, len(ref)+want)
				}
			case 4:
				tb.Clear()
				clear(ref)
			}
			check(t, &tb)
			if tb.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, want %d", step, tb.Len(), len(ref))
			}
			seen := make(map[uint32]uint32)
			tb.Range(func(k, v uint32) {
				if _, dup := seen[k]; dup {
					t.Fatalf("step %d: Range visited %#x twice", step, k)
				}
				seen[k] = v
			})
			if len(seen) != len(ref) {
				t.Fatalf("step %d: Range visited %d keys, want %d", step, len(seen), len(ref))
			}
			for k, want := range ref {
				if got, ok := tb.Get(k); !ok || got != want || seen[k] != want {
					t.Fatalf("step %d: key %#x: Get %d, %v, Range %d; want %d", step, k, got, ok, seen[k], want)
				}
			}
		}
	})
}
