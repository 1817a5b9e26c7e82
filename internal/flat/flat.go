// Package flat is the open-addressed hash table behind the routing state's
// per-frame look-ups: the duplicate set, OLSR's address index, and the
// RIB's and FIB's host indexes. One look-up is one probe sequence over a
// single flat array: linear probing from a fixed, fully avalanching hash of
// the key, where a Go map walks header, directory, table and group first.
//
// Slots are {key, value} pairs and hold no pointer when the value holds
// none, so the collector skips the array. Deletion shifts the rest of a
// probe chain back, so no tombstones lengthen later look-ups. The hash takes no
// per-table seed: the walk order of Range and DeleteFunc is a function of
// the insertions and deletions alone, which keeps replays byte-identical,
// at the price that keys chosen against the hash could lengthen chains.
package flat

import "math/bits"

// Key is the key type of a Table: an address (uint32) or a packed pair
// (uint64). Every value is storable; 0 marks an empty slot, so the zero key
// lives in a slot of its own beside the array.
type Key interface{ ~uint32 | ~uint64 }

// minSlots is the size of a table's first array.
const minSlots = 8

type slot[K Key, V any] struct {
	key K
	val V
}

// Table maps keys to values. The zero value is an empty table. It is not
// safe for concurrent use.
type Table[K Key, V any] struct {
	slots   []slot[K, V] // empty, or a power of two long; key 0 marks a free slot
	n       int          // keys held in slots (the zero key not counted)
	shift   uint8        // 64 − log2(len(slots)): home takes the hash's top bits
	hasZero bool
	zero    V // the zero key's value, while hasZero
}

// mix is the splitmix64 finalizer: every input bit flips each output bit
// with probability about one half, so keys that differ only in a few bits
// (sequential addresses, a shared prefix, multiples of 2^16) still spread.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// home returns k's first probe position. The table must have slots.
func (t *Table[K, V]) home(k K) int { return int(mix(uint64(k)) >> t.shift) }

// Len returns the number of keys held.
func (t *Table[K, V]) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// find returns k's slot index, or -1. k must not be 0.
func (t *Table[K, V]) find(k K) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return i
		case 0:
			return -1
		}
	}
}

// Get returns k's value and whether k is held.
func (t *Table[K, V]) Get(k K) (V, bool) {
	if k == 0 {
		return t.zero, t.hasZero
	}
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var v V
	return v, false
}

// Upsert returns a pointer to k's value, inserting k with the zero value
// first when it is absent, and reports whether k was already held. The
// pointer is valid until the next insertion or deletion. A held key costs
// one probe sequence and never grows the table.
func (t *Table[K, V]) Upsert(k K) (v *V, found bool) {
	if k == 0 {
		found, t.hasZero = t.hasZero, true
		return &t.zero, found
	}
	if len(t.slots) > 0 {
		mask := len(t.slots) - 1
		i := t.home(k)
		for ; t.slots[i].key != 0; i = (i + 1) & mask {
			if t.slots[i].key == k {
				return &t.slots[i].val, true
			}
		}
		if 4*(t.n+1) <= 3*len(t.slots) {
			t.slots[i].key = k
			t.n++
			return &t.slots[i].val, false
		}
	}
	t.grow()
	i := t.place(k)
	t.n++
	return &t.slots[i].val, false
}

// Set stores v under k.
func (t *Table[K, V]) Set(k K, v V) {
	p, _ := t.Upsert(k)
	*p = v
}

// place claims the first free slot on k's probe chain for k, which must be
// absent, and returns its index.
func (t *Table[K, V]) place(k K) int {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].key = k
	return i
}

// grow doubles the array (or makes the first one) and re-places every key.
func (t *Table[K, V]) grow() {
	old := t.slots
	size := max(minSlots, 2*len(old))
	t.slots = make([]slot[K, V], size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.place(s.key)].val = s.val
		}
	}
}

// Delete removes k and reports whether it was held.
func (t *Table[K, V]) Delete(k K) bool {
	if k == 0 {
		held := t.hasZero
		t.dropZero()
		return held
	}
	i := t.find(k)
	if i < 0 {
		return false
	}
	t.deleteAt(i)
	return true
}

func (t *Table[K, V]) dropZero() {
	var v V
	t.hasZero, t.zero = false, v
}

// deleteAt frees slot i and shifts the rest of its probe chain back: each
// later key whose home is not past the gap moves into it, so no chain is
// left broken and no tombstone is needed. Keys only move towards i.
func (t *Table[K, V]) deleteAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The key at j may fill the gap when its home lies at or before
		// i on its chain: its displacement reaches back past i.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[K, V]{}
	t.n--
}

// DeleteFunc calls drop once for every held key (the zero key first, then
// the array from just past a free slot), removes those for which it returns
// true, and returns how many it removed. It works in place and allocates
// nothing. drop must not modify t.
func (t *Table[K, V]) DeleteFunc(drop func(K, V) bool) int {
	removed := 0
	if t.hasZero && drop(0, t.zero) {
		t.dropZero()
		removed++
	}
	if t.n == 0 {
		return removed
	}
	// Walk from just past a free slot: no chain then wraps past the walk's
	// start, and a deletion only moves keys the walk has yet to reach into
	// the slot it stands on, which it therefore reads again.
	mask := len(t.slots) - 1
	start := 0
	for t.slots[start].key != 0 {
		start++
	}
	for c := 1; c < len(t.slots); {
		i := (start + c) & mask
		if s := &t.slots[i]; s.key != 0 && drop(s.key, s.val) {
			t.deleteAt(i)
			removed++
			continue
		}
		c++
	}
	return removed
}

// Range calls fn on every held key and its value: the zero key first, then
// the array's order, which depends only on the table's history. fn must not
// modify t.
func (t *Table[K, V]) Range(fn func(K, V)) {
	if t.hasZero {
		fn(0, t.zero)
	}
	if t.n == 0 {
		return
	}
	for _, s := range t.slots {
		if s.key != 0 {
			fn(s.key, s.val)
		}
	}
}

// Clear removes every key and keeps the array.
func (t *Table[K, V]) Clear() {
	clear(t.slots)
	t.n = 0
	t.dropZero()
}

// LongestChain returns the most slots a look-up of a held key probes: the
// largest displacement from a key's home, plus one. Hostile-input tests
// bound it.
func (t *Table[K, V]) LongestChain() int {
	longest := 0
	mask := len(t.slots) - 1
	for i, s := range t.slots {
		if s.key != 0 {
			longest = max(longest, (i-t.home(s.key))&mask+1)
		}
	}
	return longest
}
