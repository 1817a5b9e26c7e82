// Package maporderfix exercises the maporder determinism-taint analyzer:
// map iteration order must not reach a deterministic output (writers,
// encoders, fingerprint hashes) unless the data is sorted first. Both
// reported shapes appear here — a sink called per-iteration inside a map
// range, and map-order-tainted data passed to a sink — alongside the
// sorted-iteration patterns that must stay silent.
package maporderfix

import (
	"fmt"
	"io"
	"sort"
	"time"

	"telemetry"
)

func emitEachUnsorted(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "fmt.Fprintf inside range over map: per-iteration output order is the random map order"
	}
}

func recordEachUnsorted(b *telemetry.Bus, now time.Time, nodes map[string]bool) {
	for n := range nodes {
		b.Record(now, telemetry.Span{Node: n}) // want "\\(telemetry.Bus\\).Record inside range over map: per-iteration output order is the random map order"
	}
}

func emitTaintedSlice(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Fprintln(w, keys) // want "map-order-tainted keys passed to fmt.Fprintln"
}

func emitSortedSlice(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, keys) // sorted first: ok
}

// unsortedKeys returns the keys in random map order — its summary records
// MapOrdered, so callers inherit the taint across the call.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// wrappedKeys forwards unsortedKeys' taint through its own return value.
func wrappedKeys(m map[string]int) []string {
	return unsortedKeys(m)
}

func emitCalleeTaint(w io.Writer, m map[string]int) {
	keys := unsortedKeys(m)
	fmt.Fprintln(w, keys) // want "map-order-tainted keys passed to fmt.Fprintln"
}

func emitCalleeTaintInline(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, unsortedKeys(m)) // want "map-order-tainted result of maporderfix.unsortedKeys passed to fmt.Fprintln"
}

func emitWrappedTaint(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, wrappedKeys(m)) // want "map-order-tainted result of maporderfix.wrappedKeys passed to fmt.Fprintln"
}

func emitCalleeSorted(w io.Writer, m map[string]int) {
	keys := unsortedKeys(m)
	sort.Strings(keys)
	fmt.Fprintln(w, keys) // sorted after the call: ok
}

// dump forwards into the writer; its summary records the sink, so calls
// inside a map range are caught transitively with the chain.
func dump(w io.Writer, k string, v int) {
	fmt.Fprintf(w, "%s=%d\n", k, v)
}

func emitViaHelper(w io.Writer, m map[string]int) {
	for k, v := range m {
		dump(w, k, v) // want "call to maporderfix.dump inside range over map reaches fmt.Fprintf"
	}
}

// insertionKeys keeps the slice ordered as it builds it, so the audited
// append does not taint the result.
func insertionKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		//mk:allow maporder keys are kept sorted by the insertion below
		keys = append(keys, k)
		for i := len(keys) - 1; i > 0 && keys[i-1] > keys[i]; i-- {
			keys[i-1], keys[i] = keys[i], keys[i-1]
		}
	}
	return keys
}

func emitInsertionSorted(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, insertionKeys(m)) // audited append: no taint
}

func emitAllowed(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) //mk:allow maporder debug dump, order-insensitive consumer
	}
}
