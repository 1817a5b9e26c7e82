package analysis

import "strings"

// All returns the full mkvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Atomicstats,
		Ctxleak,
		Determinism,
		Lockemit,
		Maporder,
	}
}

// ByName resolves one analyzer (nil when unknown).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// analyzerNames lists the suite's names, comma-separated, for diagnostics.
func analyzerNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
