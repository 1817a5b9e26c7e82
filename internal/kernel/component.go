// Package kernel is MANETKit's runtime component model — a Go rendition of
// OpenCom (§3 of the paper), reduced to what the framework uses: named
// components exposing interfaces, component frameworks (CFs) that host them
// as plug-ins, and two reflective meta-models:
//
//   - an *interface meta-model* exposing, at runtime, the interfaces a
//     component provides (Query, CF.InterfacesOf), and
//   - an *architecture meta-model* through which the composition of a CF
//     can be inspected and reconfigured (CF.Arch, CF.Reconfigure).
//
// MANETKit's bindings are not made by hand: the Framework Manager derives
// the binding topology from each unit's event tuple (core.Manager.Arch), so
// the kernel stores no bindings and offers no receptacles to connect.
//
// CFs are domain-tailored composite components that accept plug-ins and
// actively police their own integrity: every structural mutation is
// validated against registered integrity rules, and a vetoed or failed
// mutation leaves the plug-in set as it was. CFs are themselves components,
// so they nest.
package kernel

import (
	"errors"
	"slices"
	"strings"
	"sync"
)

// Component is the unit of composition: a named holder of provided
// interfaces.
type Component interface {
	// Name returns the component's instance name, unique within its host.
	Name() string
	// Provided returns the named interfaces the component exposes, sorted
	// by name. The slice is the caller's: editing it changes nothing.
	Provided() []Interface
}

// Interface is one named interface a component provides.
type Interface struct {
	Name string
	Impl any
}

// Quiescable is implemented by components that must be driven to a safe
// state before structural reconfiguration (§4.5). Quiesce blocks until the
// component is quiescent and returns a resume function.
type Quiescable interface {
	Quiesce() (resume func())
}

// Errors reported by the component model.
var (
	ErrNoComponent = errors.New("kernel: no such component")
	ErrDuplicate   = errors.New("kernel: duplicate name")
	ErrIntegrity   = errors.New("kernel: integrity rule violated")
	ErrSealed      = errors.New("kernel: kernel sealed")
)

// Base is a reusable Component implementation. Concrete components create a
// Base, register their interfaces on it, and delegate the Component methods
// to it (composition, not embedding, keeps the public structs free of
// foreign methods). A component provides one or two interfaces, so they are
// a slice sorted by name, sized to fit.
type Base struct {
	name     string
	mu       sync.Mutex
	provided []Interface
}

var _ Component = (*Base)(nil)

// NewBase returns a Base for a component with the given instance name.
func NewBase(name string) *Base { return &Base{name: name} }

// Name implements Component.
func (b *Base) Name() string { return b.name }

// Provide registers a named provided interface, replacing the one of the
// same name in place.
func (b *Base) Provide(name string, impl any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, found := slices.BinarySearchFunc(b.provided, name, func(p Interface, n string) int { return strings.Compare(p.Name, n) })
	if found {
		b.provided[i].Impl = impl
		return
	}
	b.provided = insertExact(b.provided, i, Interface{Name: name, Impl: impl})
}

// insertExact is slices.Insert, except that a full s grows by exactly one:
// the kernel's registries hold a handful of entries and change at
// deployment, so they keep no spare capacity.
func insertExact[S ~[]E, E any](s S, i int, v E) S {
	if len(s) == cap(s) {
		s = append(make(S, 0, len(s)+1), s...)
	}
	return slices.Insert(s, i, v)
}

// Provided implements Component.
func (b *Base) Provided() []Interface {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.provided)
}

// Query is the interface meta-model's typed lookup: it returns the first
// provided interface of c that satisfies Go type T. Used for the paper's
// "direct calls … typically benefit from OpenCom's interface meta-model to
// dynamically discover interfaces at runtime" (§4.2). The lowest-named
// match wins.
func Query[T any](c Component) (T, bool) {
	for _, p := range c.Provided() {
		if t, ok := p.Impl.(T); ok {
			return t, true
		}
	}
	var zero T
	return zero, false
}
