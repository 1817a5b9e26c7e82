package core

import "manetkit/internal/kernel"

// StateComponent is a generic S element: a named component wrapping an
// arbitrary protocol-state value. Reifying state into a distinct component
// (the CFS pattern's S) is what makes the paper's state carry-over work:
// replacing a protocol while keeping its state is just moving this
// component to the new instance (§4.5). The value is fixed at
// construction.
type StateComponent struct {
	base  *kernel.Base
	value any
}

var _ kernel.Component = (*StateComponent)(nil)

// NewStateComponent wraps value as an S element with the given component
// name (by convention "state").
func NewStateComponent(name string, value any) *StateComponent {
	s := &StateComponent{base: kernel.NewBase(name), value: value}
	s.base.Provide("IState", s)
	return s
}

func (s *StateComponent) Name() string                 { return s.base.Name() }
func (s *StateComponent) Provided() []kernel.Interface { return s.base.Provided() }

// Value returns the wrapped state.
func (s *StateComponent) Value() any { return s.value }

// StateValue retrieves a protocol's S-element value with its concrete type.
// ok is false when the protocol has no S element, the S element is not a
// StateComponent, or the value has a different type.
func StateValue[T any](p *Protocol) (T, bool) {
	var zero T
	c := p.StateElement()
	if c == nil {
		return zero, false
	}
	sc, ok := c.(*StateComponent)
	if !ok {
		return zero, false
	}
	v, ok := sc.Value().(T)
	return v, ok
}
