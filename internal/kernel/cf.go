package kernel

import (
	"fmt"
	"sync"
)

// Arch is a snapshot of a CF's internal architecture, exposed through the
// architecture reflective meta-model (the paper's ICFMeta interface).
type Arch struct {
	Components []string
	Bindings   []BindingInfo
}

// IntegrityRule is a structural invariant a CF enforces. Check inspects a
// tentative architecture; returning an error vetoes (and rolls back) the
// mutation that produced it.
type IntegrityRule struct {
	Name  string
	Check func(a Arch) error
}

// CF is a component framework: a composite component hosting plug-in
// components on an inner kernel, policed by integrity rules (§3). A CF is
// itself a Component, so CFs nest to arbitrary depth.
type CF struct {
	base  *Base
	inner *Kernel

	mu    sync.Mutex
	rules []IntegrityRule
}

var _ Component = (*CF)(nil)

// NewCF returns an empty component framework with the given integrity
// rules.
func NewCF(name string, rules ...IntegrityRule) *CF {
	return &CF{
		base:  NewBase(name),
		inner: New(),
		rules: rules,
	}
}

// Name implements Component.
func (cf *CF) Name() string { return cf.base.Name() }

// Provided implements Component; a CF exposes its own interfaces (exported
// with Provide) plus the ICFMeta architecture meta-model implicitly.
func (cf *CF) Provided() map[string]any {
	p := cf.base.Provided()
	p["ICFMeta"] = cf
	return p
}

// ReceptacleNames implements Component.
func (cf *CF) ReceptacleNames() []string { return cf.base.ReceptacleNames() }

// Connect implements Component.
func (cf *CF) Connect(receptacle string, impl any) error {
	return cf.base.Connect(receptacle, impl)
}

// Disconnect implements Component.
func (cf *CF) Disconnect(receptacle string, impl any) error {
	return cf.base.Disconnect(receptacle, impl)
}

// Provide exports a named interface on the CF's outer boundary, typically a
// facade over an inner component.
func (cf *CF) Provide(name string, impl any) { cf.base.Provide(name, impl) }

// DefineReceptacle exports a dependency slot on the CF's outer boundary.
func (cf *CF) DefineReceptacle(name string, bind func(any) error, unbind func(any) error) {
	cf.base.DefineReceptacle(name, bind, unbind)
}

// DefineMultiReceptacle exports a fan-out dependency slot.
func (cf *CF) DefineMultiReceptacle(name string, bind func(any) error, unbind func(any) error) {
	cf.base.DefineMultiReceptacle(name, bind, unbind)
}

// AddRule registers a further integrity rule. The rule is checked against
// the current architecture first; an already-violated rule is rejected.
func (cf *CF) AddRule(r IntegrityRule) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if err := r.Check(cf.archLocked()); err != nil {
		return fmt.Errorf("%w: rule %q rejects current architecture: %v", ErrIntegrity, r.Name, err)
	}
	cf.rules = append(cf.rules, r)
	return nil
}

// Arch returns the reflective snapshot of the CF's internal architecture.
func (cf *CF) Arch() Arch {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.archLocked()
}

func (cf *CF) archLocked() Arch {
	return Arch{Components: cf.inner.Components(), Bindings: cf.inner.Bindings()}
}

// checkLocked validates the current architecture against all rules; op
// describes the mutation, for the error of the rule that rejects it.
func (cf *CF) checkLocked(op func() string) error {
	if len(cf.rules) == 0 {
		return nil
	}
	a := cf.archLocked()
	for _, r := range cf.rules {
		if err := r.Check(a); err != nil {
			return fmt.Errorf("%w: %s rejected by rule %q: %v", ErrIntegrity, op(), r.Name, err)
		}
	}
	return nil
}

// Insert plugs a component into the CF. The insertion is rolled back if it
// violates an integrity rule.
func (cf *CF) Insert(c Component) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if err := cf.inner.Register(c); err != nil {
		return err
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("insert %q", c.Name()) }); err != nil {
		// Roll back; Unload of a just-registered unbound component
		// cannot fail.
		if uerr := cf.inner.Unload(c.Name()); uerr != nil {
			return fmt.Errorf("%v (rollback failed: %w)", err, uerr)
		}
		return err
	}
	return nil
}

// Remove unplugs a component; it must be unbound. Rolled back on integrity
// violation.
func (cf *CF) Remove(name string) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	c, ok := cf.inner.Component(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoComponent, name)
	}
	if err := cf.inner.Unload(name); err != nil {
		return err
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("remove %q", name) }); err != nil {
		if rerr := cf.inner.Register(c); rerr != nil {
			return fmt.Errorf("%v (rollback failed: %w)", err, rerr)
		}
		return err
	}
	return nil
}

// Bind connects a receptacle to an interface between two plug-ins, subject
// to integrity rules.
func (cf *CF) Bind(from, receptacle, to, iface string) (*Binding, error) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	b, err := cf.inner.Bind(from, receptacle, to, iface)
	if err != nil {
		return nil, err
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("bind %s.%s -> %s.%s", from, receptacle, to, iface) }); err != nil {
		if uerr := cf.inner.Unbind(b); uerr != nil {
			return nil, fmt.Errorf("%v (rollback failed: %w)", err, uerr)
		}
		return nil, err
	}
	return b, nil
}

// Unbind disconnects a binding, subject to integrity rules.
func (cf *CF) Unbind(b *Binding) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if err := cf.inner.Unbind(b); err != nil {
		return err
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("unbind %v", b.Info()) }); err != nil {
		if _, rerr := cf.inner.Bind(b.From, b.Receptacle, b.To, b.Interface); rerr != nil {
			return fmt.Errorf("%v (rollback failed: %w)", err, rerr)
		}
		return err
	}
	return nil
}

// Plug looks up a plug-in by name.
func (cf *CF) Plug(name string) (Component, bool) { return cf.inner.Component(name) }

// Seal unloads the CF's reconfiguration machinery — inner kernel metadata
// and integrity rules — keeping the live composition functional (§6.2
// footnote).
func (cf *CF) Seal() {
	cf.inner.Seal()
	cf.mu.Lock()
	cf.rules = nil
	cf.mu.Unlock()
}

// Replace atomically swaps the named plug-in for replacement: it quiesces
// the CF's Quiescable plug-ins, transfers every binding that involved the
// old component onto the replacement (matching receptacle/interface names),
// and validates integrity once at the end — the standard OpenCom
// reconfiguration enactment of §4.5.
func (cf *CF) Replace(name string, replacement Component) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()

	old, ok := cf.inner.Component(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoComponent, name)
	}
	resume := cf.quiesceLocked()
	defer resume()

	// Capture and tear down bindings touching the old component.
	var touching []*Binding
	for _, b := range cf.inner.bindingsSnapshot() {
		if b.From == name || b.To == name {
			touching = append(touching, b)
		}
	}
	for _, b := range touching {
		if err := cf.inner.Unbind(b); err != nil {
			return fmt.Errorf("replace %q: unbind %v: %w", name, b.Info(), err)
		}
	}
	if err := cf.inner.Unload(name); err != nil {
		return fmt.Errorf("replace %q: %w", name, err)
	}
	if err := cf.inner.Register(replacement); err != nil {
		return fmt.Errorf("replace %q: %w", name, err)
	}
	newName := replacement.Name()
	for _, b := range touching {
		from, to := b.From, b.To
		if from == name {
			from = newName
		}
		if to == name {
			to = newName
		}
		if _, err := cf.inner.Bind(from, b.Receptacle, to, b.Interface); err != nil {
			return fmt.Errorf("replace %q: rebind %v: %w", name, b.Info(), err)
		}
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("replace %q with %q", name, newName) }); err != nil {
		return err
	}
	// Restore the old component's suitability for reuse: nothing to do —
	// callers own its lifecycle (e.g. state transfer per §4.5).
	_ = old
	return nil
}

// Reconfigure quiesces all Quiescable plug-ins, runs fn against the CF, and
// validates integrity afterwards. fn may call Insert/Remove/Bind/Unbind
// through the passed Tx, which skips per-operation rule checks so that
// transient illegal intermediate states are permitted inside the
// transaction (integrity is checked once at the end).
func (cf *CF) Reconfigure(fn func(tx *Tx) error) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	resume := cf.quiesceLocked()
	defer resume()
	if err := fn(&Tx{cf: cf}); err != nil {
		return err
	}
	return cf.checkLocked(func() string { return "reconfigure transaction" })
}

// quiesceLocked drives every Quiescable plug-in to a safe state; the
// returned func resumes them in reverse order.
func (cf *CF) quiesceLocked() func() {
	var resumes []func()
	for _, name := range cf.inner.Components() {
		c, ok := cf.inner.Component(name)
		if !ok {
			continue
		}
		if q, ok := c.(Quiescable); ok {
			resumes = append(resumes, q.Quiesce())
		}
	}
	return func() {
		for i := len(resumes) - 1; i >= 0; i-- {
			resumes[i]()
		}
	}
}

// Tx is the handle passed to a Reconfigure transaction; its operations
// mutate the CF without intermediate integrity checks.
type Tx struct {
	cf *CF
}

// Insert registers a plug-in within the transaction.
func (tx *Tx) Insert(c Component) error { return tx.cf.inner.Register(c) }

// Remove unregisters a plug-in within the transaction.
func (tx *Tx) Remove(name string) error { return tx.cf.inner.Unload(name) }

// Bind connects components within the transaction.
func (tx *Tx) Bind(from, receptacle, to, iface string) (*Binding, error) {
	return tx.cf.inner.Bind(from, receptacle, to, iface)
}

// Unbind disconnects components within the transaction.
func (tx *Tx) Unbind(b *Binding) error { return tx.cf.inner.Unbind(b) }

// Plug looks up a plug-in within the transaction.
func (tx *Tx) Plug(name string) (Component, bool) { return tx.cf.inner.Component(name) }

// Bindings lists live bindings within the transaction.
func (tx *Tx) Bindings() []*Binding { return tx.cf.inner.bindingsSnapshot() }

// bindingsSnapshot returns the live *Binding handles (not just the info),
// used internally by CF.Replace and Tx.
func (k *Kernel) bindingsSnapshot() []*Binding {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]*Binding(nil), k.bindings...)
}

// RuleSingleton returns an integrity rule enforcing that at most one
// component whose name matches the predicate is plugged in — the paper's
// example of "only one instance of a reactive routing protocol" and
// ManetControl rejecting a second C element.
func RuleSingleton(name string, match func(component string) bool) IntegrityRule {
	return IntegrityRule{
		Name: name,
		Check: func(a Arch) error {
			n := 0
			for _, c := range a.Components {
				if match(c) {
					n++
					if n > 1 {
						return fmt.Errorf("more than one %s component", name)
					}
				}
			}
			return nil
		},
	}
}

// RuleRequired returns an integrity rule demanding that a component matching
// the predicate is present.
func RuleRequired(name string, match func(component string) bool) IntegrityRule {
	return IntegrityRule{
		Name: name,
		Check: func(a Arch) error {
			for _, c := range a.Components {
				if match(c) {
					return nil
				}
			}
			return fmt.Errorf("no %s component present", name)
		},
	}
}
