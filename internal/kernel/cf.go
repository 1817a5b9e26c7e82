package kernel

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// Arch is a snapshot of a CF's internal architecture, exposed through the
// architecture reflective meta-model (the paper's ICFMeta interface). A CF
// fills only Components; core.Manager.Arch adds the Bindings it derives
// from the deployed units' event tuples.
type Arch struct {
	Components []string
	Bindings   []BindingInfo
}

// BindingInfo is the reflective description of one receptacle-to-interface
// link.
type BindingInfo struct {
	From, Receptacle, To, Interface string
}

// InterfaceInfo describes one provided interface for the interface
// meta-model.
type InterfaceInfo struct {
	Name string
	Type reflect.Type
}

// IntegrityRule is a structural invariant a CF enforces. Check inspects a
// tentative architecture, which it must not keep; returning an error vetoes
// (and rolls back) the mutation that produced it.
type IntegrityRule struct {
	Name  string
	Check func(a Arch) error
}

// CF is a component framework: a composite component hosting named plug-in
// components, policed by integrity rules (§3). A CF is itself a Component,
// so CFs nest to arbitrary depth.
type CF struct {
	base *Base

	mu sync.Mutex
	// names and plugins are parallel and sorted by name: names is the
	// architecture the integrity rules read, without a copy or a sort.
	names   []string
	plugins []Component
	rules   []IntegrityRule
	sealed  bool
}

var _ Component = (*CF)(nil)

// NewCF returns an empty component framework with the given integrity
// rules. The CF never writes into rules, which callers may share.
func NewCF(name string, rules ...IntegrityRule) *CF {
	cf := &CF{base: NewBase(name), rules: slices.Clip(rules)}
	cf.base.Provide("ICFMeta", cf)
	return cf
}

// Name implements Component.
func (cf *CF) Name() string { return cf.base.Name() }

// Provided implements Component; a CF exposes its own interfaces (exported
// with Provide) and the ICFMeta architecture meta-model.
func (cf *CF) Provided() []Interface { return cf.base.Provided() }

// Provide exports a named interface on the CF's outer boundary, typically a
// facade over an inner component.
func (cf *CF) Provide(name string, impl any) { cf.base.Provide(name, impl) }

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

// Arch returns the reflective snapshot of the CF's plug-ins.
func (cf *CF) Arch() Arch {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return Arch{Components: slices.Clone(cf.names)}
}

// archLocked is the current architecture as a view, for the rules to read.
func (cf *CF) archLocked() Arch { return Arch{Components: cf.names} }

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

// addLocked plugs c in without checking rules.
func (cf *CF) addLocked(c Component) error {
	if cf.sealed {
		return ErrSealed
	}
	name := c.Name()
	i, found := slices.BinarySearch(cf.names, name)
	if found {
		return fmt.Errorf("%w: component %q", ErrDuplicate, name)
	}
	cf.names = insertExact(cf.names, i, name)
	cf.plugins = insertExact(cf.plugins, i, c)
	return nil
}

// removeLocked unplugs the named component without checking rules.
func (cf *CF) removeLocked(name string) (Component, error) {
	i, found := slices.BinarySearch(cf.names, name)
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNoComponent, name)
	}
	c := cf.plugins[i]
	cf.names = slices.Delete(cf.names, i, i+1)
	cf.plugins = slices.Delete(cf.plugins, i, i+1)
	return c, nil
}

// plugLocked looks up a plug-in by name.
func (cf *CF) plugLocked(name string) (Component, bool) {
	if i, found := slices.BinarySearch(cf.names, name); found {
		return cf.plugins[i], true
	}
	return nil, false
}

// Insert plugs a component into the CF. The insertion is rolled back if it
// violates an integrity rule.
func (cf *CF) Insert(c Component) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if err := cf.addLocked(c); err != nil {
		return err
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("insert %q", c.Name()) }); err != nil {
		_, _ = cf.removeLocked(c.Name()) // just added
		return err
	}
	return nil
}

// Remove unplugs a component. Rolled back on integrity violation.
func (cf *CF) Remove(name string) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	c, err := cf.removeLocked(name)
	if err != nil {
		return err
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("remove %q", name) }); err != nil {
		_ = cf.addLocked(c) // vetoed, so not sealed, and the name is free
		return err
	}
	return nil
}

// Plug looks up a plug-in by name.
func (cf *CF) Plug(name string) (Component, bool) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.plugLocked(name)
}

// InterfacesOf implements the interface meta-model: the runtime list of
// interfaces provided by the named plug-in, with their Go types.
func (cf *CF) InterfacesOf(name string) ([]InterfaceInfo, error) {
	c, ok := cf.Plug(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoComponent, name)
	}
	provided := c.Provided()
	out := make([]InterfaceInfo, len(provided))
	for i, p := range provided {
		out[i] = InterfaceInfo{Name: p.Name, Type: reflect.TypeOf(p.Impl)}
	}
	return out, nil
}

// Seal unloads the CF's reconfiguration machinery — its integrity rules —
// once a deployment has reached its desired configuration: the
// optimisation the paper's §6.2 footnote describes as "unloading the
// OpenCom kernel". The live plug-ins keep functioning; further insertions
// fail with ErrSealed.
func (cf *CF) Seal() {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	cf.sealed = true
	cf.rules = nil
}

// Replace atomically swaps the named plug-in for replacement: it quiesces
// the CF's Quiescable plug-ins and validates integrity once the swap is
// made — the standard OpenCom reconfiguration enactment of §4.5. If the
// replacement cannot be plugged in or a rule vetoes the result, the old
// plug-in is restored and nothing changes.
func (cf *CF) Replace(name string, replacement Component) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if _, ok := cf.plugLocked(name); !ok {
		return fmt.Errorf("%w: %q", ErrNoComponent, name)
	}
	if cf.sealed {
		return fmt.Errorf("replace %q: %w", name, ErrSealed)
	}
	resume := cf.quiesceLocked()
	defer resume()
	old, _ := cf.removeLocked(name)
	if err := cf.addLocked(replacement); err != nil {
		_ = cf.addLocked(old) // its name is free again
		return fmt.Errorf("replace %q: %w", name, err)
	}
	if err := cf.checkLocked(func() string { return fmt.Sprintf("replace %q with %q", name, replacement.Name()) }); err != nil {
		_, _ = cf.removeLocked(replacement.Name()) // just added
		_ = cf.addLocked(old)
		return err
	}
	return nil
}

// Reconfigure quiesces all Quiescable plug-ins, runs fn against the CF, and
// validates integrity afterwards. fn may call Insert/Remove through the
// passed Tx, which skips per-operation rule checks so that transient
// illegal intermediate states are permitted inside the transaction
// (integrity is checked once at the end). If fn fails or a rule vetoes the
// end state, the plug-in set is restored to what it was before fn ran.
func (cf *CF) Reconfigure(fn func(tx *Tx) error) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	resume := cf.quiesceLocked()
	defer resume()
	names, plugins := slices.Clone(cf.names), slices.Clone(cf.plugins)
	err := fn(&Tx{cf: cf})
	if err == nil {
		err = cf.checkLocked(func() string { return "reconfigure transaction" })
	}
	if err != nil {
		cf.names, cf.plugins = names, plugins
	}
	return err
}

// quiesceLocked drives every Quiescable plug-in to a safe state, in name
// order; the returned func resumes them in reverse order.
func (cf *CF) quiesceLocked() func() {
	var resumes []func()
	for _, c := range cf.plugins {
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
// mutate the CF, under the lock Reconfigure holds, without intermediate
// integrity checks.
type Tx struct {
	cf *CF
}

// Insert plugs in a component within the transaction.
func (tx *Tx) Insert(c Component) error { return tx.cf.addLocked(c) }

// Remove unplugs a component within the transaction.
func (tx *Tx) Remove(name string) error {
	_, err := tx.cf.removeLocked(name)
	return err
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
