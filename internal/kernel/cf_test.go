package kernel

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
)

func controlSingleton() IntegrityRule {
	return RuleSingleton("control", func(c string) bool { return strings.HasPrefix(c, "control") })
}

func TestCFInsertRemove(t *testing.T) {
	cf := NewCF("mp")
	a := newTestComp("a", "")
	if err := cf.Insert(a); err != nil {
		t.Fatal(err)
	}
	if _, ok := cf.Plug("a"); !ok {
		t.Fatal("inserted plug-in not found")
	}
	if err := cf.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := cf.Plug("a"); ok {
		t.Fatal("removed plug-in still present")
	}
	if err := cf.Remove("a"); !errors.Is(err, ErrNoComponent) {
		t.Fatalf("double remove = %v", err)
	}
}

func TestCFIntegrityRuleRollsBackInsert(t *testing.T) {
	cf := NewCF("mp", controlSingleton())
	if err := cf.Insert(newTestComp("control-1", "")); err != nil {
		t.Fatal(err)
	}
	err := cf.Insert(newTestComp("control-2", ""))
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("second control insert = %v", err)
	}
	if _, ok := cf.Plug("control-2"); ok {
		t.Fatal("violating insert not rolled back")
	}
	a := cf.Arch()
	if len(a.Components) != 1 {
		t.Fatalf("Arch.Components = %v", a.Components)
	}
}

func TestCFIntegrityRuleRollsBackRemove(t *testing.T) {
	cf := NewCF("mp", RuleRequired("control", func(c string) bool { return c == "control" }))
	// Required rule currently violated => cannot even add it; build CF
	// without rule first.
	cf = NewCF("mp")
	if err := cf.Insert(newTestComp("control", "")); err != nil {
		t.Fatal(err)
	}
	if err := cf.AddRule(RuleRequired("control", func(c string) bool { return c == "control" })); err != nil {
		t.Fatal(err)
	}
	if err := cf.Remove("control"); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("removing required component = %v", err)
	}
	if _, ok := cf.Plug("control"); !ok {
		t.Fatal("rollback did not restore required component")
	}
}

func TestCFAddRuleRejectsViolatedRule(t *testing.T) {
	cf := NewCF("mp")
	cf.Insert(newTestComp("control-1", ""))
	cf.Insert(newTestComp("control-2", ""))
	if err := cf.AddRule(controlSingleton()); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("AddRule on violated arch = %v", err)
	}
}

func TestCFIsComponentAndNests(t *testing.T) {
	inner := NewCF("inner")
	inner.Provide("IGreet", &greetImpl{"nested"})
	outer := NewCF("outer")
	if err := outer.Insert(inner); err != nil {
		t.Fatal(err)
	}
	p, ok := outer.Plug("inner")
	if !ok {
		t.Fatal("nested CF not plugged in")
	}
	if g, ok := Query[greeter](p); !ok || g.Greet() != "nested" {
		t.Fatal("nested CF interface not found")
	}
	// ICFMeta is implicitly provided.
	if meta, ok := Query[interface{ Arch() Arch }](outer); !ok || meta.Arch().Components[0] != "inner" {
		t.Fatal("CF does not export ICFMeta")
	}
}

func TestCFReplaceMissing(t *testing.T) {
	cf := NewCF("mp")
	if err := cf.Replace("ghost", newTestComp("x", "")); !errors.Is(err, ErrNoComponent) {
		t.Fatalf("Replace missing = %v", err)
	}
}

// quiesComp records quiesce/resume calls.
type quiesComp struct {
	*Base
	mu       sync.Mutex
	quiesced int
	resumed  int
}

func newQuiesComp(name string) *quiesComp { return &quiesComp{Base: NewBase(name)} }

func (q *quiesComp) Quiesce() func() {
	q.mu.Lock()
	q.quiesced++
	q.mu.Unlock()
	return func() {
		q.mu.Lock()
		q.resumed++
		q.mu.Unlock()
	}
}

func TestCFReconfigureQuiescesPlugins(t *testing.T) {
	cf := NewCF("mp")
	q := newQuiesComp("proto")
	cf.Insert(q)
	err := cf.Reconfigure(func(tx *Tx) error {
		if q.quiesced != 1 {
			t.Error("plug-in not quiesced during transaction")
		}
		if q.resumed != 0 {
			t.Error("plug-in resumed during transaction")
		}
		return tx.Insert(newTestComp("extra", ""))
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.resumed != 1 {
		t.Fatal("plug-in not resumed after transaction")
	}
	if _, ok := cf.Plug("extra"); !ok {
		t.Fatal("transaction insert lost")
	}
}

func TestCFReconfigureAllowsTransientIllegalStates(t *testing.T) {
	cf := NewCF("mp", RuleRequired("control", func(c string) bool { return strings.HasPrefix(c, "control") }))
	// Seed a valid architecture first (rule checked on Insert).
	if err := cf.Reconfigure(func(tx *Tx) error {
		return tx.Insert(newTestComp("control-a", ""))
	}); err != nil {
		t.Fatal(err)
	}
	// Swap control-a for control-b: transiently there is no control at all,
	// which per-operation checks would reject but a transaction permits.
	err := cf.Reconfigure(func(tx *Tx) error {
		if err := tx.Remove("control-a"); err != nil {
			return err
		}
		return tx.Insert(newTestComp("control-b", ""))
	})
	if err != nil {
		t.Fatalf("transactional swap: %v", err)
	}
	// But a transaction ending in violation reports it.
	err = cf.Reconfigure(func(tx *Tx) error { return tx.Remove("control-b") })
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("violating transaction = %v", err)
	}
}

// A Replace or Reconfigure that a rule vetoes, or that fails part-way,
// leaves the plug-in set exactly as it was.
func TestCFVetoedReplaceOrReconfigureChangesNothing(t *testing.T) {
	cf := NewCF("mp", controlSingleton())
	a := newTestComp("a", "")
	for _, c := range []Component{newTestComp("control-1", ""), a, newTestComp("b", "")} {
		if err := cf.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.AddRule(RuleRequired("a", func(c string) bool { return c == "a" })); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "control-1"}
	for _, tc := range []struct {
		op   string
		run  func() error
		kind error
	}{
		{"replace vetoed by the singleton rule", func() error { return cf.Replace("a", newTestComp("control-2", "")) }, ErrIntegrity},
		{"replace colliding with another plug-in", func() error { return cf.Replace("a", newTestComp("b", "")) }, ErrDuplicate},
		{"reconfigure vetoed by the required rule", func() error {
			return cf.Reconfigure(func(tx *Tx) error { return tx.Remove("a") })
		}, ErrIntegrity},
		{"reconfigure failing part-way", func() error {
			return cf.Reconfigure(func(tx *Tx) error {
				if err := tx.Remove("b"); err != nil {
					return err
				}
				return tx.Insert(newTestComp("control-1", ""))
			})
		}, ErrDuplicate},
	} {
		if err := tc.run(); !errors.Is(err, tc.kind) {
			t.Errorf("%s = %v, want %v", tc.op, err, tc.kind)
		}
		if got := cf.Arch().Components; !slices.Equal(got, want) {
			t.Errorf("%s left %v, want %v", tc.op, got, want)
			return
		}
	}
	if p, _ := cf.Plug("a"); p != Component(a) {
		t.Fatalf("plug-in a = %v, want the original", p)
	}
}

func TestRuleHelpers(t *testing.T) {
	single := RuleSingleton("x", func(c string) bool { return c == "x" })
	if err := single.Check(Arch{Components: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := single.Check(Arch{Components: []string{"x", "x"}}); err == nil {
		t.Fatal("singleton rule passed two instances")
	}
	req := RuleRequired("x", func(c string) bool { return c == "x" })
	if err := req.Check(Arch{Components: []string{"y"}}); err == nil {
		t.Fatal("required rule passed without instance")
	}
}

// A CF built without rules — the MANETKit CF — takes no architecture snapshot
// per operation, but a rule added later is evaluated at every mutation from
// then on and its rejection reads as it always has.
func TestRulesAddedLaterStillVetoWithTheSameText(t *testing.T) {
	cf := NewCF("manetkit")
	for _, n := range []string{"aodv", "a", "b"} {
		if err := cf.Insert(newTestComp(n, "")); err != nil {
			t.Fatal(err)
		}
	}
	reactive := RuleSingleton("reactive routing protocol", func(c string) bool { return c == "aodv" || c == "dymo" })
	keepA := RuleRequired("a", func(c string) bool { return c == "a" })
	for _, r := range []IntegrityRule{reactive, keepA} {
		if err := cf.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		got  error
		want string
	}{
		{cf.Insert(newTestComp("dymo", "")),
			`kernel: integrity rule violated: insert "dymo" rejected by rule "reactive routing protocol": more than one reactive routing protocol component`},
		{cf.Remove("a"),
			`kernel: integrity rule violated: remove "a" rejected by rule "a": no a component present`},
		{cf.Replace("b", newTestComp("dymo", "")),
			`kernel: integrity rule violated: replace "b" with "dymo" rejected by rule "reactive routing protocol": more than one reactive routing protocol component`},
	} {
		if !errors.Is(tc.got, ErrIntegrity) || tc.got.Error() != tc.want {
			t.Errorf("got  %v\nwant %s", tc.got, tc.want)
		}
	}
	if a := cf.Arch(); !slices.Equal(a.Components, []string{"a", "aodv", "b"}) {
		t.Fatalf("vetoed mutations were not rolled back: %+v", a)
	}
	// Without a rule, a successful mutation builds neither the snapshot nor
	// the description of itself.
	bare := NewCF("bare")
	c := newTestComp("c", "")
	if allocs := testing.AllocsPerRun(50, func() {
		if err := bare.Insert(c); err != nil {
			t.Fatal(err)
		}
		if err := bare.Remove("c"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Insert+Remove on a CF without rules allocate %.0f objects", allocs)
	}
}

// Every mutation keeps the plug-ins in name order, the two parallel slices
// in step, and a rolled-back one leaves them as they were.
func TestPluginsStaySorted(t *testing.T) {
	cf := NewCF("mp", RuleSingleton("one b", func(c string) bool { return strings.HasPrefix(c, "b") }))
	check := func(want ...string) {
		t.Helper()
		if got := cf.Arch().Components; !slices.Equal(got, want) {
			t.Fatalf("Components = %v, want %v", got, want)
		}
		for i, c := range cf.plugins {
			if c.Name() != cf.names[i] {
				t.Fatalf("plug-in %d is %q, its name slot says %q", i, c.Name(), cf.names[i])
			}
		}
	}
	for _, n := range []string{"m", "z", "a", "c"} {
		if err := cf.Insert(newTestComp(n, "")); err != nil {
			t.Fatal(err)
		}
	}
	check("a", "c", "m", "z")
	if err := cf.Remove("c"); err != nil {
		t.Fatal(err)
	}
	check("a", "m", "z")
	if err := cf.Replace("m", newTestComp("b1", "")); err != nil {
		t.Fatal(err)
	}
	check("a", "b1", "z")
	if err := cf.Replace("z", newTestComp("b2", "")); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("vetoed Replace = %v", err)
	}
	check("a", "b1", "z")
	if err := cf.Insert(newTestComp("b0", "")); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("vetoed Insert = %v", err)
	}
	check("a", "b1", "z")
	if err := cf.Replace("a", newTestComp("y", "")); err != nil {
		t.Fatal(err)
	}
	check("b1", "y", "z")
}
