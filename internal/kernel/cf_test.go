package kernel

import (
	"errors"
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

func TestCFBindUnbindWithRules(t *testing.T) {
	noBindings := IntegrityRule{
		Name: "no-bindings",
		Check: func(a Arch) error {
			if len(a.Bindings) > 0 {
				return errors.New("bindings forbidden")
			}
			return nil
		},
	}
	cf := NewCF("mp", noBindings)
	cf.Insert(newTestComp("a", ""))
	cf.Insert(newTestComp("b", ""))
	if _, err := cf.Bind("a", "RGreet", "b", "IGreet"); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("Bind under no-bindings rule = %v", err)
	}
	if got := cf.Arch(); len(got.Bindings) != 0 {
		t.Fatal("violating bind not rolled back")
	}
}

func TestCFIsComponentAndNests(t *testing.T) {
	inner := NewCF("inner")
	inner.Provide("IGreet", &greetImpl{"nested"})
	outer := NewCF("outer")
	if err := outer.Insert(inner); err != nil {
		t.Fatal(err)
	}
	outer.Insert(newTestComp("user", ""))
	if _, err := outer.Bind("user", "RGreet", "inner", "IGreet"); err != nil {
		t.Fatalf("bind to nested CF: %v", err)
	}
	u, _ := outer.Plug("user")
	if u.(*testComp).peer.Greet() != "nested" {
		t.Fatal("nested CF interface not delivered")
	}
	// ICFMeta is implicitly provided.
	if _, ok := inner.Provided()["ICFMeta"]; !ok {
		t.Fatal("CF does not export ICFMeta")
	}
}

func TestCFReplaceTransfersBindings(t *testing.T) {
	cf := NewCF("mp")
	a := newTestComp("a", "")
	b := newTestComp("handler", "v1")
	cf.Insert(a)
	cf.Insert(b)
	if _, err := cf.Bind("a", "RGreet", "handler", "IGreet"); err != nil {
		t.Fatal(err)
	}
	if a.peer.Greet() != "v1" {
		t.Fatal("initial wiring broken")
	}
	v2 := newTestComp("handler-v2", "v2")
	if err := cf.Replace("handler", v2); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if a.peer == nil || a.peer.Greet() != "v2" {
		t.Fatalf("binding not transferred, peer = %v", a.peer)
	}
	if _, ok := cf.Plug("handler"); ok {
		t.Fatal("old component still plugged")
	}
	if _, ok := cf.Plug("handler-v2"); !ok {
		t.Fatal("replacement not plugged")
	}
	arch := cf.Arch()
	if len(arch.Bindings) != 1 || arch.Bindings[0].To != "handler-v2" {
		t.Fatalf("bindings after replace = %v", arch.Bindings)
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
	cfNoRule := NewCF("mp2")
	_ = cfNoRule
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
	noBA := IntegrityRule{Name: "no b->a", Check: func(a Arch) error {
		for _, l := range a.Bindings {
			if l.From == "b" && l.To == "a" {
				return errors.New("b must not call a")
			}
		}
		return nil
	}}
	keepAB := IntegrityRule{Name: "keep a->b", Check: func(a Arch) error {
		if len(a.Bindings) == 0 {
			return errors.New("a->b is gone")
		}
		return nil
	}}
	ab, err := cf.Bind("a", "RGreet", "b", "IGreet")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []IntegrityRule{reactive, noBA, keepAB} {
		if err := cf.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	_, bindErr := cf.Bind("b", "RGreet", "a", "IGreet")
	for _, tc := range []struct {
		got  error
		want string
	}{
		{cf.Insert(newTestComp("dymo", "")),
			`kernel: integrity rule violated: insert "dymo" rejected by rule "reactive routing protocol": more than one reactive routing protocol component`},
		{bindErr,
			`kernel: integrity rule violated: bind b.RGreet -> a.IGreet rejected by rule "no b->a": b must not call a`},
		{cf.Unbind(ab),
			`kernel: integrity rule violated: unbind {a RGreet b IGreet} rejected by rule "keep a->b": a->b is gone`},
	} {
		if !errors.Is(tc.got, ErrIntegrity) || tc.got.Error() != tc.want {
			t.Errorf("got  %v\nwant %s", tc.got, tc.want)
		}
	}
	if a := cf.Arch(); len(a.Components) != 3 || len(a.Bindings) != 1 {
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
