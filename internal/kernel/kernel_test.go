package kernel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// greeter is a tiny provided-interface type for meta-model tests.
type greeter interface{ Greet() string }

type greetImpl struct{ msg string }

func (g *greetImpl) Greet() string { return g.msg }

// testComp is a component with one provided greeter.
type testComp struct {
	base *Base
}

func newTestComp(name, msg string) *testComp {
	c := &testComp{base: NewBase(name)}
	c.base.Provide("IGreet", &greetImpl{msg: msg})
	return c
}

func (c *testComp) Name() string          { return c.base.Name() }
func (c *testComp) Provided() []Interface { return c.base.Provided() }

func TestBaseProvideAndReceptacles(t *testing.T) {
	c := newTestComp("a", "hello")
	p := c.Provided()
	if len(p) != 1 || p[0].Name != "IGreet" {
		t.Fatalf("Provided = %v", p)
	}
	g, ok := p[0].Impl.(greeter)
	if !ok || g.Greet() != "hello" {
		t.Fatalf("Provided = %v", p)
	}
	// Provided hands out a copy: editing it changes nothing.
	p[0] = Interface{}
	if got := c.Provided(); len(got) != 1 || got[0].Name != "IGreet" {
		t.Fatal("editing the Provided copy removed the interface")
	}
}

func TestKernelSeal(t *testing.T) {
	cf := NewCF("mp", controlSingleton())
	a := newTestComp("a", "from-a")
	for _, c := range []Component{a, newTestComp("control", "")} {
		if err := cf.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	cf.Seal()
	if err := cf.Insert(newTestComp("c", "")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Insert after Seal = %v", err)
	}
	if err := cf.Replace("a", newTestComp("a2", "")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Replace after Seal = %v", err)
	}
	if err := cf.Reconfigure(func(tx *Tx) error { return tx.Insert(newTestComp("c", "")) }); !errors.Is(err, ErrSealed) {
		t.Fatalf("transactional Insert after Seal = %v", err)
	}
	// The live composition keeps working, unchanged by the refusals.
	if got := cf.Arch().Components; !slices.Equal(got, []string{"a", "control"}) {
		t.Fatalf("Arch after Seal = %v", got)
	}
	p, ok := cf.Plug("a")
	if !ok {
		t.Fatal("plug-in lost by Seal")
	}
	if g, ok := Query[greeter](p); !ok || g.Greet() != "from-a" {
		t.Fatal("plug-in interface lost by Seal")
	}
	// The rules were unloaded with the rest of the machinery.
	if err := cf.Remove("control"); err != nil {
		t.Fatalf("Remove after Seal = %v", err)
	}
}

func TestInterfaceMetaModel(t *testing.T) {
	cf := NewCF("mp")
	if err := cf.Insert(newTestComp("a", "")); err != nil {
		t.Fatal(err)
	}
	infos, err := cf.InterfacesOf("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "IGreet" {
		t.Fatalf("InterfacesOf = %+v", infos)
	}
	if infos[0].Type == nil || !strings.Contains(infos[0].Type.String(), "greetImpl") {
		t.Fatalf("interface type = %v", infos[0].Type)
	}
	if _, err := cf.InterfacesOf("missing"); !errors.Is(err, ErrNoComponent) {
		t.Fatalf("missing component = %v", err)
	}
}

func TestQuery(t *testing.T) {
	a := newTestComp("a", "yo")
	g, ok := Query[greeter](a)
	if !ok || g.Greet() != "yo" {
		t.Fatalf("Query[greeter] = %v, %v", g, ok)
	}
	if _, ok := Query[interface{ Missing() }](a); ok {
		t.Fatal("Query matched absent interface")
	}
}

func TestKernelComponentsSorted(t *testing.T) {
	cf := NewCF("mp")
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := cf.Insert(newTestComp(n, "")); err != nil {
			t.Fatal(err)
		}
	}
	a := cf.Arch()
	if want := []string{"alpha", "mid", "zeta"}; !slices.Equal(a.Components, want) {
		t.Fatalf("Components = %v", a.Components)
	}
	if a.Bindings != nil {
		t.Fatalf("a CF reported bindings: %v", a.Bindings)
	}
}

func ExampleQuery() {
	c := newTestComp("node", "hello from the interface meta-model")
	if g, ok := Query[greeter](c); ok {
		fmt.Println(g.Greet())
	}
	// Output: hello from the interface meta-model
}

// Provide on a name already provided replaces its implementation where it
// stands: the set keeps its size and its name order.
func TestProvideReplacesInPlace(t *testing.T) {
	b := NewBase("c")
	for _, n := range []string{"IZeta", "IAlpha", "IMid"} {
		b.Provide(n, n)
	}
	b.Provide("IMid", "again")
	got := b.Provided()
	if want := []Interface{{"IAlpha", "IAlpha"}, {"IMid", "again"}, {"IZeta", "IZeta"}}; !slices.Equal(got, want) {
		t.Fatalf("Provided = %v, want %v", got, want)
	}
}

type otherGreet struct{}

func (otherGreet) Greet() string { return "other" }

// Query picks the lowest-named of several matching interfaces, whatever
// order they were provided in.
func TestQueryReturnsLowestNamedMatch(t *testing.T) {
	b := NewBase("c")
	b.Provide("IZ", otherGreet{})
	b.Provide("IB", &greetImpl{msg: "b"})
	b.Provide("IA", 42) // not a greeter
	if g, ok := Query[greeter](b); !ok || g.Greet() != "b" {
		t.Fatalf("Query[greeter] = %v, %v; want the one provided as IB", g, ok)
	}
}
