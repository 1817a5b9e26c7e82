package event

import (
	"slices"
	"testing"
)

func TestOntologyDirectMatch(t *testing.T) {
	o := NewOntology()
	if !o.Matches(TCIn, TCIn) {
		t.Fatal("type does not match itself")
	}
}

func TestOntologyHierarchy(t *testing.T) {
	o := NewOntology()
	tests := []struct {
		t, pattern Type
		want       bool
	}{
		{TCIn, MsgIn, true},
		{HelloIn, MsgIn, true},
		{HelloOut, MsgOut, true},
		{HelloOut, MsgIn, false},
		{TCIn, Any, true},
		{NhoodChange, Context, true},
		{NoRoute, Routing, true},
		{NoRoute, Context, false},
		{MsgIn, TCIn, false}, // supertype does not satisfy subtype
		{Type("CUSTOM"), MsgIn, false},
	}
	for _, tt := range tests {
		if got := o.Matches(tt.t, tt.pattern); got != tt.want {
			t.Errorf("Matches(%s, %s) = %v, want %v", tt.t, tt.pattern, got, tt.want)
		}
		// Dispatch tests the relation per handler per event: it must not allocate.
		if n := testing.AllocsPerRun(100, func() { o.Matches(tt.t, tt.pattern) }); n != 0 {
			t.Errorf("Matches(%s, %s) allocates %.0f objects, want 0", tt.t, tt.pattern, n)
		}
	}
}

func TestOntologyRegisterType(t *testing.T) {
	o := NewOntology()
	if err := o.RegisterType("GOSSIP_IN", MsgIn); err != nil {
		t.Fatal(err)
	}
	if !o.Matches("GOSSIP_IN", MsgIn) || !o.Matches("GOSSIP_IN", Any) {
		t.Fatal("registered type not matched by ancestors")
	}
	if o.Parent("GOSSIP_IN") != MsgIn {
		t.Fatalf("Parent = %s", o.Parent("GOSSIP_IN"))
	}
}

// TestOntologyReparentMovesDescendants: re-parenting a type re-publishes
// the ancestors of every type below it, and Types lists the new types in
// order.
func TestOntologyReparentMovesDescendants(t *testing.T) {
	o := NewOntology()
	for _, r := range [][2]Type{{"A_IN", MsgIn}, {"B_IN", "A_IN"}, {"A_IN", Context}, {"ROOT", ""}, {"C_IN", "ROOT"}} {
		if err := o.RegisterType(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !o.Matches("B_IN", Context) || o.Matches("B_IN", MsgIn) || o.Parent("A_IN") != Context {
		t.Fatal("re-parenting A_IN did not move B_IN below CONTEXT")
	}
	if !o.Matches("C_IN", "ROOT") || o.Matches("C_IN", MsgIn) {
		t.Fatal("a second root's child matched wrongly")
	}
	if types := o.Types(); !slices.IsSorted(types) || !slices.Contains(types, "B_IN") || !slices.Contains(types, Any) {
		t.Fatalf("Types = %v", types)
	}
	if o.Version() != 5 {
		t.Fatalf("Version = %d after five registrations", o.Version())
	}
}

func TestOntologyRejectsCycles(t *testing.T) {
	o := NewOntology()
	if err := o.RegisterType("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterType("B", "C"); err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterType("C", "A"); err == nil {
		t.Fatal("cycle accepted")
	}
	if err := o.RegisterType("A", "A"); err == nil {
		t.Fatal("self-parent accepted")
	}
	if err := o.RegisterType(Any, "A"); err == nil || o.Parent(Any) != "" {
		t.Fatal("re-parenting the root accepted")
	}
}

func TestTupleRequiresWithOntology(t *testing.T) {
	o := NewOntology()
	tp := Tuple{
		Required: []Requirement{{Type: MsgIn}, {Type: PowerStatus}},
		Provided: []Type{TCOut},
	}
	if !tp.Requires(o, TCIn) {
		t.Fatal("abstract requirement did not cover concrete type")
	}
	if !tp.Requires(o, PowerStatus) {
		t.Fatal("exact requirement failed")
	}
	if tp.Requires(o, NoRoute) {
		t.Fatal("unrelated type matched")
	}
	if !tp.Provides(TCOut) || tp.Provides(TCIn) {
		t.Fatal("Provides broken")
	}
}

func TestChangeKindString(t *testing.T) {
	if NeighborAppeared.String() != "appeared" || NeighborLost.String() != "lost" ||
		NeighborSymmetric.String() != "symmetric" || TwoHopChanged.String() != "2hop-changed" {
		t.Fatal("ChangeKind names wrong")
	}
	if ChangeKind(99).String() != "ChangeKind(99)" {
		t.Fatal("unknown ChangeKind rendering wrong")
	}
}
