package route

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func addr(s string) mnet.Addr   { return mnet.MustParseAddr(s) }
func host(s string) mnet.Prefix { return mnet.HostPrefix(addr(s)) }

func newTable() (*Table, *vclock.Virtual) {
	clk := vclock.NewVirtual(epoch)
	return NewTable(clk), clk
}

func TestUpsertLookup(t *testing.T) {
	tb, _ := newTable()
	tb.Upsert(Entry{
		Dst:   host("10.0.0.5"),
		Paths: []Path{{NextHop: addr("10.0.0.2"), Metric: 3}},
		Valid: true,
		Proto: "dymo",
	})
	e, p, err := tb.Lookup(addr("10.0.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if p.NextHop != addr("10.0.0.2") || p.Metric != 3 || e.Proto != "dymo" {
		t.Fatalf("Lookup = %+v / %+v", e, p)
	}
	tb.Upsert(Entry{Dst: host("10.0.0.5"), Paths: []Path{{NextHop: addr("10.0.0.3"), Metric: 2}}, Valid: true})
	if _, p, _ := tb.Lookup(addr("10.0.0.5")); p.NextHop != addr("10.0.0.3") {
		t.Fatal("Upsert did not replace path")
	}
}

func TestLookupNoRoute(t *testing.T) {
	tb, _ := newTable()
	if _, _, err := tb.Lookup(addr("1.2.3.4")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Lookup on empty table = %v", err)
	}
}

// TestNonHostDstPanics: the tables hold host routes only, so storing any
// other prefix length panics with a message that names the prefix, at
// every entry point that takes a destination prefix.
func TestNonHostDstPanics(t *testing.T) {
	subnet := mnet.Prefix{Addr: addr("10.1.0.0"), Bits: 16}
	via := addr("10.0.0.2")
	for _, tc := range []struct {
		name  string
		store func()
	}{
		{"FIB.Set", func() { NewFIB().Set(FIBRoute{Dst: subnet, NextHop: via}) }},
		{"Upsert", func() {
			tb, _ := newTable()
			tb.Upsert(Entry{Dst: subnet, Paths: []Path{{NextHop: via, Metric: 1}}, Valid: true})
		}},
		{"ReplaceProto", func() {
			tb, _ := newTable()
			tb.ReplaceProto("olsr", []ProtoRoute{{Dst: subnet, NextHop: via, Metric: 1}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "10.1.0.0/16") {
					t.Fatalf("storing %v: recovered %q, want a panic naming the prefix", subnet, msg)
				}
			}()
			tc.store()
		})
	}
}

func TestBestPathPrefersLowerMetricAndSkipsExpired(t *testing.T) {
	tb, clk := newTable()
	tb.Upsert(Entry{
		Dst: host("10.0.0.9"),
		Paths: []Path{
			{NextHop: addr("10.0.0.2"), Metric: 4},
			{NextHop: addr("10.0.0.3"), Metric: 2, Expires: epoch.Add(10 * time.Millisecond)},
		},
		Valid: true,
	})
	if _, p, _ := tb.Lookup(addr("10.0.0.9")); p.NextHop != addr("10.0.0.3") {
		t.Fatalf("best path = %v", p.NextHop)
	}
	clk.Advance(20 * time.Millisecond)
	if _, p, _ := tb.Lookup(addr("10.0.0.9")); p.NextHop != addr("10.0.0.2") {
		t.Fatalf("after expiry best path = %v", p.NextHop)
	}
}

func TestInvalidate(t *testing.T) {
	tb, _ := newTable()
	dst := addr("10.0.0.7")
	tb.Upsert(Entry{Dst: mnet.HostPrefix(dst), Paths: []Path{{NextHop: addr("10.0.0.2")}}, Valid: true, SeqNum: 9})
	if !tb.Invalidate(dst) {
		t.Fatal("Invalidate on valid route = false")
	}
	if tb.Invalidate(dst) {
		t.Fatal("Invalidate twice = true")
	}
	if _, _, err := tb.Lookup(addr("10.0.0.7")); !errors.Is(err, ErrNoRoute) {
		t.Fatal("invalidated route still resolvable")
	}
	// Entry retained for its sequence number.
	e, ok := tb.Get(dst)
	if !ok || e.SeqNum != 9 || e.Valid {
		t.Fatalf("retained entry = %+v, %v", e, ok)
	}
}

func TestAddPathAndInvalidatePath(t *testing.T) {
	tb, _ := newTable()
	dst := addr("10.0.0.8")
	tb.AddPath(dst, "dymo", 1, Path{NextHop: addr("10.0.0.2"), Metric: 3})
	tb.AddPath(dst, "dymo", 1, Path{NextHop: addr("10.0.0.3"), Metric: 2})
	tb.AddPath(dst, "dymo", 1, Path{NextHop: addr("10.0.0.2"), Metric: 4}) // refresh, not dup
	e, ok := tb.Get(dst)
	if !ok || len(e.Paths) != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if remains := tb.InvalidatePath(dst, addr("10.0.0.3")); !remains {
		t.Fatal("entry should remain valid with one path left")
	}
	if _, p, _ := tb.Lookup(addr("10.0.0.8")); p.NextHop != addr("10.0.0.2") || p.Metric != 4 {
		t.Fatalf("surviving path = %+v", p)
	}
	if remains := tb.InvalidatePath(dst, addr("10.0.0.2")); remains {
		t.Fatal("entry should be invalid with no paths")
	}
}

func TestInvalidateVia(t *testing.T) {
	tb, _ := newTable()
	via := addr("10.0.0.2")
	tb.Upsert(Entry{Dst: host("10.0.0.5"), Paths: []Path{{NextHop: via, Metric: 2}}, Valid: true})
	tb.Upsert(Entry{Dst: host("10.0.0.6"), Paths: []Path{{NextHop: via, Metric: 3}}, Valid: true})
	tb.Upsert(Entry{Dst: host("10.0.0.7"), Paths: []Path{{NextHop: addr("10.0.0.3"), Metric: 1}}, Valid: true})
	affected := tb.InvalidateVia(via)
	if len(affected) != 2 {
		t.Fatalf("affected = %v", affected)
	}
	if tb.ValidCount() != 1 {
		t.Fatalf("ValidCount = %d", tb.ValidCount())
	}
	// Multipath entry survives losing one of two next hops.
	tb.Upsert(Entry{Dst: host("10.0.0.9"), Paths: []Path{
		{NextHop: via, Metric: 2}, {NextHop: addr("10.0.0.4"), Metric: 3},
	}, Valid: true})
	tb.InvalidateVia(via)
	if _, p, err := tb.Lookup(addr("10.0.0.9")); err != nil || p.NextHop != addr("10.0.0.4") {
		t.Fatalf("multipath survivor = %+v, %v", p, err)
	}
}

func TestExtendLifetimeAndPurge(t *testing.T) {
	tb, clk := newTable()
	dst := addr("10.0.0.5")
	tb.Upsert(Entry{Dst: mnet.HostPrefix(dst), Paths: []Path{{NextHop: addr("10.0.0.2"), Expires: epoch.Add(50 * time.Millisecond)}}, Valid: true})
	if !tb.ExtendLifetime(dst, mnet.Addr{}, 200*time.Millisecond) {
		t.Fatal("ExtendLifetime = false")
	}
	clk.Advance(100 * time.Millisecond)
	if n := tb.PurgeExpired(); n != 0 {
		t.Fatalf("purged %d after extension", n)
	}
	clk.Advance(150 * time.Millisecond)
	if n := tb.PurgeExpired(); n != 1 {
		t.Fatalf("purged %d, want 1", n)
	}
	if tb.ValidCount() != 0 {
		t.Fatal("expired route still valid")
	}
	if tb.ExtendLifetime(dst, mnet.Addr{}, time.Second) {
		t.Fatal("ExtendLifetime on invalid entry = true")
	}
}

// TestRemoveAndClear: ApplyProto's removal list deletes an owned entry
// once, and Clear deletes every entry.
func TestRemoveAndClear(t *testing.T) {
	tb, _ := newTable()
	tb.Upsert(Entry{Dst: host("10.0.0.5"), Paths: []Path{{NextHop: addr("10.0.0.2")}}, Valid: true, Proto: "dymo"})
	del := []mnet.Addr{addr("10.0.0.5")}
	if st := tb.ApplyProto("dymo", nil, del); st.Removed != 1 {
		t.Fatalf("removal stats = %+v, want 1 removed", st)
	}
	if st := tb.ApplyProto("dymo", nil, del); st.Removed != 0 {
		t.Fatalf("second removal stats = %+v, want none removed", st)
	}
	tb.Upsert(Entry{Dst: host("10.0.0.6"), Paths: []Path{{NextHop: addr("10.0.0.2")}}, Valid: true})
	tb.Clear()
	if len(tb.Entries()) != 0 {
		t.Fatal("Clear left entries")
	}
}

// TestMutationsWriteFIBOnce: each mutation that changes a route writes the
// FIB once, and removing an entry the FIB no longer holds writes nothing.
func TestMutationsWriteFIBOnce(t *testing.T) {
	tb, _ := newTable()
	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	dst := addr("10.0.0.5")
	entry := func(via string) Entry {
		return Entry{Dst: mnet.HostPrefix(dst), Paths: []Path{{NextHop: addr(via)}}, Valid: true, Proto: "dymo"}
	}
	for i, step := range []struct {
		name string
		run  func()
		via  string // the FIB's next hop afterwards, "" for none
		ops  uint64
	}{
		{"add", func() { tb.Upsert(entry("10.0.0.2")) }, "10.0.0.2", 1},
		{"update", func() { tb.Upsert(entry("10.0.0.3")) }, "10.0.0.3", 2},
		{"invalidate", func() { tb.Invalidate(dst) }, "", 3},
		{"remove", func() { tb.ApplyProto("dymo", nil, []mnet.Addr{dst}) }, "", 3},
		{"add again", func() { tb.Upsert(entry("10.0.0.2")) }, "10.0.0.2", 4},
	} {
		step.run()
		r, ok := fib.Lookup(dst)
		if ok != (step.via != "") || ok && r.NextHop != addr(step.via) || fib.Ops() != step.ops {
			t.Fatalf("step %d (%s): FIB route %+v, %v after %d ops; want via %q after %d", i, step.name, r, ok, fib.Ops(), step.via, step.ops)
		}
	}
}

func TestFIBMirroring(t *testing.T) {
	tb, _ := newTable()
	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	dst := addr("10.0.0.5")
	tb.Upsert(Entry{Dst: mnet.HostPrefix(dst), Paths: []Path{{NextHop: addr("10.0.0.2"), Metric: 2}}, Valid: true, Proto: "olsr"})
	r, ok := fib.Lookup(addr("10.0.0.5"))
	if !ok || r.NextHop != addr("10.0.0.2") || r.Device != "emu0" || r.Proto != "olsr" {
		t.Fatalf("FIB route = %+v, %v", r, ok)
	}
	tb.Invalidate(dst)
	if _, ok := fib.Lookup(addr("10.0.0.5")); ok {
		t.Fatal("invalidated route still in FIB")
	}
	// Late sync mirrors existing entries.
	tb2, _ := newTable()
	tb2.Upsert(Entry{Dst: mnet.HostPrefix(dst), Paths: []Path{{NextHop: addr("10.0.0.3")}}, Valid: true})
	fib2 := NewFIB()
	tb2.SyncFIB(fib2, "emu1")
	if _, ok := fib2.Lookup(addr("10.0.0.5")); !ok {
		t.Fatal("SyncFIB did not mirror existing entries")
	}
}

// TestBindOnce: the first Bind gives an unbound table its clock and mirror;
// a later one, as a restarted CF's start hook makes, changes neither.
func TestBindOnce(t *testing.T) {
	tb := NewTable(nil)
	clk := vclock.NewVirtual(epoch)
	fib, other := NewFIB(), NewFIB()
	tb.Bind(clk, fib, "emu0")
	tb.Bind(vclock.NewVirtual(epoch.Add(time.Hour)), other, "emu1")
	tb.Upsert(Entry{Dst: host("10.0.0.5"), Paths: []Path{{NextHop: addr("10.0.0.2"), Metric: 1, Expires: epoch.Add(time.Second)}}, Valid: true, Proto: "dymo"})
	if r, ok := fib.Lookup(addr("10.0.0.5")); !ok || r.Device != "emu0" {
		t.Fatalf("first binding's FIB route = %+v, %v", r, ok)
	}
	if other.Len() != 0 {
		t.Fatal("a second Bind re-pointed the mirror")
	}
	if _, _, err := tb.Lookup(addr("10.0.0.5")); err != nil {
		t.Fatalf("a second Bind replaced the clock: %v", err)
	}
}

func TestFIBBasics(t *testing.T) {
	fib := NewFIB()
	fib.Set(FIBRoute{Dst: host("10.1.0.0"), NextHop: addr("10.0.0.1"), Proto: "olsr"})
	fib.Set(FIBRoute{Dst: host("10.1.2.3"), NextHop: addr("10.0.0.2"), Proto: "dymo"})
	if r, ok := fib.Lookup(addr("10.1.2.3")); !ok || r.NextHop != addr("10.0.0.2") {
		t.Fatalf("Lookup = %+v, %v", r, ok)
	}
	if _, ok := fib.Lookup(addr("10.1.2.4")); ok {
		t.Fatal("Lookup of an address without a route matched")
	}
	if fib.Len() != 2 || len(fib.List()) != 2 {
		t.Fatalf("Len = %d", fib.Len())
	}
	if n := fib.FlushProto("dymo"); n != 1 {
		t.Fatalf("FlushProto = %d", n)
	}
	if !fib.Del(addr("10.1.0.0")) {
		t.Fatal("Del = false")
	}
	if fib.Del(addr("9.9.9.9")) {
		t.Fatal("Del absent = true")
	}
}

func TestLookupInvariantProperty(t *testing.T) {
	// Property: for any set of valid host routes, Lookup(d) succeeds exactly
	// when d was inserted, and returns that entry.
	f := func(raw []uint32) bool {
		tb, _ := newTable()
		seen := make(map[mnet.Addr]bool)
		for _, u := range raw {
			a := mnet.AddrFrom(u)
			if a.IsBroadcast() || a.IsUnspecified() {
				continue
			}
			seen[a] = true
			tb.Upsert(Entry{Dst: mnet.HostPrefix(a), Paths: []Path{{NextHop: a, Metric: 1}}, Valid: true})
		}
		for a := range seen {
			e, _, err := tb.Lookup(a)
			if err != nil || e.Dst != mnet.HostPrefix(a) {
				return false
			}
		}
		_, _, err := tb.Lookup(mnet.Broadcast)
		return errors.Is(err, ErrNoRoute)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEntriesSortedAndCopied(t *testing.T) {
	tb, _ := newTable()
	tb.Upsert(Entry{Dst: host("10.0.0.9"), Paths: []Path{{NextHop: addr("10.0.0.2")}}, Valid: true})
	tb.Upsert(Entry{Dst: host("10.0.0.1"), Paths: []Path{{NextHop: addr("10.0.0.2")}}, Valid: true})
	es := tb.Entries()
	if len(es) != 2 || !es[0].Dst.Addr.Less(es[1].Dst.Addr) {
		t.Fatalf("Entries = %+v", es)
	}
	es[0].Paths[0].NextHop = addr("99.9.9.9")
	if _, p, _ := tb.Lookup(addr("10.0.0.1")); p.NextHop == addr("99.9.9.9") {
		t.Fatal("Entries aliases internal storage")
	}
}

func TestUpsertEmptyPathsIsInvalid(t *testing.T) {
	tb, _ := newTable()
	tb.Upsert(Entry{Dst: host("10.0.0.5"), Valid: true})
	if tb.ValidCount() != 0 {
		t.Fatal("entry with no paths counted valid")
	}
}

// --- batch diff-install (ReplaceProto / RefreshProto) ---

func pr(dst, via string, metric int, exp time.Time) ProtoRoute {
	return ProtoRoute{Dst: host(dst), NextHop: addr(via), Metric: metric, Expires: exp}
}

func TestReplaceProtoDiffInstall(t *testing.T) {
	tb, clk := newTable()
	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	exp := clk.Now().Add(time.Minute)

	st := tb.ReplaceProto("olsr", []ProtoRoute{
		pr("10.0.0.2", "10.0.0.2", 1, exp),
		pr("10.0.0.3", "10.0.0.2", 2, exp),
	})
	if st.Added != 2 || st.Updated != 0 || st.Removed != 0 {
		t.Fatalf("initial install stats = %+v", st)
	}
	if fib.Ops() != 2 {
		t.Fatalf("initial install wrote the FIB %d times, want 2", fib.Ops())
	}

	// Identical recompute with a later expiry: silent refresh, no FIB op.
	exp2 := clk.Now().Add(2 * time.Minute)
	st = tb.ReplaceProto("olsr", []ProtoRoute{
		pr("10.0.0.2", "10.0.0.2", 1, exp2),
		pr("10.0.0.3", "10.0.0.2", 2, exp2),
	})
	if st.Refreshed != 2 || st.Added+st.Updated+st.Removed != 0 {
		t.Fatalf("steady-state stats = %+v", st)
	}
	if fib.Ops() != 2 {
		t.Fatalf("steady-state recompute wrote the FIB: %d ops", fib.Ops())
	}
	// The refresh really did advance the lifetime.
	e, _ := tb.Get(addr("10.0.0.3"))
	if !e.Paths[0].Expires.Equal(exp2) {
		t.Fatalf("expiry not refreshed: %v", e.Paths[0].Expires)
	}

	// One route changes next hop, one vanishes, one appears.
	st = tb.ReplaceProto("olsr", []ProtoRoute{
		pr("10.0.0.2", "10.0.0.2", 1, exp2),
		pr("10.0.0.3", "10.0.0.4", 2, exp2), // re-routed
		pr("10.0.0.5", "10.0.0.2", 3, exp2), // new
	})
	if st.Refreshed != 1 || st.Updated != 1 || st.Added != 1 || st.Removed != 0 {
		t.Fatalf("change stats = %+v", st)
	}
	st = tb.ReplaceProto("olsr", []ProtoRoute{
		pr("10.0.0.2", "10.0.0.2", 1, exp2),
	})
	if st.Removed != 2 || st.Refreshed != 1 {
		t.Fatalf("shrink stats = %+v", st)
	}
	if fib.Ops() != 6 { // updated, added, removed, removed
		t.Fatalf("FIB ops = %d, want 6", fib.Ops())
	}
	if _, ok := tb.Get(addr("10.0.0.5")); ok {
		t.Fatal("vanished route still present")
	}
}

func TestReplaceProtoScopedToProto(t *testing.T) {
	tb, clk := newTable()
	exp := clk.Now().Add(time.Minute)
	tb.Upsert(Entry{Dst: host("10.0.0.9"), Paths: []Path{{NextHop: addr("10.0.0.8"), Metric: 4}}, Valid: true, Proto: "dymo"})
	tb.ReplaceProto("olsr", []ProtoRoute{pr("10.0.0.2", "10.0.0.2", 1, exp)})
	if _, ok := tb.Get(addr("10.0.0.9")); !ok {
		t.Fatal("ReplaceProto removed another protocol's entry")
	}
	// But a desired entry does take over a prefix previously owned elsewhere.
	tb.ReplaceProto("olsr", []ProtoRoute{
		pr("10.0.0.2", "10.0.0.2", 1, exp),
		pr("10.0.0.9", "10.0.0.2", 2, exp),
	})
	e, _ := tb.Get(addr("10.0.0.9"))
	if e.Proto != "olsr" || e.Paths[0].NextHop != addr("10.0.0.2") {
		t.Fatalf("takeover entry = %+v", e)
	}
}

func TestReplaceProtoRevalidatesInvalid(t *testing.T) {
	tb, clk := newTable()
	exp := clk.Now().Add(time.Minute)
	tb.ReplaceProto("olsr", []ProtoRoute{pr("10.0.0.2", "10.0.0.2", 1, exp)})
	tb.Invalidate(addr("10.0.0.2"))
	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	st := tb.ReplaceProto("olsr", []ProtoRoute{pr("10.0.0.2", "10.0.0.2", 1, exp)})
	if st.Updated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r, ok := fib.Lookup(addr("10.0.0.2")); !ok || r.NextHop != addr("10.0.0.2") || fib.Ops() != 1 {
		t.Fatalf("revalidated FIB route = %+v, %v after %d ops", r, ok, fib.Ops())
	}
	if e, _ := tb.Get(addr("10.0.0.2")); !e.Valid {
		t.Fatal("entry still invalid")
	}
}

// ApplyProto takes its removals from the caller, sorted like ReplaceProto's
// scan, and skips a destination the same batch just set or another
// protocol owns; the table and the FIB match what ReplaceProto does with
// the full desired set.
func TestApplyProtoMatchesReplaceProto(t *testing.T) {
	type rig struct {
		tb  *Table
		fib *FIB
	}
	mk := func() *rig {
		tb, _ := newTable()
		r := &rig{tb: tb, fib: NewFIB()}
		tb.SyncFIB(r.fib, "mk0")
		tb.Upsert(Entry{Dst: host("10.0.0.9"), Paths: []Path{{NextHop: addr("10.0.0.8"), Metric: 4}}, Valid: true, Proto: "dymo"})
		return r
	}
	full, diff := mk(), mk()
	first := []ProtoRoute{pr("10.0.0.2", "10.0.0.2", 1, time.Time{}), pr("10.0.0.3", "10.0.0.2", 2, time.Time{}), pr("10.0.0.4", "10.0.0.2", 3, time.Time{})}
	full.tb.ReplaceProto("olsr", first)
	diff.tb.ApplyProto("olsr", first, nil)
	// 10.0.0.3 goes, 10.0.0.4 is re-set in the same batch that lists it
	// for removal, 10.0.0.9 belongs to dymo, 10.0.0.7 was never there.
	second := []ProtoRoute{pr("10.0.0.2", "10.0.0.2", 1, time.Time{}), pr("10.0.0.4", "10.0.0.5", 2, time.Time{})}
	full.tb.ReplaceProto("olsr", second)
	st := diff.tb.ApplyProto("olsr", second[1:], []mnet.Addr{addr("10.0.0.9"), addr("10.0.0.4"), addr("10.0.0.7"), addr("10.0.0.3"), addr("10.0.0.3")})
	if st.Removed != 1 || st.Updated != 1 {
		t.Fatalf("ApplyProto stats = %+v, want 1 updated, 1 removed", st)
	}
	if got, want := fmt.Sprint(diff.tb.Entries()), fmt.Sprint(full.tb.Entries()); got != want {
		t.Fatalf("tables differ:\nReplaceProto %v\nApplyProto   %v", want, got)
	}
	if !slices.Equal(full.fib.List(), diff.fib.List()) || full.fib.Ops() != diff.fib.Ops() {
		t.Fatalf("FIBs differ: %v (%d ops) vs %v (%d ops)", full.fib.List(), full.fib.Ops(), diff.fib.List(), diff.fib.Ops())
	}
}

func TestReplaceProtoMirrorsFIBOnlyOnChange(t *testing.T) {
	tb, clk := newTable()
	fib := NewFIB()
	tb.SyncFIB(fib, "mk0")
	exp := clk.Now().Add(time.Minute)
	tb.ReplaceProto("olsr", []ProtoRoute{pr("10.0.0.2", "10.0.0.2", 1, exp)})
	if _, ok := fib.Lookup(addr("10.0.0.2")); !ok {
		t.Fatal("FIB not mirrored on install")
	}
	ops := fib.Ops()
	tb.ReplaceProto("olsr", []ProtoRoute{pr("10.0.0.2", "10.0.0.2", 1, clk.Now().Add(2*time.Minute))})
	if got := fib.Ops(); got != ops {
		t.Fatalf("steady-state refresh wrote the FIB: ops %d -> %d", ops, got)
	}
	tb.ReplaceProto("olsr", nil)
	if _, ok := fib.Lookup(addr("10.0.0.2")); ok {
		t.Fatal("removed route still in FIB")
	}
}

func TestRefreshProtoKeepsBetterAndNeverRemoves(t *testing.T) {
	tb, clk := newTable()
	// A reactive (interzone) route far outside the zone refresh set.
	tb.Upsert(Entry{Dst: host("10.0.9.9"), Paths: []Path{{NextHop: addr("10.0.0.3"), Metric: 7}}, Valid: true, Proto: "zrp"})
	// A shorter reactive route that the zone would cover at metric 2.
	reactiveExp := clk.Now().Add(30 * time.Second)
	tb.Upsert(Entry{Dst: host("10.0.0.4"), Paths: []Path{{NextHop: addr("10.0.0.4"), Metric: 1, Expires: reactiveExp}}, Valid: true, Proto: "zrp"})

	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	base := fib.Ops()
	zoneExp := clk.Now().Add(time.Minute)
	st := tb.RefreshProto("zrp", []ProtoRoute{
		pr("10.0.0.2", "10.0.0.2", 1, zoneExp),
		pr("10.0.0.4", "10.0.0.7", 2, zoneExp), // worse than the reactive metric-1 route
	})
	if st.Added != 1 || st.Kept != 1 || st.Removed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if fib.Ops() != base+1 {
		t.Fatalf("refresh wrote the FIB %d times, want 1", fib.Ops()-base)
	}
	// The reactive route survived with its lifetime extended.
	e, _ := tb.Get(addr("10.0.0.4"))
	if e.Paths[0].NextHop != addr("10.0.0.4") || e.Paths[0].Metric != 1 {
		t.Fatalf("better route displaced: %+v", e)
	}
	if !e.Paths[0].Expires.Equal(zoneExp) {
		t.Fatalf("kept route lifetime not extended: %v", e.Paths[0].Expires)
	}
	// The out-of-zone route was not touched.
	if _, ok := tb.Get(addr("10.0.9.9")); !ok {
		t.Fatal("RefreshProto removed an out-of-set route")
	}
	// Steady-state refresh is silent.
	base = fib.Ops()
	st = tb.RefreshProto("zrp", []ProtoRoute{
		pr("10.0.0.2", "10.0.0.2", 1, zoneExp),
		pr("10.0.0.4", "10.0.0.7", 2, zoneExp),
	})
	if fib.Ops() != base || st.Added+st.Updated != 0 {
		t.Fatalf("steady-state refresh: %d FIB ops, stats=%+v", fib.Ops()-base, st)
	}
}

// TestReplaceProtoSteadyStateAllocs: installing a desired set the table
// already holds allocates nothing, through each of the three install entry
// points.
func TestReplaceProtoSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(tb *Table, desired []ProtoRoute)
	}{
		{"Replace", func(tb *Table, desired []ProtoRoute) { tb.ReplaceProto("olsr", desired) }},
		{"Apply", func(tb *Table, desired []ProtoRoute) { tb.ApplyProto("olsr", desired, nil) }},
		{"Refresh", func(tb *Table, desired []ProtoRoute) { tb.RefreshProto("olsr", desired) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, clk := newTable()
			desired := make([]ProtoRoute, 0, 256)
			for i := 0; i < 256; i++ {
				a := mnet.AddrFrom(0x0a000100 + uint32(i))
				desired = append(desired, ProtoRoute{Dst: mnet.HostPrefix(a), NextHop: mnet.AddrFrom(0x0a000001), Metric: 2, Expires: clk.Now().Add(time.Minute)})
			}
			tc.install(tb, desired)
			tc.install(tb, desired) // warm the removal scratch
			if allocs := testing.AllocsPerRun(100, func() { tc.install(tb, desired) }); allocs != 0 {
				t.Fatalf("steady-state %sProto allocates %.1f times per call", tc.name, allocs)
			}
		})
	}
}

// lookupByScan finds dst's route by a scan of the whole table: the
// reference Lookup's probe must agree with.
func lookupByScan(routes []FIBRoute, dst mnet.Addr) (FIBRoute, bool) {
	for _, r := range routes {
		if r.Dst.Addr == dst {
			return r, true
		}
	}
	return FIBRoute{}, false
}

// TestFIBLookupMatchesScan drives random Set/Del/FlushProto sequences and
// checks every look-up against a scan of List.
func TestFIBLookupMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFIB()
		host := func() mnet.Addr { // 16 hosts in each of 4 /24s of 2 /16s
			return mnet.AddrFrom(0x0a000000 | uint32(rng.Intn(2))<<16 | uint32(rng.Intn(2))<<8 | uint32(rng.Intn(16)))
		}
		protos := []string{"olsr", "dymo", "aodv"}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				f.Set(FIBRoute{Dst: mnet.HostPrefix(host()), NextHop: host(), Metric: step, Proto: protos[rng.Intn(len(protos))]})
			case op < 9:
				f.Del(host())
			default:
				f.FlushProto(protos[rng.Intn(len(protos))])
			}
			table := f.List()
			for i := 0; i < 8; i++ {
				dst := host()
				got, ok := f.Lookup(dst)
				want, wantOK := lookupByScan(table, dst)
				if ok != wantOK || got != want {
					t.Fatalf("seed %d step %d: Lookup(%v) = %+v, %v; scan says %+v, %v\ntable: %+v", seed, step, dst, got, ok, want, wantOK, table)
				}
			}
		}
		for _, p := range protos {
			f.FlushProto(p)
		}
		if f.Len() != 0 {
			t.Fatalf("seed %d: flushing every protocol left %d routes", seed, f.Len())
		}
	}
}

// TestInvalidateViaReturnsPrefixOrder holds three hosts through one next
// hop, inserted out of order, on 200 fresh tables, and requires
// InvalidateVia to return them in address order every time, as reactive
// protocols put them on the wire.
func TestInvalidateViaReturnsPrefixOrder(t *testing.T) {
	want := "[10.0.0.3 10.0.0.9 10.0.1.1]"
	for run := 0; run < 200; run++ {
		tb, _ := newTable()
		for _, dst := range []string{"10.0.1.1", "10.0.0.3", "10.0.0.9"} {
			tb.Upsert(Entry{
				Dst:   host(dst),
				Paths: []Path{{NextHop: addr("10.0.0.2"), Metric: 1}},
				Valid: true,
			})
		}
		if got := fmt.Sprint(tb.InvalidateVia(addr("10.0.0.2"))); got != want {
			t.Fatalf("run %d: InvalidateVia returned %s, want %s", run, got, want)
		}
	}
}

func TestTableHoldsNoPointers(t *testing.T) {
	tb := NewTable(nil)
	for _, typ := range []reflect.Type{reflect.TypeOf(tb.recs).Elem(), slotType(tb.index)} {
		if holdsPointers(typ) {
			t.Fatalf("the RIB's %v holds pointers the collector scans", typ)
		}
	}
	if size := reflect.TypeOf(ribEntry{}).Size(); size > 40 {
		t.Fatalf("a RIB record takes %d B, want at most 40", size)
	}
}

// TestTableBytesPerRoute pins the footprint of the RIB one node of a
// 144-node OLSR flood holds: a host route to every other node, as OLSR's
// pass installs them. Eight tables are built so the heap's background noise
// is spread thin.
func TestTableBytesPerRoute(t *testing.T) {
	const n, limit = 143, 100
	clk := vclock.NewVirtual(epoch)
	desired := make([]ProtoRoute, n)
	for i := range desired {
		desired[i] = ProtoRoute{
			Dst:     mnet.HostPrefix(mnet.AddrFrom(0x0a000100 + uint32(i))),
			NextHop: mnet.AddrFrom(0x0a000001 + uint32(i%4)),
			Metric:  1 + i%11,
		}
	}
	before := liveHeap()
	var tables [8]*Table
	for j := range tables {
		tables[j] = NewTable(clk)
		for i := range desired {
			tables[j].ApplyProto("olsr", desired[i:i+1], nil)
		}
	}
	per := float64(liveHeap()-before) / float64(n*len(tables))
	runtime.KeepAlive(&tables)
	t.Logf("%d host routes: %.1f B each", n, per)
	if per > limit {
		t.Fatalf("%d host routes cost %.1f B each, want at most %d", n, per, limit)
	}
}

// TestTableAllocs: the per-hop lifetime extension, a steady diff install
// and a missed Get allocate nothing.
func TestTableAllocs(t *testing.T) {
	tb, clk := newTable()
	tb.SyncFIB(NewFIB(), "emu0")
	desired := make([]ProtoRoute, 64)
	for i := range desired {
		desired[i] = ProtoRoute{Dst: mnet.HostPrefix(mnet.AddrFrom(0x0a000100 + uint32(i))), NextHop: mnet.AddrFrom(0x0a000001), Metric: 2, Expires: clk.Now().Add(time.Minute)}
	}
	tb.ReplaceProto("olsr", desired)
	tb.ReplaceProto("olsr", desired)
	held, hop, absent := desired[5].Dst.Addr, desired[5].NextHop, addr("10.9.9.9")
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"ExtendLifetime on a held route", func() { tb.ExtendLifetime(held, hop, time.Second) }},
		{"steady ApplyProto", func() { tb.ApplyProto("olsr", desired, nil) }},
		{"steady ReplaceProto", func() { tb.ReplaceProto("olsr", desired) }},
		{"Get miss", func() { tb.Get(absent) }},
	} {
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("%s allocates %.1f times", tc.name, n)
		}
	}
	if !tb.ExtendLifetime(held, hop, time.Hour) {
		t.Fatal("ExtendLifetime missed a held route")
	}
}

// TestPurgeExpiredRemirrorsSurvivor: a purge that drops a multipath
// entry's best path and leaves it valid moves the FIB to the surviving
// path, as Lookup does.
func TestPurgeExpiredRemirrorsSurvivor(t *testing.T) {
	tb, clk := newTable()
	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	dst := addr("10.0.0.9")
	tb.AddPath(dst, "dymo", 1, Path{NextHop: addr("10.0.0.2"), Metric: 2, Expires: epoch.Add(time.Second)})
	tb.AddPath(dst, "dymo", 1, Path{NextHop: addr("10.0.0.3"), Metric: 3, Expires: epoch.Add(10 * time.Second)})
	clk.Advance(2 * time.Second)
	if n := tb.PurgeExpired(); n != 0 {
		t.Fatalf("purge invalidated %d entries, want 0", n)
	}
	_, p, err := tb.Lookup(addr("10.0.0.9"))
	if err != nil || p.NextHop != addr("10.0.0.3") {
		t.Fatalf("Lookup = %+v, %v; want via 10.0.0.3", p, err)
	}
	if r, ok := fib.Lookup(addr("10.0.0.9")); !ok || r.NextHop != p.NextHop || r.Metric != p.Metric {
		t.Fatalf("FIB route = %+v, %v; RIB's best is %+v", r, ok, p)
	}
}

// TestExtendRevivalRemirrorsBest: an extension that revives an expired,
// unpurged best path moves the FIB back to it once another mutation had
// mirrored a worse one, so a later purge leaves the FIB on Lookup's path.
func TestExtendRevivalRemirrorsBest(t *testing.T) {
	tb, clk := newTable()
	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	dst, a, b := addr("10.0.0.1"), addr("10.0.1.1"), addr("10.0.1.2")
	tb.AddPath(dst, "dymo", 1, Path{NextHop: a, Metric: 1, Expires: clk.Now().Add(10 * time.Millisecond)})
	tb.AddPath(dst, "dymo", 1, Path{NextHop: b, Metric: 3, Expires: clk.Now().Add(90 * time.Millisecond)})
	clk.Advance(20 * time.Millisecond)
	// A third path: the entry mirrors its best live path, b.
	tb.AddPath(dst, "dymo", 1, Path{NextHop: addr("10.0.1.3"), Metric: 3, Expires: clk.Now().Add(90 * time.Millisecond)})
	if r, _ := fib.Lookup(addr("10.0.0.1")); r.NextHop != b {
		t.Fatalf("FIB route %+v, want via %v while a is expired", r, b)
	}
	tb.ExtendLifetime(dst, a, 60*time.Millisecond) // revives a
	tb.PurgeExpired()
	_, p, err := tb.Lookup(addr("10.0.0.1"))
	if err != nil || p.NextHop != a {
		t.Fatalf("Lookup = %+v, %v; want via %v", p, err, a)
	}
	if r, ok := fib.Lookup(addr("10.0.0.1")); !ok || r.NextHop != a || r.Metric != 1 {
		t.Fatalf("FIB route %+v, %v; Lookup's best is %+v", r, ok, p)
	}
	ops := fib.Ops()
	tb.ExtendLifetime(dst, a, 60*time.Millisecond) // revives nothing
	clk.Advance(100 * time.Millisecond)
	tb.ExtendLifetime(dst, a, 60*time.Millisecond) // revives a, which the FIB still holds
	if got := fib.Ops(); got != ops {
		t.Fatalf("extensions that leave the FIB right made %d FIB ops, want 0", got-ops)
	}
}

// TestExtendRevivalRestoresFIBRoute: an extension that revives the single
// path of a valid entry restores the FIB route a SyncFIB removed while the
// path was expired.
func TestExtendRevivalRestoresFIBRoute(t *testing.T) {
	tb, clk := newTable()
	fib := NewFIB()
	tb.SyncFIB(fib, "emu0")
	dst, a := addr("10.0.0.1"), addr("10.0.1.1")
	tb.Upsert(Entry{Dst: mnet.HostPrefix(dst), Paths: []Path{{NextHop: a, Metric: 1, Expires: clk.Now().Add(10 * time.Millisecond)}}, Valid: true, Proto: "dymo"})
	clk.Advance(20 * time.Millisecond)
	tb.SyncFIB(fib, "emu0") // mirrors the expired path away
	if _, ok := fib.Lookup(addr("10.0.0.1")); ok {
		t.Fatal("SyncFIB kept an expired path in the FIB")
	}
	tb.ExtendLifetime(dst, a, 60*time.Millisecond)
	tb.PurgeExpired()
	_, p, err := tb.Lookup(addr("10.0.0.1"))
	if err != nil || p.NextHop != a {
		t.Fatalf("Lookup = %+v, %v; want via %v", p, err, a)
	}
	if r, ok := fib.Lookup(addr("10.0.0.1")); !ok || r.NextHop != a {
		t.Fatalf("FIB route %+v, %v; Lookup's best is %+v", r, ok, p)
	}
}
