package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"manetkit"
	"manetkit/internal/telemetry"
)

// emulation stands up a converged 3-node line composed as -proto asks and
// serves its introspection endpoints on a fresh mux.
func emulation(t *testing.T, proto string, bus *telemetry.Bus) *http.ServeMux {
	t.Helper()
	clk := manetkit.NewVirtualClock(epoch)
	net := manetkit.NewNetwork(clk, 1)
	if bus != nil {
		net.SetTelemetry(bus)
	}
	addrs := manetkit.Addrs(3)
	stacks, err := manetkit.NewStacks(net, addrs, manetkit.StackOptions{Telemetry: bus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range stacks {
			s.Close()
		}
	})
	if err := manetkit.BuildLine(net, addrs, manetkit.DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	monitor := manetkit.NewHealthMonitor(epoch, nil, bus)
	for _, s := range stacks {
		if err := s.Compose(composition(proto, false, len(addrs))...); err != nil {
			t.Fatal(err)
		}
		monitor.Watch(manetkit.HealthTarget{Mgr: s.Manager(), Tables: s.RouteTables()})
	}
	clk.Advance(5 * time.Second)
	mux := http.NewServeMux()
	serveIntrospection(mux, stacks, monitor, clk, bus)
	return mux
}

func get(mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestGraphNamesEveryDeployedUnit(t *testing.T) {
	for _, tc := range []struct {
		proto string
		units []string
	}{
		{"olsr", []string{"system", "mpr", "olsr"}},
		{"dymo", []string{"system", "neighbor-detection", "dymo"}},
		{"aodv", []string{"system", "neighbor-detection", "aodv"}},
		{"zrp", []string{"system", "mpr", "zrp"}},
		{"both", []string{"system", "mpr", "olsr", "dymo"}},
	} {
		rec := get(emulation(t, tc.proto, nil), "/graph")
		if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "digraph manetkit {") {
			t.Fatalf("%s: /graph = %d %q", tc.proto, rec.Code, rec.Body.String())
		}
		for _, a := range manetkit.Addrs(3) {
			for _, u := range tc.units {
				if id := `"` + a.String() + "/" + u + `"`; !strings.Contains(rec.Body.String(), id) {
					t.Errorf("%s: /graph has no node %s", tc.proto, id)
				}
			}
		}
	}
}

func TestHealthReturnsAReport(t *testing.T) {
	rec := get(emulation(t, "olsr", nil), "/health")
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "t=5s ") {
		t.Fatalf("/health = %d %q", rec.Code, rec.Body.String())
	}
}

func TestPathsNeedTracing(t *testing.T) {
	if rec := get(emulation(t, "dymo", nil), "/paths"); rec.Code != http.StatusNotFound {
		t.Fatalf("/paths without a bus = %d %q, want 404", rec.Code, rec.Body.String())
	}
	rec := get(emulation(t, "dymo", manetkit.NewTelemetryBus(epoch)), "/paths")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "10.0.0.1 -> 10.0.0.2") {
		t.Fatalf("/paths with a bus = %d %q", rec.Code, rec.Body.String())
	}
}

// A -proto both -fisheye run composes OLSR, its fisheye variant and DYMO
// over one shared MPR CF on every node, and nothing else.
func TestBothWithFisheyeRunComposesOnce(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "arch.dot")
	if err := run(4, "line", "both", 30*time.Second, 2, true, false, false, 1, 0,
		false, false, nil, time.Second, introspection{graphOut: dot}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, a := range manetkit.Addrs(4) {
		for _, u := range []string{"system", "mpr", "olsr", "fisheye", "dymo"} {
			if id := `"` + a.String() + "/" + u + `"`; !strings.Contains(got, id) {
				t.Errorf("graph has no node %s", id)
			}
		}
	}
	if strings.Contains(got, "neighbor-detection") {
		t.Error("DYMO deployed a private Neighbour Detection CF beside the shared MPR CF")
	}
}

// TestRecordCoversDeployment: the recorder of a plain run holds every
// node's first System-CF rebind span (span seq 0 on) and the journal
// entries of the protocol deploys, because every producer publishes to
// the bus from its construction on.
func TestRecordCoversDeployment(t *testing.T) {
	bus := manetkit.NewTelemetryBus(epoch)
	if err := run(3, "line", "dymo", 6*time.Second, 1, false, false, false, 1, 0,
		false, false, bus, time.Second, introspection{}); err != nil {
		t.Fatal(err)
	}
	bus.Close()
	if spans := bus.Spans(); len(spans) == 0 || spans[0].Seq != 0 || spans[0].Kind != telemetry.KindRebind {
		t.Fatalf("first recorded span %+v, want seq 0, the first node's rebind", spans[:min(len(spans), 1)])
	}
	deploys := 0
	for _, ev := range bus.Events() {
		if ev.Stream == telemetry.StreamJournal && strings.HasPrefix(ev.Kind, "deploy:") {
			deploys++
		}
	}
	if deploys < 3 {
		t.Fatalf("recorder holds %d deploy journal entries, want one per node at least", deploys)
	}
}
