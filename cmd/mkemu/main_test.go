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
)

// emulation stands up a converged 3-node line composed as -proto asks and
// serves its introspection endpoints on a fresh mux.
func emulation(t *testing.T, proto string, tracer *manetkit.Tracer) *http.ServeMux {
	t.Helper()
	clk := manetkit.NewVirtualClock(epoch)
	net := manetkit.NewNetwork(clk, 1)
	if tracer != nil {
		net.SetTracer(tracer)
	}
	addrs := manetkit.Addrs(3)
	stacks, err := manetkit.NewStacks(net, addrs, manetkit.StackOptions{Tracer: tracer})
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
	monitor := manetkit.NewHealthMonitor(epoch, nil)
	for _, s := range stacks {
		if err := s.Compose(composition(proto, false, len(addrs))...); err != nil {
			t.Fatal(err)
		}
		monitor.Watch(manetkit.HealthTarget{Mgr: s.Manager(), Tables: s.RouteTables()})
	}
	clk.Advance(5 * time.Second)
	mux := http.NewServeMux()
	serveIntrospection(mux, stacks, monitor, clk, tracer)
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
		t.Fatalf("/paths without a tracer = %d %q, want 404", rec.Code, rec.Body.String())
	}
	rec := get(emulation(t, "dymo", manetkit.NewTracer(epoch, 0)), "/paths")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "10.0.0.1 -> 10.0.0.2") {
		t.Fatalf("/paths with a tracer = %d %q", rec.Code, rec.Body.String())
	}
}

// A -proto both -fisheye run composes OLSR, its fisheye variant and DYMO
// over one shared MPR CF on every node, and nothing else.
func TestBothWithFisheyeRunComposesOnce(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "arch.dot")
	if err := run(4, "line", "both", 30*time.Second, 2, true, false, false, 1, 0,
		false, false, nil, nil, time.Second, introspection{graphOut: dot}); err != nil {
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
