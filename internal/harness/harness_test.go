package harness

import (
	"testing"
	"time"

	"manetkit/internal/core"
)

func TestTimeToProcessMeasurements(t *testing.T) {
	for name, fn := range map[string]func(int) (time.Duration, error){
		"olsr-kit":  TimeToProcessOLSRKit,
		"olsr-mono": TimeToProcessOLSRMono,
		"dymo-kit":  TimeToProcessDYMOKit,
		"dymo-mono": TimeToProcessDYMOMono,
	} {
		d, err := fn(200)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d <= 0 || d > 50*time.Millisecond {
			t.Fatalf("%s: implausible per-message time %v", name, d)
		}
	}
}

func TestRouteEstablishmentOLSR(t *testing.T) {
	kit, err := RouteEstablishmentOLSRKit()
	if err != nil {
		t.Fatal(err)
	}
	mono, err := RouteEstablishmentOLSRMono()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: OLSR route establishment is on the order of the
	// HELLO/TC intervals (hundreds of ms to seconds), for both
	// implementations.
	for name, d := range map[string]time.Duration{"kit": kit, "mono": mono} {
		if d < 100*time.Millisecond || d > 60*time.Second {
			t.Fatalf("OLSR %s route establishment = %v, implausible", name, d)
		}
	}
}

func TestRouteEstablishmentDYMO(t *testing.T) {
	kit, err := RouteEstablishmentDYMOKit()
	if err != nil {
		t.Fatal(err)
	}
	mono, err := RouteEstablishmentDYMOMono()
	if err != nil {
		t.Fatal(err)
	}
	// DYMO discovery is a single RREQ/RREP round trip: tens of ms.
	for name, d := range map[string]time.Duration{"kit": kit, "mono": mono} {
		if d <= 0 || d > 500*time.Millisecond {
			t.Fatalf("DYMO %s discovery = %v, implausible", name, d)
		}
	}
}

func TestPaperShapeOLSRSlowerThanDYMO(t *testing.T) {
	// Table 1's central comparison: proactive route establishment is
	// orders of magnitude slower than a reactive discovery.
	olsrKit, err := RouteEstablishmentOLSRKit()
	if err != nil {
		t.Fatal(err)
	}
	dymoKit, err := RouteEstablishmentDYMOKit()
	if err != nil {
		t.Fatal(err)
	}
	if olsrKit < 5*dymoKit {
		t.Fatalf("expected OLSR (%v) >> DYMO (%v)", olsrKit, dymoKit)
	}
}

func TestFootprintShape(t *testing.T) {
	tab, err := MeasureTable2()
	if err != nil {
		t.Fatal(err)
	}
	if tab.MonoOLSR <= 0 || tab.KitOLSR <= 0 || tab.MonoDYMO <= 0 || tab.KitDYMO <= 0 {
		t.Fatalf("zero footprints: %+v", tab)
	}
	// Table 2's shapes: single-protocol MANETKit deployments cost more
	// than their monolithic counterparts (framework machinery)...
	if tab.KitOLSR <= tab.MonoOLSR {
		t.Errorf("MKit-OLSR (%0.1fKB) should exceed mono (%0.1fKB)", tab.KitOLSR, tab.MonoOLSR)
	}
	if tab.KitDYMO <= tab.MonoDYMO {
		t.Errorf("MKit-DYMO (%0.1fKB) should exceed mono (%0.1fKB)", tab.KitDYMO, tab.MonoDYMO)
	}
	// ...but the two-protocol deployment amortises the shared substrate:
	// deploying both in MANETKit costs less than the sum of the two
	// standalone MANETKit deployments.
	if tab.KitBoth >= tab.KitOLSR+tab.KitDYMO {
		t.Errorf("co-deployment (%0.1fKB) should undercut sum of singles (%0.1f + %0.1f)",
			tab.KitBoth, tab.KitOLSR, tab.KitDYMO)
	}
	if tab.KitBothSealed > tab.KitBoth {
		t.Errorf("sealed deployment (%0.1fKB) larger than unsealed (%0.1fKB)", tab.KitBothSealed, tab.KitBoth)
	}
	// The framework's own bytes stay where compact registries and plans put
	// them: the measured 14.5 and 15.4 KB plus 1 KB (the columns repeat to
	// 0.1 KB).
	if tab.KitOLSR > 15.5 || tab.KitDYMO > 16.4 {
		t.Errorf("MKit-OLSR %0.1fKB (bound 15.5), MKit-DYMO %0.1fKB (bound 16.4)", tab.KitOLSR, tab.KitDYMO)
	}
	t.Logf("%+v", tab)
}

func TestConcurrencyModels(t *testing.T) {
	for _, model := range []core.Model{core.SingleThreaded, core.PerMessage, core.PerN} {
		for _, dedicated := range []bool{false, true} {
			r, err := MeasureConcurrency(model, dedicated, 3, 300, 2000)
			if err != nil {
				t.Fatalf("%v: %v", model, err)
			}
			if r.Events != 300 || r.PerSecond <= 0 {
				t.Fatalf("%v: result %+v", r.Name(), r)
			}
		}
	}
}

func TestFisheyeReducesOverhead(t *testing.T) {
	r, err := MeasureFisheye(16, 4, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineTCTx == 0 {
		t.Fatal("no TC traffic in baseline")
	}
	if r.FisheyeTCTx >= r.BaselineTCTx {
		t.Fatalf("fisheye did not reduce TC transmissions: %d -> %d", r.BaselineTCTx, r.FisheyeTCTx)
	}
}

func TestDYMOFloodingAblation(t *testing.T) {
	r, err := MeasureDYMOFlooding(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.OptimisedForwards >= r.BlindForwards {
		t.Fatalf("MPR flooding not cheaper: blind=%d optimised=%d", r.BlindForwards, r.OptimisedForwards)
	}
}

func TestMultipathAblation(t *testing.T) {
	r, err := MeasureMultipath()
	if err != nil {
		t.Fatal(err)
	}
	if r.MultipathDiscoveries >= r.BaseDiscoveries {
		t.Fatalf("multipath should need fewer discoveries: base=%d multipath=%d",
			r.BaseDiscoveries, r.MultipathDiscoveries)
	}
}

func TestHybridAblation(t *testing.T) {
	r, err := MeasureHybrid(7)
	if err != nil {
		t.Fatal(err)
	}
	if r.HybridForwards >= r.ReactiveForwards {
		t.Fatalf("hybrid flood not shallower: reactive=%d hybrid=%d", r.ReactiveForwards, r.HybridForwards)
	}
	if r.ZoneAnswers == 0 {
		t.Fatal("no zone answers recorded")
	}
	if r.NearDiscoveries != 0 {
		t.Fatalf("in-zone traffic triggered %d discoveries", r.NearDiscoveries)
	}
	if r.ReactiveDelay <= 0 || r.HybridDelay <= 0 {
		t.Fatalf("delays = %v / %v", r.ReactiveDelay, r.HybridDelay)
	}
}

func TestPowerAwareAblation(t *testing.T) {
	r, err := MeasurePowerAware()
	if err != nil {
		t.Fatal(err)
	}
	if !r.DrainedSelectedBase {
		t.Fatalf("coverage-greedy base should pick the drained hub: %+v", r)
	}
	if r.DrainedSelectedPower {
		t.Fatalf("power-aware selection still burdens the drained relay: %+v", r)
	}
}
