// Tests for the introspection layer: snapshot determinism, the JSON/DOT
// round trip, and the rewire journal across a serial protocol switch. They
// live in an external test package because the experiment harness (which
// the scenarios reuse) itself imports inspect.
package inspect_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/harness"
	"manetkit/internal/inspect"
	"manetkit/internal/metrics"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/testbed"
)

// switchRun is one deterministic serial-switch scenario: a 3-node OLSR
// line that hot-swaps every node to DYMO, observed end to end.
type switchRun struct {
	journal *inspect.Journal
	before  inspect.Snapshot // OLSR deployment, converged
	after   inspect.Snapshot // DYMO deployment, converged
}

// serialSwitch drives the paper's serial protocol switch (OLSR -> DYMO) on
// a 3-node line with a journal watching every manager.
func serialSwitch(t *testing.T) switchRun {
	t.Helper()
	c, err := testbed.New(3, testbed.Options{Seed: 1, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatalf("testbed.New: %v", err)
	}
	t.Cleanup(c.Close)
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	journal := inspect.NewJournal(testbed.Epoch)
	mgrs := make([]*core.Manager, len(c.Nodes))
	for i, node := range c.Nodes {
		mgrs[i] = node.Mgr
		journal.Watch(node.Mgr)
	}
	for _, node := range c.Nodes {
		if _, err := harness.DeployFamily(c, node, "olsr"); err != nil {
			t.Fatalf("DeployFamily: %v", err)
		}
	}
	c.Run(10 * time.Second)
	before := inspect.Capture(mgrs...)

	for _, node := range c.Nodes {
		for _, unit := range []string{olsr.UnitName, mpr.UnitName} {
			if err := node.Mgr.Undeploy(unit); err != nil {
				t.Fatalf("Undeploy %s: %v", unit, err)
			}
		}
		if _, err := harness.DeployFamily(c, node, "dymo"); err != nil {
			t.Fatalf("DeployFamily: %v", err)
		}
	}
	c.Run(10 * time.Second)
	after := inspect.Capture(mgrs...)
	return switchRun{journal: journal, before: before, after: after}
}

// TestSnapshotDeterminism: two identical (composition, seed) runs must
// yield byte-identical snapshot JSON and byte-identical rewire journals.
func TestSnapshotDeterminism(t *testing.T) {
	a := serialSwitch(t)
	b := serialSwitch(t)
	for _, pair := range []struct {
		name string
		x, y inspect.Snapshot
	}{{"before", a.before, b.before}, {"after", a.after, b.after}} {
		xj, err := pair.x.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		yj, err := pair.y.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		if !bytes.Equal(xj, yj) {
			t.Errorf("%s snapshots of identical runs differ:\n%s\nvs\n%s", pair.name, xj, yj)
		}
	}
	aj, err := a.journal.JSON()
	if err != nil {
		t.Fatalf("journal JSON: %v", err)
	}
	bj, err := b.journal.JSON()
	if err != nil {
		t.Fatalf("journal JSON: %v", err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("journals of identical runs differ:\n%s\nvs\n%s", aj, bj)
	}
	if a.journal.Len() == 0 {
		t.Error("serial switch produced an empty journal")
	}
}

// TestSnapshotRoundTrip: the DOT rendering must be reproducible from the
// JSON form alone (mkemu -graph writes DOT derived from the snapshot it
// would also serve as JSON).
func TestSnapshotRoundTrip(t *testing.T) {
	run := serialSwitch(t)
	for _, s := range []inspect.Snapshot{run.before, run.after} {
		j, err := s.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		parsed, err := inspect.ParseSnapshot(j)
		if err != nil {
			t.Fatalf("ParseSnapshot: %v", err)
		}
		j2, err := parsed.JSON()
		if err != nil {
			t.Fatalf("re-JSON: %v", err)
		}
		if !bytes.Equal(j, j2) {
			t.Errorf("JSON round trip not stable:\n%s\nvs\n%s", j, j2)
		}
		if dot, dot2 := s.DOT(), parsed.DOT(); dot != dot2 {
			t.Errorf("DOT differs after JSON round trip:\n%s\nvs\n%s", dot, dot2)
		}
	}
	dot := run.after.DOT()
	for _, want := range []string{
		`"10.0.0.1/` + dymo.UnitName + `"`,
		`"10.0.0.3/` + neighbor.UnitName + `"`,
		"[single-threaded]",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// TestSerialSwitchDiff: the structural diff across the OLSR -> DYMO switch
// must name exactly the swapped units on every node and record the
// re-derived event topology.
func TestSerialSwitchDiff(t *testing.T) {
	run := serialSwitch(t)
	deltas := inspect.Diff(run.before, run.after)
	if len(deltas) != 3 {
		t.Fatalf("Diff produced %d deltas, want 3 (one per node): %+v", len(deltas), deltas)
	}
	for _, d := range deltas {
		if got, want := strings.Join(d.AddedUnits, ","), neighbor.UnitName+","+dymo.UnitName; got != want {
			t.Errorf("%s added units %q, want %q", d.Node, got, want)
		}
		if got, want := strings.Join(d.RemovedUnits, ","), mpr.UnitName+","+olsr.UnitName; got != want {
			t.Errorf("%s removed units %q, want %q", d.Node, got, want)
		}
		if len(d.AddedBindings) == 0 || len(d.RemovedBindings) == 0 {
			t.Errorf("%s recorded no binding changes (added=%d removed=%d); the event topology must have been re-derived",
				d.Node, len(d.AddedBindings), len(d.RemovedBindings))
		}
	}
	// A snapshot diffed against itself is all quiet.
	if extra := inspect.Diff(run.after, run.after); len(extra) != 0 {
		t.Errorf("self-diff not empty: %+v", extra)
	}
}

// TestJournalRecordsSwitch: the journal must contain, per node and in
// order, the undeploys of the OLSR composition followed by the deploys of
// the DYMO composition.
func TestJournalRecordsSwitch(t *testing.T) {
	run := serialSwitch(t)
	for _, node := range []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"} {
		wantOrder := []string{
			"deploy:" + mpr.UnitName,
			"deploy:" + olsr.UnitName,
			"undeploy:" + olsr.UnitName,
			"undeploy:" + mpr.UnitName,
			"deploy:" + neighbor.UnitName,
			"deploy:" + dymo.UnitName,
		}
		i := 0
		for _, e := range run.journal.Entries() {
			if e.Node == node && i < len(wantOrder) && e.Reason == wantOrder[i] {
				i++
			}
		}
		if i != len(wantOrder) {
			t.Errorf("journal for %s missing %q (matched %d of %d):\n%s",
				node, wantOrder[i], i, len(wantOrder), run.journal.String())
		}
	}
	// Every journalled delta must be non-empty and timestamped on or after
	// the epoch.
	for _, e := range run.journal.Entries() {
		if e.Delta.Empty() {
			t.Errorf("journal entry with empty delta: %+v", e)
		}
		if e.T < 0 {
			t.Errorf("journal entry before epoch: %+v", e)
		}
	}
}
