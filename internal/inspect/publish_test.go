package inspect_test

import (
	"encoding/json"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/inspect"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// drain empties a closed subscription's channel.
func drain(s *telemetry.Subscription) []telemetry.Event {
	var out []telemetry.Event
	for ev := range s.C() {
		out = append(out, ev)
	}
	return out
}

// TestJournalPublishesEntries: every journal entry reaches the bus's
// journal stream, with the entry's reason, node and offset on the
// envelope.
func TestJournalPublishesEntries(t *testing.T) {
	b := telemetry.New(telemetry.Config{Epoch: testbed.Epoch})
	sub := b.Subscribe(8, telemetry.StreamJournal)
	j := inspect.NewJournal(testbed.Epoch, b)

	m, err := core.NewManager(core.Config{
		Node:  mnet.MustParseAddr("10.0.0.1"),
		Clock: vclock.NewVirtual(testbed.Epoch),
		Model: core.SingleThreaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j.Watch(m)
	if err := m.Deploy(core.NewProtocol("aodv")); err != nil { // rewires -> journalled as deploy:aodv
		t.Fatal(err)
	}
	b.Close()

	got := drain(sub)
	if len(got) != j.Len() || len(got) == 0 {
		t.Fatalf("got %d journal events, journal has %d entries", len(got), j.Len())
	}
	want := j.Entries()[0]
	ev := got[0]
	if ev.Kind != want.Reason || ev.Node != want.Node || ev.T != want.T || want.Reason != "deploy:aodv" {
		t.Fatalf("event %+v vs entry %+v", ev, want)
	}
}

// TestMonitorPublishesTransitions drives a monitor through a
// degrade/recover cycle and checks the bus sees both level transitions
// with flap counts, and that the report's states carry since/flap data.
func TestMonitorPublishesTransitions(t *testing.T) {
	b := telemetry.New(telemetry.Config{Epoch: testbed.Epoch})
	sub := b.Subscribe(8, telemetry.StreamHealth)
	reg := metrics.NewRegistry()
	mon := inspect.NewMonitor(testbed.Epoch, reg, b)

	depth := int64(600) // past the watermark
	reg.AttachGauge("core_dedicated_depth:aodv", func() int64 { return depth })
	r1 := mon.Check(testbed.Epoch.Add(time.Second))
	depth = 3
	r2 := mon.Check(testbed.Epoch.Add(4 * time.Second))
	b.Close()

	got := drain(sub)
	if len(got) != 2 {
		t.Fatalf("got %d health events, want 2 (ok->warn, warn->ok)", len(got))
	}
	if got[0].Kind != string(inspect.LevelWarn) || got[1].Kind != string(inspect.LevelOK) {
		t.Fatalf("transition kinds %q, %q", got[0].Kind, got[1].Kind)
	}
	if got[0].Node != "aodv" {
		t.Fatalf("transition key %q, want aodv", got[0].Node)
	}
	var tr2 inspect.Transition
	if err := json.Unmarshal(got[1].Data, &tr2); err != nil {
		t.Fatal(err)
	}
	if tr2.From != inspect.LevelWarn || tr2.To != inspect.LevelOK || tr2.Flaps != 2 {
		t.Fatalf("recovery transition %+v, want warn->ok flaps 2", tr2)
	}
	if tr2.T != 4*time.Second || got[1].T != tr2.T {
		t.Fatalf("transition T %s on event T %s, want the check's virtual offset 4s", tr2.T, got[1].T)
	}

	// The reports expose the same state machine.
	if len(r1.States) != 1 || r1.States[0].Level != inspect.LevelWarn ||
		r1.States[0].Since != time.Second || r1.States[0].Flaps != 1 {
		t.Fatalf("r1 states %+v", r1.States)
	}
	if r2.States[0].Level != inspect.LevelOK || r2.States[0].Since != 4*time.Second ||
		r2.States[0].Flaps != 2 {
		t.Fatalf("r2 states %+v", r2.States)
	}
}
