package harness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/testbed"
)

// TestShardWorkersVsReconfigure pits what still runs concurrently in an
// emulation — the receiver upcalls an epoch makes on the clock goroutine —
// against MANETKit's headline operation, reconfiguring protocol graphs on
// live nodes. (The name dates from the engine's parallel prep phase; the
// epoch workers are gone, the race is not.) One goroutine drives the cluster
// clock (OLSR hello/TC traffic keeps epochs full) while others
// Deploy/Undeploy an interposing protocol, flip its tuple (triggering
// declarative rewires) and apply fault schedules. Run under -race in CI; the
// assertion is memory safety, not determinism.
func TestShardWorkersVsReconfigure(t *testing.T) {
	const n = 16
	c, err := testbed.New(n, testbed.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, node := range c.Nodes {
		if _, err := DeployFamily(c, node, "olsr"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Grid(4); err != nil {
		t.Fatal(err)
	}
	emunet.NewFaultPlan(42).
		Partition(500*time.Millisecond, 1500*time.Millisecond, c.Addrs()[:n/2], c.Addrs()[n/2:]).
		CorruptFrames(0, 3*time.Second, 0.1).
		DuplicateFrames(0, 3*time.Second, 0.1).
		Apply(c.Net)

	var wg sync.WaitGroup
	done := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 60; i++ {
			c.Run(50 * time.Millisecond)
		}
	}()

	// Reconfigure a rotating subset of nodes while their frames are in
	// flight: deploy a TC interposer, retuple it, rewire, tear it down.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mgr := c.Nodes[(g*7+i)%n].Mgr
				p := core.NewProtocol(fmt.Sprintf("interposer-%d-%d", g, i))
				p.SetTuple(event.Tuple{
					Provided: []event.Type{event.TCOut},
					Required: []event.Requirement{{Type: event.TCOut}},
				})
				if err := p.AddHandler(core.NewHandler("fwd", event.TCOut,
					func(ctx *core.Context, ev *event.Event) error {
						// Pass ev itself on: a relayed TC's header ends with
						// this delivery, so a new event must not point at it.
						ctx.Emit(ev)
						return nil
					})); err != nil {
					t.Error(err)
					return
				}
				if err := mgr.Deploy(p); err != nil {
					t.Error(err)
					return
				}
				p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
				mgr.Rewire()
				if err := mgr.Undeploy(p.Name()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Observer goroutine: snapshot surfaces the scale harness reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = c.Net.Stats()
			_, _ = c.Net.EngineStats()
			_ = c.Snapshot()
		}
	}()

	wg.Wait()
	if s := c.Net.Stats(); s.RxFrames == 0 {
		t.Fatal("no traffic moved during reconfiguration stress")
	}
}
