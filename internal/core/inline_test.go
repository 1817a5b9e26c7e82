package core

import (
	"fmt"
	"slices"
	"testing"

	"manetkit/internal/event"
	"manetkit/internal/telemetry"
)

// inlineRig is one deployment for TestInlineDeliveryKeepsFIFO: src provides
// ROUTE_UPDATE, whose one terminal a re-emits it as NO_ROUTE and then
// ROUTE_FOUND, which b and c both require; kicker's LINK_BREAK goes to host,
// whose handler emits ROUTE_UPDATE as src from inside the running drain.
type inlineRig struct {
	m   *Manager
	log []string // handler calls and context-subscriber calls, in order
}

func newInlineRig(t *testing.T) *inlineRig {
	t.Helper()
	m, _, _ := newObservedMgr(t, SingleThreaded)
	r := &inlineRig{m: m}
	unit := func(name string, tuple event.Tuple, fn func(*Context, *event.Event)) *Protocol {
		p := NewProtocol(name)
		p.SetTuple(tuple)
		if err := p.AddHandler(NewHandler(name+"-h", event.Any, func(ctx *Context, ev *event.Event) error {
			r.log = append(r.log, fmt.Sprintf("%s:%s", name, ev.Type))
			if fn != nil {
				fn(ctx, ev)
			}
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		if err := m.Deploy(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	req := func(ts ...event.Type) []event.Requirement {
		var rs []event.Requirement
		for _, t := range ts {
			rs = append(rs, event.Requirement{Type: t})
		}
		return rs
	}
	unit("src", event.Tuple{Provided: []event.Type{event.RouteUpdate}}, nil)
	unit("a", event.Tuple{Required: req(event.RouteUpdate), Provided: []event.Type{event.NoRoute, event.RouteFound}},
		func(ctx *Context, ev *event.Event) {
			ctx.Emit(&event.Event{Type: event.NoRoute, Corr: "nested-1"})
			ctx.Emit(&event.Event{Type: event.RouteFound, Corr: "nested-2"})
		})
	unit("b", event.Tuple{Required: req(event.NoRoute, event.RouteFound)}, nil)
	unit("c", event.Tuple{Required: req(event.NoRoute, event.RouteFound)}, nil)
	unit("kicker", event.Tuple{Provided: []event.Type{event.LinkBreak}}, nil)
	unit("host", event.Tuple{Required: req(event.LinkBreak)}, func(*Context, *event.Event) {
		emitAs(m, "src", &event.Event{Type: event.RouteUpdate, Corr: "outer"})
	})
	m.SubscribeContext(event.Routing, func(ev *event.Event) {
		r.log = append(r.log, "ctx:"+string(ev.Type))
	})
	return r
}

// TestInlineDeliveryKeepsFIFO: an emission with one terminal made while no
// drain runs is delivered at once instead of through the drain queue, and
// nothing anyone can observe tells the two apart. The same ROUTE_UPDATE is
// emitted once from the top (inline) and once from inside a running drain
// (queued); its handler emits two nested events with two receivers each.
// Handler and context-subscriber order, the framework and per-protocol
// counters and the dispatch spans, queue depths included, must match. The
// asynchronous models and a dedicated unit keep their own paths.
func TestInlineDeliveryKeepsFIFO(t *testing.T) {
	inline, queued := newInlineRig(t), newInlineRig(t)
	spanMark := func(r *inlineRig) int { return len(r.m.obs.bus.Spans()) }
	i0, q0 := spanMark(inline), spanMark(queued)
	inStats0, qStats0 := inline.m.Stats(), queued.m.Stats()

	emitAs(inline.m, "src", &event.Event{Type: event.RouteUpdate, Corr: "outer"})
	emitAs(queued.m, "kicker", &event.Event{Type: event.LinkBreak, Corr: "kick"})

	// The context subscriber sees an emission when its deliveries have been
	// scheduled: on the top-level path, inline or not, they have also run
	// by then; from inside a drain they run after the running delivery.
	// Everything else is the same order. The queued run's own extras are
	// LINK_BREAK's delivery to host and its context call.
	handlers := []string{"a:ROUTE_UPDATE", "ctx:NO_ROUTE", "ctx:ROUTE_FOUND", "b:NO_ROUTE", "c:NO_ROUTE", "b:ROUTE_FOUND", "c:ROUTE_FOUND"}
	if want := append(slices.Clone(handlers), "ctx:ROUTE_UPDATE"); !slices.Equal(inline.log, want) {
		t.Fatalf("inline order %v, want %v", inline.log, want)
	}
	if want := append([]string{"host:LINK_BREAK", "ctx:ROUTE_UPDATE"}, handlers...); !slices.Equal(queued.log[:len(want)], want) ||
		!slices.Equal(queued.log[len(want):], []string{"ctx:LINK_BREAK"}) {
		t.Fatalf("queued order %v, want %v then ctx:LINK_BREAK", queued.log, want)
	}

	in, q := inline.m.Stats(), queued.m.Stats()
	in.Emitted, in.Delivered = in.Emitted-inStats0.Emitted, in.Delivered-inStats0.Delivered
	q.Emitted, q.Delivered = q.Emitted-qStats0.Emitted-1, q.Delivered-qStats0.Delivered-1 // less LINK_BREAK
	in.Rewires, q.Rewires = 0, 0
	if in != q || in.Emitted != 3 || in.Delivered != 5 {
		t.Fatalf("ManagerStats: inline %+v, queued %+v (LINK_BREAK taken off), want 3 emitted and 5 delivered", in, q)
	}
	for _, name := range []string{"a", "b", "c"} {
		u, _ := inline.m.Unit(name)
		v, _ := queued.m.Unit(name)
		if s, w := u.(*Protocol).Stats(), v.(*Protocol).Stats(); s != w || s.Handled == 0 {
			t.Fatalf("%s: Stats inline %+v, queued %+v", name, s, w)
		}
	}

	strip := func(spans []telemetry.Span) []telemetry.Span {
		out := make([]telemetry.Span, 0, len(spans))
		for _, s := range spans {
			if s.Event == string(event.LinkBreak) {
				continue
			}
			s.Seq, s.T = 0, 0
			out = append(out, s)
		}
		return out
	}
	ispans, qspans := strip(inline.m.obs.bus.Spans()[i0:]), strip(queued.m.obs.bus.Spans()[q0:])
	// host's handle span is the queued run's only other extra.
	qspans = slices.DeleteFunc(qspans, func(s telemetry.Span) bool { return s.Kind == telemetry.KindHandle && s.To == "host" })
	if !slices.Equal(ispans, qspans) {
		t.Fatalf("spans differ:\ninline %+v\nqueued %+v", ispans, qspans)
	}
	var depths []int
	for _, s := range ispans {
		if s.Kind == telemetry.KindDispatch {
			depths = append(depths, s.QDepth)
		}
	}
	if want := []int{1, 1, 2, 3, 4}; !slices.Equal(depths, want) {
		t.Fatalf("dispatch queue depths %v, want %v", depths, want)
	}
}

// TestInlineDeliveryOnlySingleThreaded: under PerMessage and PerN, and for
// a dedicated unit, a one-terminal emission keeps its asynchronous path —
// the handler runs without the single-threaded drain taken, and the
// asynchronous models still draw tickets.
func TestInlineDeliveryOnlySingleThreaded(t *testing.T) {
	for _, c := range []struct {
		name      string
		model     Model
		dedicated bool
		tickets   uint64
	}{
		{"PerMessage", PerMessage, false, 1},
		{"PerN", PerN, false, 1},
		{"Dedicated", SingleThreaded, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, _ := newMgr(t, c.model)
			drained := make(chan bool, 1)
			src := NewProtocol("src")
			src.SetTuple(event.Tuple{Provided: []event.Type{event.RouteUpdate}})
			sink := NewProtocol("sink")
			sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.RouteUpdate}}})
			sink.AddHandler(NewHandler("h", event.RouteUpdate, func(*Context, *event.Event) error {
				drained <- m.draining.Load()
				return nil
			}))
			for _, p := range []*Protocol{src, sink} {
				if err := m.Deploy(p); err != nil {
					t.Fatal(err)
				}
			}
			if c.dedicated {
				if err := m.EnableDedicatedThread("sink"); err != nil {
					t.Fatal(err)
				}
			}
			before := m.Stats().Tickets
			emitFrom(t, m, "src", &event.Event{Type: event.RouteUpdate})
			if <-drained {
				t.Fatal("the handler ran under the single-threaded drain")
			}
			if got := m.Stats().Tickets - before; got != c.tickets {
				t.Fatalf("%d tickets drawn, want %d", got, c.tickets)
			}
		})
	}
}
