// Package ctxleakfix exercises the ctxleak analyzer: every way the pooled
// *core.Context or a borrowed *event.Event can escape the call it is lent
// for, and the sanctioned idioms — RunLocked re-entry, re-emission, a value
// copy — that must stay silent.
package ctxleakfix

import (
	"core"
	"event"
)

type keeper struct {
	ctx *core.Context
}

var globalCtx *core.Context

type registry struct {
	byName map[string]*core.Context
}

func storeField(k *keeper, ctx *core.Context, ev *core.Event) {
	k.ctx = ctx // want "stored into field ctx"
}

func storeAlias(k *keeper, ctx *core.Context) {
	c := ctx
	k.ctx = c // want "stored into field ctx"
}

func storeGlobal(ctx *core.Context) {
	globalCtx = ctx // want "package-level var globalCtx"
}

func storeMap(r *registry, ctx *core.Context) {
	r.byName["x"] = ctx // want "map/slice element"
}

func giveBack(ctx *core.Context) *core.Context {
	return ctx // want "returned from the handler"
}

func sendAway(ch chan *core.Context, ctx *core.Context) {
	ch <- ctx // want "sent on a channel"
}

func appendSlice(dst []*core.Context, ctx *core.Context) {
	_ = append(dst, ctx) // want "appended to a slice"
}

func inLiteral(ctx *core.Context) {
	_ = []*core.Context{ctx} // want "composite literal"
}

func timerCapture(ctx *core.Context, clk core.Clock) {
	clk.AfterFunc(10, func() {
		ctx.Emit(&core.Event{}) // want "captured by a closure passed to AfterFunc"
	})
}

func goroutineCapture(ctx *core.Context) {
	go func() {
		ctx.Emit(&core.Event{}) // want "captured by a closure passed to a goroutine"
	}()
}

func directArg(ctx *core.Context, clk core.Clock) {
	_ = clk         // executor called with the context itself, not a closure
	ScheduleAt(ctx) // want "passed to ScheduleAt"
}

// ScheduleAt stands in for a deferred executor taking the context directly.
func ScheduleAt(ctx *core.Context) {}

// --- negative space -----------------------------------------------------

func plainUse(ctx *core.Context, ev *core.Event) {
	ctx.Emit(ev) // synchronous use inside the handler: ok
}

func reentry(p *core.Protocol, ctx *core.Context, dst string) {
	// The sanctioned timer idiom: the closure re-enters through RunLocked
	// and receives a fresh context; the pooled one is never captured.
	ctx.Clock().AfterFunc(10, func() {
		_ = p.RunLocked(func(ctx *core.Context) {
			ctx.Emit(&core.Event{Type: dst})
		})
	})
}

func allowedStore(k *keeper, ctx *core.Context) {
	k.ctx = ctx //mk:allow ctxleak test shim retains the context deliberately
}

// --- borrowed events ------------------------------------------------------

type evKeeper struct {
	last  *event.Event
	route *event.RoutePayload
	msg   *event.Message
	msgs  []*event.Message
	copy  event.Event
	kept  []event.Event
}

var lastEvent *event.Event

func handlerStoresEvent(k *evKeeper, ctx *core.Context, ev *event.Event) error {
	k.last = ev // want "borrowed \\*event.Event stored into field last"
	return nil
}

func handlerStoresAlias(k *evKeeper, ctx *core.Context, ev *event.Event) error {
	e := ev
	k.last = e // want "borrowed \\*event.Event stored into field last"
	return nil
}

func handlerStoresRoute(k *evKeeper, ctx *core.Context, ev *event.Event) error {
	k.route = ev.Route // want "borrowed event's Route stored into field route"
	return nil
}

func handlerStoresMsg(k *evKeeper, ctx *core.Context, ev *event.Event) error {
	k.msg = ev.Msg // want "lent event's Msg stored into field msg: it is recycled after the call returns; clone it \\(ev.Msg.Clone\\(\\)\\) to keep it"
	return nil
}

func handlerAppendsMsgAlias(k *evKeeper, ctx *core.Context, ev *event.Event) error {
	m := ev.Msg
	k.msgs = append(k.msgs, m) // want "lent event's Msg appended to a slice"
	return nil
}

func handlerReturnsMsg(ctx *core.Context, ev *event.Event) *event.Message {
	return ev.Msg // want "lent event's Msg returned from the handler"
}

func handlerDefersMsg(ctx *core.Context, ev *event.Event, clk core.Clock) {
	msg := ev.Msg
	clk.AfterFunc(10, func() {
		_ = msg.SeqNum // want "lent event's Msg captured by a closure passed to AfterFunc"
	})
}

func subscriberStoresMsg(m *core.Manager, k *evKeeper) {
	m.SubscribeContext("CONTEXT", func(ev *event.Event) {
		k.msg = ev.Msg // want "lent event's Msg stored into field msg"
	})
}

func handlerStoresGlobal(ctx *core.Context, ev *event.Event) error {
	lastEvent = ev // want "package-level var lastEvent"
	return nil
}

func handlerReturnsEvent(ctx *core.Context, ev *event.Event) *event.Event {
	return ev // want "borrowed \\*event.Event returned from the handler"
}

func handlerSendsEvent(ch chan *event.Event, ctx *core.Context, ev *event.Event) {
	ch <- ev // want "borrowed \\*event.Event sent on a channel"
}

func handlerDefersEvent(ctx *core.Context, ev *event.Event, clk core.Clock) {
	clk.AfterFunc(10, func() {
		_ = ev.Type // want "borrowed \\*event.Event captured by a closure passed to AfterFunc"
	})
}

func subscriberAppends(m *core.Manager) {
	var got []*event.Event
	m.SubscribeContext("CONTEXT", func(ev *event.Event) {
		got = append(got, ev) // want "borrowed \\*event.Event appended to a slice"
	})
	_ = got
}

func snifferCaptures(m *core.Manager) {
	_, _ = core.NewSniffer("tap", func(ev *event.Event) {
		go func() {
			_ = ev.Type // want "borrowed \\*event.Event captured by a closure passed to a goroutine"
		}()
	})
}

// observe is a subscriber passed by method value.
func (k *evKeeper) observe(ev *event.Event) {
	k.last = ev // want "borrowed \\*event.Event stored into field last"
}

func subscribeMethod(m *core.Manager, k *evKeeper) {
	m.SubscribeContext("CONTEXT", k.observe)
}

// --- borrowed events: negative space --------------------------------------

func handlerCopies(k *evKeeper, ctx *core.Context, ev *event.Event) error {
	k.copy = *ev // a value copy is the sanctioned way to keep an event
	rp := *ev.Route
	k.route = &rp
	k.msg = ev.Msg.Clone() // a clone is the sanctioned way to keep a message
	k.msgs = append(k.msgs, ev.Msg.Clone())
	if ev.Msg.SeqNum > 0 { // reading it in the call is fine
		k.copy.Type = "numbered"
	}
	k.kept = append(k.kept, *ev)
	ctx.Emit(ev) // re-emission is covered by the delivery's hold
	return nil
}

func subscriberCopies(m *core.Manager, k *evKeeper) {
	m.SubscribeContext("CONTEXT", func(ev *event.Event) {
		k.kept = append(k.kept, *ev)
	})
}

// plainHelper binds an event but no context and is no callback: the events
// it stores are its caller's, not lent by a delivery.
func plainHelper(k *evKeeper, ev *event.Event) {
	k.last = ev
}
