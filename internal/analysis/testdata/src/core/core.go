// Package core is a miniature stand-in for manetkit/internal/core: just
// enough surface (Manager, Protocol, Env, Context, TicketMutex, Clock) for
// the lockemit and ctxleak fixtures to type-check. The analyzers match types
// by package base name, so this single-segment "core" exercises the same
// code paths as the real module path.
package core

import (
	"sync"

	"event"
)

// Event is the fixture event, so handlers and emitters share one type.
type Event = event.Event

// TicketMutex mirrors the FIFO ticket lock guarding a unit's section.
type TicketMutex struct {
	mu sync.Mutex
	n  uint64
}

func (t *TicketMutex) Ticket() uint64     { t.mu.Lock(); t.n++; n := t.n; t.mu.Unlock(); return n }
func (t *TicketMutex) Wait(ticket uint64) { _ = ticket }
func (t *TicketMutex) Lock()              { t.mu.Lock() }
func (t *TicketMutex) Unlock()            { t.mu.Unlock() }

// Timer and Clock mirror the vclock surface the ctxleak fixtures schedule on.
type Timer interface{ Stop() bool }

type Clock interface {
	AfterFunc(d int64, fn func()) Timer
}

// Manager mirrors the Framework Manager's reconfiguration surface.
type Manager struct {
	mu sync.Mutex
}

func (m *Manager) Deploy(u any) error         { return nil }
func (m *Manager) Undeploy(name string) error { return nil }
func (m *Manager) Rewire()                    {}
func (m *Manager) SetModel(v int)             {}
func (m *Manager) Quiesce() func()            { return func() {} }
func (m *Manager) Close()                     {}

// Protocol mirrors the ManetProtocol CF.
type Protocol struct {
	mu      sync.Mutex
	section TicketMutex
}

func (p *Protocol) SetTuple(t any)                        {}
func (p *Protocol) Emit(ev *Event)                        {}
func (p *Protocol) Section() *TicketMutex                 { return &p.section }
func (p *Protocol) RunLocked(fn func(ctx *Context)) error { fn(&Context{}); return nil }

// Env mirrors the deployment environment.
type Env struct{}

func (e *Env) Emit(ev *Event) {}

// Context mirrors the pooled handler context.
type Context struct{}

func (c *Context) Emit(ev *Event) {}
func (c *Context) Clock() Clock   { return nil }

// Manager's context concentrator and the sniffer constructor take event
// callbacks, whose *event.Event parameter ctxleak tracks.
func (m *Manager) SubscribeContext(pattern string, fn func(*event.Event)) {}

func NewSniffer(name string, fn func(ev *event.Event)) (*Protocol, error) { return nil, nil }
