package core

// Lockemit fixtures: banned calls under Manager.mu, Protocol.mu and the
// TicketMutex section, plus the unlocked/branched/deferred shapes that must
// stay silent.

func (m *Manager) deployLocked(u any) {
	m.mu.Lock()
	_ = m.Deploy(u) // want "Manager.Deploy called while holding m.mu"
	m.mu.Unlock()
}

func (m *Manager) emitDeferred(e *Env, ev *Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.Emit(ev) // want "Env.Emit called while holding m.mu"
}

func (m *Manager) emitAfterUnlock(e *Env, ev *Event) {
	m.mu.Lock()
	m.mu.Unlock()
	e.Emit(ev) // unlocked: ok
}

func (m *Manager) emitBranches(e *Env, ev *Event, cond bool) {
	m.mu.Lock()
	if cond {
		m.mu.Unlock()
		e.Emit(ev) // unlocked on this path: ok
		return
	}
	m.mu.Unlock()
	e.Emit(ev) // unlocked: ok
}

func (m *Manager) emitOneArm(e *Env, ev *Event, cond bool) {
	m.mu.Lock()
	if cond {
		m.mu.Unlock()
	}
	e.Emit(ev) // want "Env.Emit called while holding m.mu"
}

func (p *Protocol) setTupleLocked(t any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.SetTuple(t) // want "Protocol.SetTuple called while holding p.mu"
}

func (p *Protocol) emitInSection(c *Context, ev *Event) {
	p.section.Lock()
	c.Emit(ev) // want "Context.Emit called while holding p.section"
	p.section.Unlock()
}

func (p *Protocol) emitAfterTicket(c *Context, ev *Event) {
	t := p.section.Ticket()
	p.section.Wait(t)
	c.Emit(ev) // want "Context.Emit called while holding p.section"
	p.section.Unlock()
}

func (p *Protocol) emitInGoroutine(c *Context, ev *Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		c.Emit(ev) // the goroutine runs without this frame's locks: ok
	}()
}

func (p *Protocol) emitInClosureUnderOwnLock(c *Context, ev *Event) {
	fn := func() {
		p.mu.Lock()
		c.Emit(ev) // want "Context.Emit called while holding p.mu"
		p.mu.Unlock()
	}
	fn()
}

// notifyHelper re-emits through the Env; locked callers inherit the fact.
func (m *Manager) notifyHelper(e *Env, ev *Event) {
	e.Emit(ev)
}

func (m *Manager) notifyWhileLocked(e *Env, ev *Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.notifyHelper(e, ev) // want "call to \\(core.Manager\\).notifyHelper while holding m.mu reaches \\(core.Env\\).Emit"
}

func (m *Manager) notifyAfterUnlock(e *Env, ev *Event) {
	m.mu.Lock()
	m.mu.Unlock()
	m.notifyHelper(e, ev) // unlocked: ok even with the Emit fact
}

//mk:allow lockemit single-threaded bootstrap runs before dispatch starts
func (m *Manager) allowedByDocComment(e *Env, ev *Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.Emit(ev) // suppressed by the doc-comment directive
}

func (m *Manager) allowedInline(e *Env, ev *Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.Emit(ev) //mk:allow lockemit fixture exercises the same-line allow
}
