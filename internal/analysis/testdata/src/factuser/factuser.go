// Package factuser imports factlib and exercises cross-package fact import:
// the transitive diagnostics below only fire when factlib's summaries made
// it across the package boundary, the way mkvet ships them via VetxOutput.
package factuser

import (
	"core"
	"factlib"
	"io"
)

func notifyWhileLocked(p *core.Protocol, e *core.Env, ev *core.Event) {
	sec := p.Section()
	sec.Lock()
	defer sec.Unlock()
	factlib.Notify(e, ev) // want "call to factlib.Notify while holding sec reaches \\(core.Env\\).Emit"
}

func notifyUnlocked(e *core.Env, ev *core.Event) {
	factlib.Notify(e, ev) // no lock held: ok
}

func writeEachUnsorted(w io.Writer, m map[string]int) {
	for k := range m {
		factlib.Write(w, k) // want "call to factlib.Write inside range over map reaches io.WriteString \\(call chain: factlib.Write -> io.WriteString\\)"
	}
}

func writeOne(w io.Writer, k string) {
	factlib.Write(w, k) // no map range: ok
}

// reNotify audits the emit edge: the allow stops factlib.Notify's Emit fact
// from propagating, so notifyViaAudited stays clean even under the lock.
func reNotify(e *core.Env, ev *core.Event) {
	//mk:allow lockemit bootstrap-only path, runs before dispatch starts
	factlib.Notify(e, ev)
}

func notifyViaAudited(p *core.Protocol, e *core.Env, ev *core.Event) {
	sec := p.Section()
	sec.Lock()
	defer sec.Unlock()
	reNotify(e, ev) // audited edge above: no Emit fact to inherit
}
