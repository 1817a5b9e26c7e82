// Package factlib holds helpers whose summaries must travel to importers —
// the library half of the cross-package fact fixture. No diagnostics fire
// here (nothing is locked, no map is ranged); the facts matter to package
// factuser.
package factlib

import (
	"core"
	"io"
)

// Notify re-emits through the deployment Env; its summary records the
// reachable emit entry point.
func Notify(e *core.Env, ev *core.Event) {
	e.Emit(ev)
}

// Write forwards into the writer; importers inherit the Sink fact.
func Write(w io.Writer, s string) {
	io.WriteString(w, s)
}
