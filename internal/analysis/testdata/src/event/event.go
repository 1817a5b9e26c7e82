// Package event is a miniature stand-in for manetkit/internal/event: just
// the Event and its routing payload, for the ctxleak fixtures. The analyzer
// matches the type by package base name, as it does core.Context.
package event

// RoutePayload mirrors the data-plane triggers' payload.
type RoutePayload struct{ Dst string }

// Event mirrors event.Event.
type Event struct {
	Type  string
	Route *RoutePayload
}
