// Package event is a miniature stand-in for manetkit/internal/event: just
// the Event, its routing payload and its message, for the ctxleak fixtures. The analyzer
// matches the type by package base name, as it does core.Context.
package event

// RoutePayload mirrors the data-plane triggers' payload.
type RoutePayload struct{ Dst string }

// Message mirrors packetbb.Message.
type Message struct{ SeqNum uint16 }

// Clone mirrors packetbb.Message.Clone.
func (m *Message) Clone() *Message { c := *m; return &c }

// Event mirrors event.Event.
type Event struct {
	Type  string
	Route *RoutePayload
	Msg   *Message
}
