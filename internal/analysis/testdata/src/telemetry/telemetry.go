// Package telemetry mirrors the real bus's span recorder: just enough
// surface for the maporder fixture's span sink to type-check.
package telemetry

import "time"

// Span mirrors the recorded span.
type Span struct{ Node string }

// Bus mirrors the observability bus.
type Bus struct{}

// Record mirrors the span sink.
func (b *Bus) Record(now time.Time, s Span) {}
