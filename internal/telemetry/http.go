// Live streaming endpoints: each bus stream is served as NDJSON (one
// event per line, the default) or SSE (text/event-stream, when the client
// asks for it), flushed per event — `curl -N http://host/stream/spans`
// watches a run reconfigure live.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// RegisterStreamHandlers mounts one live endpoint per stream on mux:
// /stream/metrics, /stream/spans, /stream/health, /stream/journal and
// /stream/engine, plus /stream (all streams multiplexed).
func RegisterStreamHandlers(mux *http.ServeMux, b *Bus) {
	mux.Handle("/stream", StreamHandler(b))
	for _, name := range Streams() {
		mux.Handle("/stream/"+name, StreamHandler(b, name))
	}
}

// StreamHandler serves the named streams (none = all) live. Each request
// gets its own subscription with the bus's per-subscriber backpressure: a
// client that stops reading loses events, never stalls the emulation. The
// response ends when the client disconnects or the bus closes.
//
// Query parameters:
//
//	?backlog=1   prepend the flight recorder's matching history
//	?format=sse  force SSE framing (also chosen by Accept: text/event-stream)
//	?buffer=N    subscriber channel depth, 1 to the recorder capacity
//	             (default 1024); anything else is answered 400
func StreamHandler(b *Bus, streams ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b == nil {
			http.Error(w, "telemetry disabled", http.StatusNotFound)
			return
		}
		sse := r.URL.Query().Get("format") == "sse" ||
			strings.Contains(r.Header.Get("Accept"), "text/event-stream")
		buffer := 1024
		if q := r.URL.Query().Get("buffer"); q != "" {
			limit := DefaultRecorderCapacity // the server allocates the channel: bound it
			if b.ring != nil {
				limit = len(b.ring)
			}
			n, err := strconv.Atoi(q)
			if err != nil || n <= 0 || n > limit {
				http.Error(w, fmt.Sprintf("buffer must be an integer in 1..%d", limit), http.StatusBadRequest)
				return
			}
			buffer = n
		}
		var sub *Subscription
		if r.URL.Query().Get("backlog") != "" {
			sub = b.SubscribeWithBacklog(buffer, streams...)
		} else {
			sub = b.Subscribe(buffer, streams...)
		}
		defer sub.Close()

		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			flusher.Flush()
		}

		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case ev, ok := <-sub.C():
				if !ok {
					return // bus closed: clean end of stream
				}
				line, err := json.Marshal(ev)
				if err != nil {
					return
				}
				if sse {
					if _, err := w.Write([]byte("event: " + ev.Stream + "\ndata: ")); err != nil {
						return
					}
				}
				if _, err := w.Write(line); err != nil {
					return
				}
				suffix := "\n"
				if sse {
					suffix = "\n\n"
				}
				if _, err := w.Write([]byte(suffix)); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	})
}
