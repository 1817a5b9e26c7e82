package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newStreamServer builds a bus pre-loaded with a known event mix and an
// httptest server with the live endpoints mounted.
func newStreamServer(t *testing.T) (*Bus, *httptest.Server) {
	t.Helper()
	b := New(Config{Epoch: testEpoch})
	mux := http.NewServeMux()
	RegisterStreamHandlers(mux, b)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(b.Close)
	for i := 0; i < 5; i++ {
		b.PublishAt(time.Duration(i)*time.Millisecond, StreamSpans, "emit", "10.0.0.1", payload{N: i})
	}
	b.PublishAt(5*time.Millisecond, StreamEngine, "epoch", "", payload{N: 5})
	b.PublishAt(6*time.Millisecond, StreamHealth, "warn", "n1", payload{N: 6})
	return b, srv
}

// TestStreamNDJSONBacklog: a closed bus with recorded history serves the
// full matching backlog as NDJSON and ends the response cleanly.
func TestStreamNDJSONBacklog(t *testing.T) {
	b, srv := newStreamServer(t)
	b.Close() // backlog survives close; the handler drains it and returns

	resp, err := http.Get(srv.URL + "/stream/spans?backlog=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // must terminate: bus is closed
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d NDJSON lines, want the 5 recorded spans:\n%s", len(lines), body)
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ev.Stream != StreamSpans || ev.Seq != uint64(i) {
			t.Fatalf("line %d: %+v (want spans stream, seq %d)", i, ev, i)
		}
	}
}

// TestStreamSSEFraming: ?format=sse switches to text/event-stream with
// event:/data: framing, multiplexing all streams on /stream.
func TestStreamSSEFraming(t *testing.T) {
	b, srv := newStreamServer(t)
	b.Close()

	resp, err := http.Get(srv.URL + "/stream?backlog=1&format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSpace(string(body)), "\n\n")
	if len(frames) != 7 {
		t.Fatalf("got %d SSE frames, want 7:\n%s", len(frames), body)
	}
	if !strings.HasPrefix(frames[5], "event: engine\ndata: {") {
		t.Fatalf("frame 5 framing wrong:\n%s", frames[5])
	}
	var ev Event
	data := strings.TrimPrefix(strings.SplitN(frames[6], "\ndata: ", 2)[1], "data: ")
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("frame 6 data not JSON: %v", err)
	}
	if ev.Stream != StreamHealth || ev.Kind != "warn" {
		t.Fatalf("frame 6 event %+v", ev)
	}
}

// TestStreamLiveDelivery: a client with no backlog receives events
// published after it connected, and the response ends when the bus
// closes mid-stream.
func TestStreamLiveDelivery(t *testing.T) {
	b, srv := newStreamServer(t)

	resp, err := http.Get(srv.URL + "/stream/engine")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The handler subscribes at its own pace; keep publishing until the
	// client has read one full line, then close the bus.
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				b.Close()
				return
			default:
				b.PublishAt(time.Duration(i)*time.Millisecond, StreamEngine, "epoch", "", payload{N: i})
				time.Sleep(time.Millisecond)
			}
		}
	}()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	close(stop)
	if err != nil {
		t.Fatalf("reading first live event: %v", err)
	}
	var ev Event
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Stream != StreamEngine {
		t.Fatalf("live event %+v, want engine stream", ev)
	}
	// After close the remaining body drains and the stream terminates.
	if _, err := io.ReadAll(br); err != nil {
		t.Fatalf("stream did not terminate cleanly after bus close: %v", err)
	}
}

func TestStreamHandlerNilBus(t *testing.T) {
	srv := httptest.NewServer(StreamHandler(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when telemetry is disabled", resp.StatusCode)
	}
}

// TestStreamBufferBounds: ?buffer= sizes a channel the server allocates,
// so a value outside 1..capacity is refused with 400 before any
// subscription exists — an 11-digit value used to exhaust memory, and a
// 20-digit one wrapped around silently.
func TestStreamBufferBounds(t *testing.T) {
	b := New(Config{Epoch: testEpoch, RecorderCapacity: 64})
	b.Close() // a valid request then ends at once
	h := StreamHandler(b)
	for _, q := range []string{"99999999999", "99999999999999999999", "abc", "0", "-1", "65"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream?buffer="+q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("buffer=%s: status %d, want 400", q, rec.Code)
		}
	}
	for _, q := range []string{"1", "64"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream?buffer="+q, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("buffer=%s: status %d, want 200", q, rec.Code)
		}
	}
}
