package emunet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/medium_fingerprints.json from this run (requires MANETKIT_UPDATE_GOLDEN=1)")

const mediumGoldenPath = "testdata/medium_fingerprints.json"

// mediumGolden pins what the differential suite observes to committed
// values, so the suite holds the medium to its past behaviour and not only
// the event core to the reference path. TestGoldenFrameTrace drives Send
// alone; the feedback fingerprints cover the MAC-verdict sends.
type mediumGolden struct {
	// Chaos is keyed by seed: chaosObservables' Stats, fault log, receive
	// log and span fingerprint.
	Chaos map[string]chaosGolden `json:"chaos"`
	// Feedback is keyed by seed: the digest of feedbackVerdicts' log.
	Feedback map[string]string `json:"feedback"`
}

type chaosGolden struct {
	Stats    string `json:"stats"`
	Faults   string `json:"faults"`
	Receives string `json:"receives"`
	Spans    string `json:"spans"`
}

// digestLines hashes a log, one line per entry.
func digestLines(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestMediumFingerprints compares the chaos and feedback workloads of the
// differential suite, run on the event core, to their committed digests.
func TestMediumFingerprints(t *testing.T) {
	fresh := mediumGolden{Chaos: map[string]chaosGolden{}, Feedback: map[string]string{}}
	for _, seed := range []int64{7, 8, 41} {
		stats, faults, rx, _, spans := chaosObservables(t, seed, New)
		fresh.Chaos[fmt.Sprint(seed)] = chaosGolden{
			Stats:    fmt.Sprintf("%+v", stats),
			Faults:   digestLines(faults),
			Receives: digestLines(rx),
			Spans:    spans,
		}
	}
	for _, seed := range []int64{5, 6, 43} {
		fresh.Feedback[fmt.Sprint(seed)] = digestLines(feedbackVerdicts(t, New, seed))
	}

	if *updateGolden {
		if os.Getenv("MANETKIT_UPDATE_GOLDEN") == "" {
			t.Fatal("-update passed without MANETKIT_UPDATE_GOLDEN=1; refusing to rewrite the goldens")
		}
		data, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(mediumGoldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(mediumGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", mediumGoldenPath, err)
		}
		return
	}

	data, err := os.ReadFile(mediumGoldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", mediumGoldenPath, err)
	}
	var want mediumGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", mediumGoldenPath, err)
	}
	const hint = "If this change intentionally alters medium behaviour, regenerate with\n" +
		"MANETKIT_UPDATE_GOLDEN=1 go test ./internal/emunet -run TestMediumFingerprints -update"
	for seed, got := range fresh.Chaos {
		if w := want.Chaos[seed]; got != w {
			t.Errorf("chaos seed %s:\n got  %+v\n want %+v\n%s", seed, got, w, hint)
		}
	}
	for seed, got := range fresh.Feedback {
		if w := want.Feedback[seed]; got != w {
			t.Errorf("feedback seed %s: verdict digest %s, want %s\n%s", seed, got, w, hint)
		}
	}
}
