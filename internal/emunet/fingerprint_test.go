package emunet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/medium_fingerprints.json from this run (requires MANETKIT_UPDATE_GOLDEN=1)")

const mediumGoldenPath = "testdata/medium_fingerprints.json"

const regenerateHint = "If this change intentionally alters medium behaviour, regenerate with\n" +
	"MANETKIT_UPDATE_GOLDEN=1 go test ./internal/emunet -run TestMediumFingerprints -update"

// mediumGolden is the differential suite's oracle: the committed outputs
// of its workloads, one section per workload. TestGoldenFrameTrace drives
// Send alone; the feedback fingerprints cover the MAC-verdict sends.
type mediumGolden struct {
	// Chaos is keyed by seed: chaosObservables' Stats, fault log, receive
	// log and span fingerprint.
	Chaos map[string]chaosGolden `json:"chaos"`
	// Feedback is keyed by seed: the digest of feedbackVerdicts' log.
	Feedback map[string]string `json:"feedback"`
	// Topology is keyed by seed: topologyDigest's Stats and receive log.
	Topology map[string]topologyGolden `json:"topology"`
}

type chaosGolden struct {
	Stats    string `json:"stats"`
	Faults   string `json:"faults"`
	Receives string `json:"receives"`
	Spans    string `json:"spans"`
}

type topologyGolden struct {
	Stats    string `json:"stats"`
	Receives string `json:"receives"`
}

// digestLines hashes a log, one line per entry.
func digestLines(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func loadMediumGolden(t *testing.T) mediumGolden {
	t.Helper()
	data, err := os.ReadFile(mediumGoldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", mediumGoldenPath, err)
	}
	var g mediumGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("parse %s: %v", mediumGoldenPath, err)
	}
	return g
}

// TestMediumFingerprints rewrites the oracle from a run of every
// differential workload under -update. Otherwise it checks that the file
// holds exactly the sections and seeds those workloads check, so that no
// recorded digest goes unchecked and none is checked twice.
func TestMediumFingerprints(t *testing.T) {
	if *updateGolden {
		if os.Getenv("MANETKIT_UPDATE_GOLDEN") == "" {
			t.Fatal("-update passed without MANETKIT_UPDATE_GOLDEN=1; refusing to rewrite the goldens")
		}
		fresh := mediumGolden{Chaos: map[string]chaosGolden{}, Feedback: map[string]string{}, Topology: map[string]topologyGolden{}}
		for _, seed := range chaosSeeds {
			fresh.Chaos[fmt.Sprint(seed)] = chaosDigest(t, seed)
		}
		for _, seed := range feedbackSeeds {
			fresh.Feedback[fmt.Sprint(seed)] = feedbackDigest(t, seed)
		}
		for _, seed := range topologySeeds {
			fresh.Topology[fmt.Sprint(seed)] = topologyDigest(t, seed)
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
	var file map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("parse %s: %v", mediumGoldenPath, err)
	}
	want := map[string][]int64{"chaos": chaosSeeds, "feedback": feedbackSeeds, "topology": topologySeeds}
	if len(file) != len(want) {
		t.Errorf("%s has %d sections, want %d (chaos, feedback, topology)", mediumGoldenPath, len(file), len(want))
	}
	for section, seeds := range want {
		var got, wantKeys []string
		for k := range file[section] {
			got = append(got, k)
		}
		for _, s := range seeds {
			wantKeys = append(wantKeys, fmt.Sprint(s))
		}
		sort.Strings(got)
		sort.Strings(wantKeys)
		if !reflect.DeepEqual(got, wantKeys) {
			t.Errorf("section %q records seeds %v, its workload runs %v", section, got, wantKeys)
		}
	}
}
