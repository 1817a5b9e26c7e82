package harness

import (
	"strings"
	"testing"
)

// stormTwice runs the full fault storm twice with the same seed and
// asserts the acceptance criteria: zero invariant violations after the
// convergence bound, and byte-identical reports run to run.
func stormTwice(t *testing.T, proto string) *ChaosReport {
	t.Helper()
	cfg := ChaosConfig{Proto: proto, Scenario: ScenarioStorm, Seed: 7}
	r1, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	r2, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("RunChaos (replay): %v", err)
	}
	if f1, f2 := r1.Fingerprint(), r2.Fingerprint(); f1 != f2 {
		t.Fatalf("nondeterministic chaos run: %s vs %s\nrun1:\n%srun2:\n%s",
			f1, f2, r1.Summary(), r2.Summary())
	}
	if !r1.OK() {
		t.Fatalf("invariant violations:\n%s", r1.Summary())
	}
	// The storm must actually have happened.
	if len(r1.FaultLog) == 0 {
		t.Fatalf("no faults injected")
	}
	log := strings.Join(r1.FaultLog, "\n")
	for _, want := range []string{"partition", "heal", "crash", "restart", "corrupt"} {
		if !strings.Contains(log, want) {
			t.Fatalf("fault log missing %q:\n%s", want, log)
		}
	}
	if r1.Medium.Corrupted == 0 {
		t.Fatalf("no frames corrupted:\n%s", r1.Summary())
	}
	if r1.TapFrames == 0 {
		t.Fatalf("sequence watcher saw no control frames")
	}
	if r1.Sent != 7 {
		t.Fatalf("sent %d data packets, want 7", r1.Sent)
	}
	if !r1.Reconfigured {
		t.Fatalf("sniffer deployment did not land on every node")
	}
	return r1
}

func TestChaosStormOLSR(t *testing.T) { stormTwice(t, "olsr") }
func TestChaosStormDYMO(t *testing.T) { stormTwice(t, "dymo") }
func TestChaosStormAODV(t *testing.T) { stormTwice(t, "aodv") }
func TestChaosStormZRP(t *testing.T)  { stormTwice(t, "zrp") }

// TestChaosScenarios exercises each focused scenario (one protocol is
// enough — the storm tests above cover the full matrix).
func TestChaosScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc, func(t *testing.T) {
			r, err := RunChaos(ChaosConfig{Proto: "dymo", Scenario: sc, Seed: 3})
			if err != nil {
				t.Fatalf("RunChaos: %v", err)
			}
			if !r.OK() {
				t.Fatalf("violations:\n%s", r.Summary())
			}
			log := strings.Join(r.FaultLog, "\n")
			switch sc {
			case ScenarioPartition:
				if !strings.Contains(log, "partition") || !strings.Contains(log, "heal") {
					t.Fatalf("fault log: %s", log)
				}
			case ScenarioCrash:
				if !strings.Contains(log, "crash") || !strings.Contains(log, "restart") {
					t.Fatalf("fault log: %s", log)
				}
			case ScenarioCorruption:
				if r.Medium.Corrupted == 0 || r.Medium.Duplicated == 0 {
					t.Fatalf("no corruption/duplication:\n%s", r.Summary())
				}
			case ScenarioReconfig:
				if !r.Reconfigured {
					t.Fatalf("reconfiguration did not commit:\n%s", r.Summary())
				}
			}
		})
	}
}

// TestChaosSeedsDiverge guards against the injector accidentally sharing
// (and thus re-synchronising on) the medium's loss stream.
func TestChaosSeedsDiverge(t *testing.T) {
	a, err := RunChaos(ChaosConfig{Proto: "dymo", Scenario: ScenarioCorruption, Seed: 1})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	b, err := RunChaos(ChaosConfig{Proto: "dymo", Scenario: ScenarioCorruption, Seed: 2})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("different seeds produced identical runs: %s", a.Fingerprint())
	}
}

func TestChaosConfigValidation(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Proto: "babel"}); err == nil {
		t.Fatalf("unknown proto accepted")
	}
	if _, err := RunChaos(ChaosConfig{Proto: "olsr", Scenario: "meteor"}); err == nil {
		t.Fatalf("unknown scenario accepted")
	}
	if _, err := RunChaos(ChaosConfig{Proto: "olsr", Nodes: 3}); err == nil {
		t.Fatalf("undersized cluster accepted")
	}
}
