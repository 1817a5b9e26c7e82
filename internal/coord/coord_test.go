package coord

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"manetkit/internal/aodv"
	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/mpr"
	"manetkit/internal/olsr"
	"manetkit/internal/testbed"
)

func members(t *testing.T, n int) (*testbed.Cluster, []*Member) {
	t.Helper()
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ms := make([]*Member, n)
	for i, node := range c.Nodes {
		ms[i] = &Member{Name: fmt.Sprintf("node-%d", i+1), Mgr: node.Mgr}
	}
	return c, ms
}

func TestRunRequiresApply(t *testing.T) {
	if _, err := Run(nil, Action{Name: "empty"}); err == nil {
		t.Fatal("action without Apply accepted")
	}
}

func TestCommitAcrossAllMembers(t *testing.T) {
	c, ms := members(t, 3)
	_ = c
	applied := map[string]bool{}
	res, err := Run(ms, Action{
		Name:  "deploy-probe",
		Apply: func(m *Member) error { applied[m.Name] = true; return nil },
	})
	if err != nil || !res.Committed {
		t.Fatalf("Run = %+v, %v", res, err)
	}
	if len(applied) != 3 {
		t.Fatalf("applied on %d members", len(applied))
	}
	if len(res.Transcript) != 3 {
		t.Fatalf("transcript = %+v", res.Transcript)
	}
}

func TestPrepareVetoAbortsBeforeAnyChange(t *testing.T) {
	c, ms := members(t, 3)
	_ = c
	applied := 0
	res, err := Run(ms, Action{
		Name: "vetoed",
		Prepare: func(m *Member) error {
			if m.Name == "node-2" {
				return errors.New("not enough battery")
			}
			return nil
		},
		Apply: func(m *Member) error { applied++; return nil },
	})
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v", err)
	}
	if applied != 0 || res.Committed {
		t.Fatalf("applied=%d committed=%v", applied, res.Committed)
	}
	// Transcript records the successful prepare on node-1 and the veto.
	if len(res.Transcript) != 2 || res.Transcript[1].Err == nil {
		t.Fatalf("transcript = %+v", res.Transcript)
	}
}

func TestApplyFailureRollsBackInReverse(t *testing.T) {
	c, ms := members(t, 3)
	_ = c
	var log []string
	res, err := Run(ms, Action{
		Name: "partial",
		Apply: func(m *Member) error {
			if m.Name == "node-3" {
				return errors.New("boom")
			}
			log = append(log, "apply:"+m.Name)
			return nil
		},
		Undo: func(m *Member) error {
			log = append(log, "undo:"+m.Name)
			return nil
		},
	})
	if !errors.Is(err, ErrRollback) || res.Committed {
		t.Fatalf("err=%v committed=%v", err, res.Committed)
	}
	want := []string{"apply:node-1", "apply:node-2", "undo:node-2", "undo:node-1"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestUndoFailureIsReported(t *testing.T) {
	c, ms := members(t, 2)
	_ = c
	undoErr := errors.New("stuck")
	_, err := Run(ms, Action{
		Name: "sticky",
		Apply: func(m *Member) error {
			if m.Name == "node-2" {
				return errors.New("boom")
			}
			return nil
		},
		Undo: func(m *Member) error { return undoErr },
	})
	if !errors.Is(err, ErrRollback) || !errors.Is(err, undoErr) {
		t.Fatalf("err = %v", err)
	}
}

// TestDistributedProtocolSwitch is the §7 scenario end to end: switch a
// whole running OLSR network to DYMO atomically; when one node vetoes,
// every node stays on OLSR.
func TestDistributedProtocolSwitch(t *testing.T) {
	c, ms := members(t, 3)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	// Deploy OLSR everywhere.
	relays := make(map[string]*mpr.MPR)
	olsrs := make(map[string]*olsr.OLSR)
	for _, m := range ms {
		relay := mpr.New("")
		o := olsr.New("", relay)
		for _, u := range []*core.Protocol{relay.Protocol(), o.Protocol()} {
			if err := m.Mgr.Deploy(u); err != nil {
				t.Fatal(err)
			}
			if err := u.Start(); err != nil {
				t.Fatal(err)
			}
		}
		relays[m.Name], olsrs[m.Name] = relay, o
	}
	c.Run(10 * time.Second)

	switchAction := func(veto string) Action {
		return Action{
			Name: "olsr->dymo",
			Prepare: func(m *Member) error {
				if m.Name == veto {
					return errors.New("administratively refused")
				}
				return nil
			},
			Apply: func(m *Member) error {
				if err := m.Mgr.Undeploy("olsr"); err != nil {
					return err
				}
				if err := m.Mgr.Undeploy("mpr"); err != nil {
					return err
				}
				d := dymo.New("", dymo.Config{})
				if err := m.Mgr.Deploy(d.Protocol()); err != nil {
					return err
				}
				return d.Protocol().Start()
			},
			Undo: func(m *Member) error {
				if err := m.Mgr.Undeploy("dymo"); err != nil {
					return err
				}
				relay := mpr.New("")
				o := olsr.New("", relay)
				for _, u := range []*core.Protocol{relay.Protocol(), o.Protocol()} {
					if err := m.Mgr.Deploy(u); err != nil {
						return err
					}
					if err := u.Start(); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}

	// A vetoed switch leaves everyone on OLSR.
	if _, err := Run(ms, switchAction("node-2")); !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v", err)
	}
	for _, m := range ms {
		if !contains(m.Mgr.Units(), "olsr") {
			t.Fatalf("%s lost OLSR after veto", m.Name)
		}
	}
	// The unvetoed switch commits everywhere.
	res, err := Run(ms, switchAction(""))
	if err != nil || !res.Committed {
		t.Fatalf("switch failed: %v", err)
	}
	for _, m := range ms {
		units := m.Mgr.Units()
		if contains(units, "olsr") || !contains(units, "dymo") {
			t.Fatalf("%s units after switch = %v", m.Name, units)
		}
	}
}

// TestDistributedSwitchRollbackViaIntegrityRule makes the apply phase fail
// on the last node (its integrity rule rejects a second reactive protocol)
// and checks the first nodes roll back.
func TestDistributedSwitchRollbackViaIntegrityRule(t *testing.T) {
	_, ms := members(t, 3)
	// Node 3 already runs AODV and enforces single-reactive.
	last := ms[2]
	if err := last.Mgr.AddRule(aodv.RuleSingleReactive("aodv", "dymo")); err != nil {
		t.Fatal(err)
	}
	a := aodv.New("aodv", nil, aodv.Config{})
	if err := last.Mgr.Deploy(a.Protocol()); err != nil {
		t.Fatal(err)
	}
	act := Action{
		Name: "deploy-dymo",
		Apply: func(m *Member) error {
			d := dymo.New("dymo", dymo.Config{})
			return m.Mgr.Deploy(d.Protocol())
		},
		Undo: func(m *Member) error { return m.Mgr.Undeploy("dymo") },
	}
	res, err := Run(ms, act)
	if !errors.Is(err, ErrRollback) || res.Committed {
		t.Fatalf("err=%v committed=%v", err, res.Committed)
	}
	for _, m := range ms[:2] {
		if contains(m.Mgr.Units(), "dymo") {
			t.Fatalf("%s kept dymo after rollback", m.Name)
		}
	}
}

func TestStepKindString(t *testing.T) {
	if StepPrepare.String() != "prepare" || StepApply.String() != "apply" ||
		StepUndo.String() != "undo" || StepKind(9).String() != "unknown" {
		t.Fatal("StepKind names wrong")
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
